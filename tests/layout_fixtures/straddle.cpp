// Layout fixture: hot-straddle. `mu` starts at offset 32 and is 40 bytes
// wide (libstdc++ std::mutex), so bytes 32..71 cross the line-64
// boundary: every lock/unlock dirties two lines. Compiled with
// -DCAB_LAYOUT_BROKEN the one-line assert must fail; without it the
// justified twin must compile.
#include <cstdint>
#include <mutex>

#include "util/layout.hpp"

namespace fixture {
namespace layout = cab::util::layout;

#ifdef CAB_LAYOUT_BROKEN
struct StraddleHot {
  std::uint64_t warm[4];
  std::mutex mu;
};
static_assert(layout::one_line(CAB_SPAN(StraddleHot, mu)),
              "hot-straddle: StraddleHot::mu must sit in one line");
#endif

struct StraddleJustified {
  std::uint64_t warm[4];
  std::mutex mu;
};
// straddle-ok: fixture twin — the lock is taken once per job, so its
// second line is noise; the assert still caps it at two.
static_assert(layout::lines_touched(CAB_SPAN(StraddleJustified, mu)) <= 2,
              "hot-straddle: StraddleJustified::mu must stay within 2 "
              "lines");

}  // namespace fixture
