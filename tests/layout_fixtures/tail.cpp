// Layout fixture: tail-shared. `head` buys a whole line with alignas(64),
// then `cap` moves onto that very line — the isolation leaks out the
// back. The justified twin admits `cap` and nothing else.
#include <atomic>
#include <cstdint>

#include "util/layout.hpp"

namespace fixture {
namespace layout = cab::util::layout;

#ifdef CAB_LAYOUT_BROKEN
struct TailShared {
  alignas(cab::util::kCacheLineSize) std::atomic<std::uint32_t> head;
  std::uint32_t cap;
};
static_assert(layout::owns_lines(CAB_SPAN(TailShared, head),
                                 CAB_OFFSETOF(TailShared, cap)),
              "tail-shared: TailShared::head must own its line");
#endif

struct TailJustified {
  alignas(cab::util::kCacheLineSize) std::atomic<std::uint32_t> head;
  std::uint32_t cap;
};
// tail-ok: fixture twin — cap is written once at construction and
// read-only afterwards, so it cannot invalidate head's line.
static_assert(layout::owns_lines(
                  layout::cluster(CAB_SPAN(TailJustified, head),
                                  CAB_SPAN(TailJustified, cap)),
                  sizeof(TailJustified)),
              "tail-shared: TailJustified::head may share its line with cap "
              "only");

}  // namespace fixture
