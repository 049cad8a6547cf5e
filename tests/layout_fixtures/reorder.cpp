// Layout fixture: reorder-waste. The two flags on either side of the
// line-aligned word each strand a line of padding: 128 bytes as
// declared, 64 with the flags packed behind `word`. The justified twin
// keeps the order and pays for it in a wider line budget.
#include <atomic>
#include <cstdint>

#include "util/layout.hpp"

namespace fixture {
namespace layout = cab::util::layout;

#ifdef CAB_LAYOUT_BROKEN
struct ReorderWaste {
  bool armed;
  alignas(cab::util::kCacheLineSize) std::atomic<std::uint64_t> word;
  bool done;
};
static_assert(layout::within_lines(sizeof(ReorderWaste), 1),
              "reorder-waste: ReorderWaste outgrew its 1-line budget");
#endif

struct ReorderJustified {
  bool armed;
  alignas(cab::util::kCacheLineSize) std::atomic<std::uint64_t> word;
  bool done;
};
// order-ok: fixture twin — declaration order mirrors the record format
// this struct is memcpy'd from; the padding line is the price.
static_assert(layout::within_lines(sizeof(ReorderJustified), 2),
              "reorder-waste: ReorderJustified outgrew its 2-line budget");

}  // namespace fixture
