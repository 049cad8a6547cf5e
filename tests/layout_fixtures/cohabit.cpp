// Layout fixture: hot-cohabit. Two independently written atomics on one
// line — the textbook false-sharing layout the cachesim directory
// classifies dynamically (false_sharing_invalidations). The justified
// twin checks the shared pair as one cluster against the next hot word.
#include <atomic>

#include "util/layout.hpp"

namespace fixture {
namespace layout = cab::util::layout;

#ifdef CAB_LAYOUT_BROKEN
struct CohabitHot {
  std::atomic<int> a;
  std::atomic<int> b;
};
static_assert(layout::disjoint_lines(CAB_SPAN(CohabitHot, a),
                                     CAB_SPAN(CohabitHot, b)),
              "hot-cohabit: CohabitHot::a and b must not share a line");
#endif

struct CohabitJustified {
  std::atomic<int> a;
  std::atomic<int> b;
  alignas(cab::util::kCacheLineSize) std::atomic<int> remote;
};
// share-ok: fixture twin — a and b are written by the same owner thread,
// so cohabiting costs nothing; the pair must still keep off `remote`.
static_assert(layout::disjoint_lines(
                  layout::cluster(CAB_SPAN(CohabitJustified, a),
                                  CAB_SPAN(CohabitJustified, b)),
                  CAB_SPAN(CohabitJustified, remote)),
              "hot-cohabit: CohabitJustified's a/b cluster must not share "
              "a line with remote");

}  // namespace fixture
