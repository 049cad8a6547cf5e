#include <gtest/gtest.h>

#include "dag/bounds.hpp"
#include "dag/dot_export.hpp"
#include "dag/generators.hpp"
#include "simsched/sim_scheduler.hpp"

namespace cab::dag {
namespace {

TEST(TierAnalysis, UniformTreeDecomposition) {
  // B=2, depth 4: levels 0..4, leaf work 100 at level 4, divide work 1.
  TaskGraph g = make_recursive_dnc(2, 4, 100, 1);
  TierAssignment tier{2};  // leaf inter-socket tasks at level 2
  TierAnalysis a = analyze_tiers(g, tier);

  EXPECT_EQ(a.t1_total, g.total_work());
  EXPECT_EQ(a.tinf_total, g.critical_path());
  EXPECT_EQ(a.leaf_inter_count, 2u);  // B^(BL-1) = 2
  // Inter tier strictly above the boundary: levels 0 and 1, work 1 each.
  EXPECT_EQ(a.t1_inter, 2u);
  // Each leaf inter-socket subtree: itself (1) + 2 divide (1) + 4 leaves.
  EXPECT_EQ(a.t1_intra, 2u * (1 + 2 * 1 + 4 * 100));
  // Disjoint partition covers everything.
  EXPECT_EQ(a.t1_inter + a.t1_intra, a.t1_total);
  // Subtree span: 1 + 1 + 100.
  EXPECT_EQ(a.tinf_intra_max, 102u);
  EXPECT_EQ(a.tinf_intra_sum, 2u * 102);
  // Serial live frames = tree depth in frames (levels 0..4).
  EXPECT_EQ(a.serial_live_frames, 5u);
}

TEST(TierAnalysis, BlZeroCollapsesToSingleIntraTier) {
  TaskGraph g = make_recursive_dnc(2, 3, 50, 1);
  TierAnalysis a = analyze_tiers(g, TierAssignment{0});
  EXPECT_EQ(a.t1_inter, 0u);
  EXPECT_EQ(a.t1_intra, a.t1_total);
  EXPECT_EQ(a.leaf_inter_count, 1u);
}

TEST(TierAnalysis, SequentialPhasesSumInSpan) {
  TaskGraph g;
  NodeId root = g.add_root(1);
  g.set_sequential(root, true);
  g.add_child(root, 10);
  g.add_child(root, 20);
  TierAnalysis a = analyze_tiers(g, TierAssignment{1});
  EXPECT_EQ(a.tinf_total, 31u);
  EXPECT_EQ(a.leaf_inter_count, 2u);
}

TEST(TimeBoundEq13, BoundDominatesSimulatedMakespan) {
  // With the unit-cost model (no traces), a greedy scheduler must stay
  // within a small constant of Eq. 13.
  TaskGraph g = make_recursive_dnc(2, 7, 5000, 10);
  cachesim::TraceStore store;
  const std::int32_t bl = 3;
  TierAnalysis a = analyze_tiers(g, TierAssignment{bl});

  simsched::SimOptions o;
  o.topo = hw::Topology::opteron_8380();
  o.policy = simsched::SimPolicy::kCab;
  o.boundary_level = bl;
  simsched::SimResult r = simsched::Simulator(o).run(g, store);

  const double bound = time_bound_eq13(a, 4, 4);
  EXPECT_LT(r.makespan, 3.0 * bound + 1e6);
  // And the bound is not vacuous: it is within a small factor of T1/P.
  EXPECT_GT(bound, static_cast<double>(a.t1_total) / 16.0);
}

TEST(TimeBoundEq13, InterTermScalesWithSocketsOnly) {
  TaskGraph g = make_recursive_dnc(2, 5, 100, 50);
  TierAnalysis a = analyze_tiers(g, TierAssignment{2});
  const double b_4x4 = time_bound_eq13(a, 4, 4);
  const double b_4x8 = time_bound_eq13(a, 4, 8);
  // More cores per socket shrink only the intra term.
  EXPECT_GT(b_4x4, b_4x8);
  const double diff = b_4x4 - b_4x8;
  EXPECT_NEAR(diff,
              static_cast<double>(a.t1_intra) / 16.0 -
                  static_cast<double>(a.t1_intra) / 32.0,
              1e-9);
}

TEST(SpaceBoundEq15, TakesMaxOfLeafCountAndWorkers) {
  TierAnalysis a;
  a.serial_live_frames = 10;
  a.leaf_inter_count = 8;
  // 8 leaf inter tasks < 16 workers: workers dominate.
  EXPECT_EQ(space_bound_eq15(a, 4, 4), 16u * 10);
  // 64 leaf inter tasks > 16 workers: K dominates.
  a.leaf_inter_count = 64;
  EXPECT_EQ(space_bound_eq15(a, 4, 4), 64u * 10);
}

TEST(TierAnalysis, SummaryMentionsComponents) {
  TaskGraph g = make_recursive_dnc(2, 3, 10, 1);
  TierAnalysis a = analyze_tiers(g, TierAssignment{2});
  std::string s = a.summary();
  EXPECT_NE(s.find("T1="), std::string::npos);
  EXPECT_NE(s.find("K="), std::string::npos);
}

/// Property: over random irregular graphs and boundary levels, the tier
/// decomposition partitions T1 exactly and the derived quantities stay
/// within their structural envelopes.
///
/// No PrintTo: the ctest name is the raw bytes ("16-byte object <...>"),
/// kept as the suite's existing ids. `pad` makes the trailing padding an
/// initialised field, so every byte of the name is fixed.
struct BoundsCase {
  std::uint64_t seed;
  std::int32_t bl;
  std::int32_t pad = 0;
};

class TierAnalysisProperty : public ::testing::TestWithParam<BoundsCase> {};

TEST_P(TierAnalysisProperty, DecompositionInvariants) {
  const auto c = GetParam();
  TaskGraph g = make_irregular(c.seed, 4, 8, 500, 300);
  TierAnalysis a = analyze_tiers(g, TierAssignment{c.bl});
  // Exact work partition: inter + intra == total. (Nodes below a leaf
  // inter-socket task are inside exactly one subtree; nodes above are
  // inter; orphans — intra-level nodes not under any boundary node, which
  // irregular graphs can produce when a branch ends above BL — have zero
  // double counting either way.)
  EXPECT_LE(a.t1_inter + a.t1_intra, a.t1_total);
  EXPECT_LE(a.tinf_intra_max, a.tinf_total);
  EXPECT_LE(a.tinf_intra_max, a.tinf_intra_sum);
  EXPECT_GE(a.serial_live_frames, 1u);
  EXPECT_LE(a.serial_live_frames,
            static_cast<std::uint64_t>(g.max_level()) + 1);
  const double bound = time_bound_eq13(a, 4, 4);
  EXPECT_GE(bound, static_cast<double>(a.tinf_total));
  EXPECT_GE(space_bound_eq15(a, 4, 4), 16 * 0ull);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TierAnalysisProperty,
    ::testing::Values(BoundsCase{1, 0}, BoundsCase{1, 1}, BoundsCase{1, 3},
                      BoundsCase{2, 2}, BoundsCase{3, 2}, BoundsCase{4, 5},
                      BoundsCase{5, 1}, BoundsCase{6, 4}, BoundsCase{7, 3},
                      BoundsCase{8, 2}));

TEST(DotExport, ContainsTierColoring) {
  TaskGraph g = make_recursive_dnc(2, 3, 10, 1);
  std::string dot = to_dot(g, TierAssignment{2});
  EXPECT_NE(dot.find("digraph cab_dag"), std::string::npos);
  EXPECT_NE(dot.find("lightsteelblue"), std::string::npos);  // leaf inter
  EXPECT_NE(dot.find("lightgrey"), std::string::npos);       // inter tier
  EXPECT_NE(dot.find("->"), std::string::npos);
  // All nodes present (root n0 .. n7 for the 8-node tree).
  EXPECT_NE(dot.find("n7"), std::string::npos);
}

TEST(DotExport, TruncatesHugeGraphs) {
  TaskGraph g = make_recursive_dnc(2, 10, 1, 1);  // 2^10+ nodes
  std::string dot = to_dot(g, TierAssignment{2}, 64);
  EXPECT_NE(dot.find("more nodes"), std::string::npos);
}

}  // namespace
}  // namespace cab::dag
