#include <gtest/gtest.h>

#include "dag/partition.hpp"

namespace cab::dag {
namespace {

PartitionParams params(std::int32_t b, std::int32_t m, std::uint64_t sd,
                       std::uint64_t sc) {
  PartitionParams p;
  p.branching = b;
  p.sockets = m;
  p.input_bytes = sd;
  p.shared_cache_bytes = sc;
  return p;
}

TEST(BoundaryLevel, PaperWorkedExample3kx2k) {
  // Section V-B: 3k*2k doubles = 48 MB, M = 4, Sc = 6 MB, B = 2
  //   BL = max(ceil(log2 4 + 1), ceil(log2(48/6) + 1)) = max(3, 4) = 4.
  auto p = params(2, 4, 48ull << 20, 6ull << 20);
  EXPECT_EQ(boundary_level(p), 4);
}

TEST(BoundaryLevel, SingleSocketIsZero) {
  // Algorithm II step 2: M == 1 -> BL = 0 (classic work-stealing).
  EXPECT_EQ(boundary_level(params(2, 1, 1ull << 30, 6ull << 20)), 0);
}

TEST(BoundaryLevel, SingleSocketDegeneratesBeforeParameterChecks) {
  // M == 1 must yield BL = 0 deterministically even when the parameters
  // Eq. 4 would otherwise consume are degenerate or unknown — a
  // single-socket caller with Sd < Sc (or no B/Sc estimate at all, as
  // with the paper's irregular Queens/CK DAGs) must not trip the
  // branching/cache assertions that only matter for M >= 2.
  EXPECT_EQ(boundary_level(params(2, 1, 1024, 6ull << 20)), 0);  // Sd < Sc
  EXPECT_EQ(boundary_level(params(0, 1, 1024, 6ull << 20)), 0);  // no B
  EXPECT_EQ(boundary_level(params(1, 1, 1024, 6ull << 20)), 0);
  EXPECT_EQ(boundary_level(params(2, 1, 1024, 0)), 0);  // no Sc
  EXPECT_EQ(boundary_level(params(0, 1, 0, 0)), 0);
}

TEST(BoundaryLevel, SocketCountConstraintDominatesSmallInputs) {
  // Tiny input: Eq. 1 (B^(BL-1) >= M) decides. M=4, B=2 -> BL = 3.
  EXPECT_EQ(boundary_level(params(2, 4, 1024, 6ull << 20)), 3);
  // M=2 -> BL = 2 (the dual-socket dual-core example of Section II).
  EXPECT_EQ(boundary_level(params(2, 2, 1024, 6ull << 20)), 2);
}

TEST(BoundaryLevel, CacheConstraintDominatesLargeInputs) {
  // 96 MB / 6 MB = 16 -> B^(BL-1) >= 16 -> BL = 5 > the M constraint.
  EXPECT_EQ(boundary_level(params(2, 4, 96ull << 20, 6ull << 20)), 5);
}

TEST(BoundaryLevel, HigherBranchingNeedsFewerLevels) {
  // B = 4: 4^(BL-1) >= 16 -> BL = 3.
  EXPECT_EQ(boundary_level(params(4, 4, 96ull << 20, 6ull << 20)), 3);
}

TEST(BoundaryLevel, ExactFitBoundary) {
  // Sd == Sc: one leaf inter-socket task would fit, but M=4 forces BL=3.
  EXPECT_EQ(boundary_level(params(2, 4, 6ull << 20, 6ull << 20)), 3);
  // Just over an exact power: 48MB+1 byte needs ceil -> split = 9 -> BL=5.
  EXPECT_EQ(boundary_level(params(2, 4, (48ull << 20) + 1, 6ull << 20)), 5);
}

TEST(BoundaryLevel, ZeroInputBytes) {
  EXPECT_EQ(boundary_level(params(2, 4, 0, 6ull << 20)), 3);
}

TEST(LeafInterTaskCount, PowersOfBranching) {
  EXPECT_EQ(leaf_inter_task_count(2, 0), 1u);
  EXPECT_EQ(leaf_inter_task_count(2, 1), 1u);
  EXPECT_EQ(leaf_inter_task_count(2, 4), 8u);
  EXPECT_EQ(leaf_inter_task_count(3, 3), 9u);
}

TEST(ClampBoundaryLevel, CapsAtLeafLevelMinusSquadDepth) {
  // Heat 4k x 4k on 4x4: Eq. 4 gives 6 = the leaf level (one worker per
  // squad); the third constraint caps it at 6 - log2(4) = 4.
  EXPECT_EQ(clamp_boundary_level(6, /*leaf_level=*/6, /*N=*/4, /*M=*/4, 2),
            4);
  // Already-small BL is untouched.
  EXPECT_EQ(clamp_boundary_level(3, 6, 4, 4, 2), 3);
  EXPECT_EQ(clamp_boundary_level(4, 6, 4, 4, 2), 4);
}

TEST(ClampBoundaryLevel, Eq1FloorTakesPriority) {
  // A shallow DAG (leaf level 3) on 4 sockets: the cap would be 1, but
  // Eq. 1 needs B^(BL-1) >= M => BL >= 3.
  EXPECT_EQ(clamp_boundary_level(3, 3, 4, 4, 2), 3);
}

TEST(ClampBoundaryLevel, ZeroPassesThrough) {
  EXPECT_EQ(clamp_boundary_level(0, 6, 4, 4, 2), 0);
}

TEST(ClampBoundaryLevel, HigherBranchingNeedsFewerLevels) {
  // B=4: one level below the leaf inter-socket task already yields 4
  // leaves per squad.
  EXPECT_EQ(clamp_boundary_level(9, 6, 4, 4, 4), 5);
}

TEST(TierAssignment, ClassifiesPerModifiedCilk2c) {
  // Section IV-B: a spawn by a task at level < BL produces an inter-socket
  // child => tasks at level <= BL are inter, leaf inter tasks at == BL.
  TierAssignment t{3};
  EXPECT_TRUE(t.is_inter(0));
  EXPECT_TRUE(t.is_inter(3));
  EXPECT_FALSE(t.is_inter(4));
  EXPECT_TRUE(t.is_leaf_inter(3));
  EXPECT_FALSE(t.is_leaf_inter(2));
  EXPECT_TRUE(t.spawns_inter_child(2));
  EXPECT_FALSE(t.spawns_inter_child(3));
  EXPECT_TRUE(t.is_intra(4));
}

TEST(TierAssignment, BlZeroMeansEverythingIntra) {
  TierAssignment t{0};
  for (std::int32_t lvl = 0; lvl < 10; ++lvl) {
    EXPECT_FALSE(t.is_inter(lvl));
    EXPECT_FALSE(t.is_leaf_inter(lvl));
    EXPECT_FALSE(t.spawns_inter_child(lvl));
  }
}

/// Property: BL from Eq. 4 is the *smallest* level satisfying both
/// constraints (Eq. 1 and Eq. 2), over a sweep of parameters.
///
/// No PrintTo: the ctest name is the raw bytes ("16-byte object <...>"),
/// kept as the suite's existing ids; the struct has no padding, so every
/// byte of the name is fixed.
struct BlCase {
  std::int32_t b, m;
  std::uint64_t sd_mib;
};
static_assert(sizeof(BlCase) == 16, "BlCase has no padding bytes");

class BoundaryLevelProperty : public ::testing::TestWithParam<BlCase> {};

TEST_P(BoundaryLevelProperty, IsMinimalSatisfyingBothConstraints) {
  const auto c = GetParam();
  const std::uint64_t sc = 6ull << 20;
  const std::uint64_t sd = c.sd_mib << 20;
  const std::int32_t bl = boundary_level(params(c.b, c.m, sd, sc));
  if (c.m == 1) {
    EXPECT_EQ(bl, 0);
    return;
  }
  auto leaves = [&](std::int32_t l) { return leaf_inter_task_count(c.b, l); };
  // Satisfies Eq. 1 and Eq. 2.
  EXPECT_GE(leaves(bl), static_cast<std::uint64_t>(c.m));
  EXPECT_LE((sd + leaves(bl) - 1) / leaves(bl), sc);
  // Minimal: bl-1 violates at least one (when bl > 1).
  if (bl > 1) {
    const bool eq1_ok = leaves(bl - 1) >= static_cast<std::uint64_t>(c.m);
    const bool eq2_ok = (sd + leaves(bl - 1) - 1) / leaves(bl - 1) <= sc;
    EXPECT_FALSE(eq1_ok && eq2_ok);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoundaryLevelProperty,
    ::testing::Values(BlCase{2, 1, 48}, BlCase{2, 2, 2}, BlCase{2, 2, 48},
                      BlCase{2, 4, 2}, BlCase{2, 4, 16}, BlCase{2, 4, 48},
                      BlCase{2, 4, 128}, BlCase{2, 8, 512}, BlCase{3, 4, 48},
                      BlCase{4, 4, 48}, BlCase{4, 16, 1024},
                      BlCase{8, 4, 4096}, BlCase{2, 4, 0}, BlCase{2, 4, 6},
                      BlCase{2, 4, 7}));

}  // namespace
}  // namespace cab::dag
