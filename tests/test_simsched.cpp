#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "dag/generators.hpp"
#include "simsched/sim_scheduler.hpp"

namespace cab::simsched {
namespace {

SimOptions base_options(SimPolicy policy, int bl) {
  SimOptions o;
  o.topo = hw::Topology::synthetic(2, 2, /*l3=*/64 * 1024, /*l2=*/64 * 64);
  o.policy = policy;
  o.boundary_level = bl;
  o.seed = 11;
  return o;
}

TEST(EventQueue, OrdersByTimePriorityThenSequence) {
  EventQueue<int> q;
  q.push(2.0, 1);
  q.push(1.0, 2, /*priority=*/5);
  q.push(1.0, 3, /*priority=*/1);
  q.push(1.0, 4, /*priority=*/1);  // same prio: insertion order
  q.push(0.5, 5);
  SimTime t = 0;
  EXPECT_EQ(q.pop(t), 5);
  EXPECT_DOUBLE_EQ(t, 0.5);
  EXPECT_EQ(q.pop(t), 3);
  EXPECT_EQ(q.pop(t), 4);
  EXPECT_EQ(q.pop(t), 2);
  EXPECT_EQ(q.pop(t), 1);
  EXPECT_TRUE(q.empty());
}

TEST(Simulator, SingleNodeGraph) {
  dag::TaskGraph g;
  g.add_root(100);
  cachesim::TraceStore store;
  Simulator sim(base_options(SimPolicy::kCab, 2));
  SimResult r = sim.run(g, store);
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_EQ(r.tasks, 1u);
}

TEST(Simulator, MakespanRespectsLowerBounds) {
  // T_MN >= max(T1 / P, T_inf) for any scheduler (greedy bound).
  dag::TaskGraph g = dag::make_recursive_dnc(2, 5, 10000, 10);
  cachesim::TraceStore store;
  for (auto policy : {SimPolicy::kCab, SimPolicy::kRandomStealing}) {
    SimOptions o = base_options(policy, 2);
    Simulator sim(o);
    SimResult r = sim.run(g, store);
    const double t1 = static_cast<double>(g.total_work()) *
                      o.cost.cycles_per_work;
    const double tinf = static_cast<double>(g.critical_path()) *
                        o.cost.cycles_per_work;
    EXPECT_GE(r.makespan * 1.0001, t1 / o.topo.total_cores());
    EXPECT_GE(r.makespan * 1.0001, tinf);
    // And is not absurdly worse than the greedy upper bound T1/P + Tinf
    // plus overheads.
    EXPECT_LT(r.makespan, 4 * (t1 / o.topo.total_cores() + tinf) + 1e6);
  }
}

TEST(Simulator, DeterministicAcrossRuns) {
  dag::TaskGraph g = dag::make_irregular(3, 4, 7, 400, 2000);
  cachesim::TraceStore store;
  for (auto policy : {SimPolicy::kCab, SimPolicy::kRandomStealing}) {
    SimOptions o = base_options(policy, 2);
    SimResult a = Simulator(o).run(g, store);
    SimResult b = Simulator(o).run(g, store);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.cache.l3_misses, b.cache.l3_misses);
    EXPECT_EQ(a.total_busy, b.total_busy);
  }
}

TEST(Simulator, SeedChangesRandomPolicySchedule) {
  dag::TaskGraph g = dag::make_irregular(3, 4, 7, 400, 2000);
  cachesim::TraceStore store;
  SimOptions o = base_options(SimPolicy::kRandomStealing, 0);
  o.victims = VictimSelection::kUniformRandom;
  SimResult a = Simulator(o).run(g, store);
  o.seed = 999;
  SimResult b = Simulator(o).run(g, store);
  // Work conservation regardless of seed.
  EXPECT_EQ(a.tasks, b.tasks);
}

TEST(Simulator, AllPiecesExecuteExactlyOnce) {
  dag::TaskGraph g = dag::make_recursive_dnc(2, 4, 100, 5);
  cachesim::TraceStore store;
  std::map<dag::NodeId, int> pre_runs;
  SimOptions o = base_options(SimPolicy::kCab, 2);
  o.on_piece_start = [&](dag::NodeId n, int, SimTime, bool post) {
    if (!post) ++pre_runs[n];
  };
  Simulator(o).run(g, store);
  EXPECT_EQ(pre_runs.size(), g.size());
  for (const auto& [n, count] : pre_runs) EXPECT_EQ(count, 1) << "node " << n;
}

TEST(Simulator, SequentialPhasesDoNotOverlap) {
  // Root with 4 sequential phases; each phase a small parallel tree.
  dag::TaskGraph g;
  dag::NodeId root = g.add_root(1);
  g.set_sequential(root, true);
  std::vector<std::set<dag::NodeId>> phase_nodes;
  for (int p = 0; p < 4; ++p) {
    dag::NodeId ph = g.add_child(root, 5);
    std::set<dag::NodeId> nodes{ph};
    for (int i = 0; i < 3; ++i) nodes.insert(g.add_child(ph, 500));
    phase_nodes.push_back(std::move(nodes));
  }
  cachesim::TraceStore store;
  SimOptions o = base_options(SimPolicy::kCab, 1);
  std::map<dag::NodeId, int> node_phase;
  for (int p = 0; p < 4; ++p)
    for (dag::NodeId n : phase_nodes[static_cast<std::size_t>(p)])
      node_phase[n] = p;
  std::vector<double> phase_first_start(4, 1e30), phase_last_start(4, -1);
  o.on_piece_start = [&](dag::NodeId n, int, SimTime t, bool) {
    auto it = node_phase.find(n);
    if (it == node_phase.end()) return;
    phase_first_start[static_cast<std::size_t>(it->second)] =
        std::min(phase_first_start[static_cast<std::size_t>(it->second)], t);
    phase_last_start[static_cast<std::size_t>(it->second)] =
        std::max(phase_last_start[static_cast<std::size_t>(it->second)], t);
  };
  Simulator(o).run(g, store);
  // Phase p+1's first task starts after phase p's last task started
  // (strict ordering: after it *completed*, so certainly after it began).
  for (int p = 0; p + 1 < 4; ++p) {
    EXPECT_GE(phase_first_start[static_cast<std::size_t>(p + 1)],
              phase_last_start[static_cast<std::size_t>(p)]);
  }
}

TEST(Simulator, CabOnlyHeadsRunInterTasks) {
  dag::TaskGraph g = dag::make_recursive_dnc(2, 5, 400, 5);
  cachesim::TraceStore store;
  // Random wake order lets a non-head reach an inter pool first, so only
  // the head-only rule keeps inter tasks on heads there.
  for (VictimSelection victims :
       {VictimSelection::kRoundRobin, VictimSelection::kUniformRandom}) {
    SimOptions o = base_options(SimPolicy::kCab, 3);
    o.victims = victims;
    bool violation = false;
    o.on_piece_start = [&](dag::NodeId n, int worker, SimTime, bool) {
      // Inter-tier tasks (level <= 3) must execute on head workers
      // (worker id divisible by cores/socket = 2).
      if (g.node(n).level <= 3 && worker % 2 != 0) violation = true;
    };
    Simulator(o).run(g, store);
    EXPECT_FALSE(violation) << to_string(victims);
  }
}

TEST(Simulator, CabLeafInterSubtreesNeverOverlapOnOneSquad) {
  // The busy gate: a squad runs one leaf inter-socket subtree at a time.
  // Each subtree's span runs from its first to its last piece start; the
  // spans of the subtrees one squad ran must be disjoint.
  cachesim::TraceStore store;
  for (int cores : {2, 4, 8}) {
    for (std::int32_t branching : {2, 3, 4}) {
      for (std::int32_t depth : {5, 6, 7}) {
        const dag::TaskGraph g =
            dag::make_recursive_dnc(branching, depth, 400, 5, 5);
        for (std::int32_t bl : {1, 2, 3}) {
          for (VictimSelection victims : {VictimSelection::kRoundRobin,
                                          VictimSelection::kUniformRandom}) {
            SCOPED_TRACE(testing::Message()
                         << "2x" << cores << " B=" << branching << " depth="
                         << depth << " BL=" << bl << ' '
                         << to_string(victims));
            SimOptions o = base_options(SimPolicy::kCab, bl);
            o.topo = hw::Topology::synthetic(2, cores, 64 * 1024, 64 * 64);
            o.victims = victims;
            // Leaf-inter ancestor (level == bl) of each node at or below it.
            std::vector<dag::NodeId> anchor(g.size(), dag::kNoNode);
            for (std::size_t i = 0; i < g.size(); ++i) {
              const auto& n = g.node(static_cast<dag::NodeId>(i));
              if (n.level == bl) {
                anchor[i] = static_cast<dag::NodeId>(i);
              } else if (n.level > bl) {
                anchor[i] = anchor[static_cast<std::size_t>(n.parent)];
              }
            }
            struct Span {
              int squad = -1;
              SimTime first = 0, last = 0;
            };
            std::map<dag::NodeId, Span> spans;
            o.on_piece_start = [&](dag::NodeId n, int worker, SimTime t,
                                   bool) {
              const dag::NodeId a = anchor[static_cast<std::size_t>(n)];
              if (a == dag::kNoNode) return;
              auto [it, fresh] = spans.try_emplace(a);
              if (fresh) it->second = {worker / cores, t, t};
              it->second.last = std::max(it->second.last, t);
            };
            Simulator(o).run(g, store);
            std::map<int, std::vector<Span>> by_squad;
            for (const auto& [a, span] : spans)
              by_squad[span.squad].push_back(span);
            for (auto& [squad, list] : by_squad) {
              std::sort(list.begin(), list.end(),
                        [](const Span& x, const Span& y) {
                          return x.first < y.first;
                        });
              for (std::size_t i = 1; i < list.size(); ++i) {
                EXPECT_GT(list[i].first, list[i - 1].last)
                    << "squad " << squad << " overlapped two subtrees";
              }
            }
          }
        }
      }
    }
  }
}

TEST(Simulator, CabConfinesIntraTasksToOneSocketPerLeafInterSubtree) {
  dag::TaskGraph g = dag::make_recursive_dnc(2, 6, 2000, 5);
  cachesim::TraceStore store;
  const std::int32_t bl = 2;
  SimOptions o = base_options(SimPolicy::kCab, bl);
  // Map each node to its leaf-inter ancestor (level == bl).
  std::vector<dag::NodeId> anchor(g.size(), dag::kNoNode);
  for (std::size_t i = 0; i < g.size(); ++i) {
    const auto& n = g.node(static_cast<dag::NodeId>(i));
    if (n.level == bl) anchor[i] = static_cast<dag::NodeId>(i);
    else if (n.level > bl) anchor[i] = anchor[static_cast<std::size_t>(n.parent)];
  }
  std::map<dag::NodeId, std::set<int>> sockets_used;
  o.on_piece_start = [&](dag::NodeId n, int worker, SimTime, bool) {
    if (g.node(n).level > bl)
      sockets_used[anchor[static_cast<std::size_t>(n)]].insert(worker / 2);
  };
  Simulator(o).run(g, store);
  EXPECT_FALSE(sockets_used.empty());
  for (const auto& [a, socks] : sockets_used)
    EXPECT_EQ(socks.size(), 1u) << "leaf-inter subtree " << a
                                << " ran on multiple sockets";
}

TEST(Simulator, CabSquadMatesRunIntraTasks) {
  // A busy squad's mates steal its leaf inter-socket subtree's intra
  // tasks, so every worker, head or not, runs some of them.
  dag::TaskGraph g = dag::make_recursive_dnc(2, 7, 3000, 5);
  cachesim::TraceStore store;
  for (VictimSelection victims :
       {VictimSelection::kRoundRobin, VictimSelection::kUniformRandom}) {
    SimOptions o = base_options(SimPolicy::kCab, 2);
    o.victims = victims;
    std::set<int> workers_used;
    o.on_piece_start = [&](dag::NodeId n, int worker, SimTime, bool) {
      if (g.node(n).level > 2) workers_used.insert(worker);
    };
    Simulator(o).run(g, store);
    EXPECT_EQ(workers_used.size(),
              static_cast<std::size_t>(o.topo.total_cores()))
        << to_string(victims);
  }
}

TEST(Simulator, RandomStealingSpreadsAcrossAllWorkers) {
  dag::TaskGraph g = dag::make_recursive_dnc(2, 7, 3000, 5);
  cachesim::TraceStore store;
  SimOptions o = base_options(SimPolicy::kRandomStealing, 0);
  o.victims = VictimSelection::kUniformRandom;
  std::set<int> workers_used;
  o.on_piece_start = [&](dag::NodeId, int worker, SimTime, bool) {
    workers_used.insert(worker);
  };
  Simulator(o).run(g, store);
  EXPECT_EQ(workers_used.size(),
            static_cast<std::size_t>(o.topo.total_cores()));
}

TEST(Simulator, PostPiecesRunAfterChildren) {
  dag::TaskGraph g;
  dag::NodeId root = g.add_root(1, /*post=*/50);
  dag::NodeId a = g.add_child(root, 10, 20);
  g.add_child(a, 100);
  g.add_child(a, 100);
  cachesim::TraceStore store;
  SimOptions o = base_options(SimPolicy::kCab, 1);
  std::map<std::pair<dag::NodeId, bool>, double> starts;
  o.on_piece_start = [&](dag::NodeId n, int, SimTime t, bool post) {
    starts[{n, post}] = t;
  };
  SimResult r = Simulator(o).run(g, store);
  ASSERT_TRUE(starts.count({a, true}));
  ASSERT_TRUE(starts.count({root, true}));
  EXPECT_GT((starts[{a, true}]), (starts[{a, false}]));
  EXPECT_GT((starts[{root, true}]), (starts[{a, true}]));
  EXPECT_GT(r.makespan, (starts[{root, true}]));
}

TEST(Simulator, InterTierFractionSmallForDivideAndConquer) {
  // Paper Section III-E: inter-socket tier is typically < 5% of the work.
  dag::TaskGraph g = dag::make_recursive_dnc(2, 8, 50000, 10);
  cachesim::TraceStore store;
  SimOptions o = base_options(SimPolicy::kCab, 3);
  SimResult r = Simulator(o).run(g, store);
  EXPECT_GT(r.inter_tier_fraction(), 0.0);
  EXPECT_LT(r.inter_tier_fraction(), 0.05);
}

TEST(Simulator, UtilizationHighForWideFlatGraphs) {
  dag::TaskGraph g = dag::make_flat(400, 10000);
  cachesim::TraceStore store;
  SimOptions o = base_options(SimPolicy::kRandomStealing, 0);
  SimResult r = Simulator(o).run(g, store);
  EXPECT_GT(r.utilization(), 0.8);
}

TEST(Simulator, ColdCachesOptionResetsBetweenRuns) {
  dag::TaskGraph g;
  g.add_root(1);
  cachesim::TraceStore store;
  cachesim::Trace t{{0, 64 * 100, 1, false}};
  g.set_traces(0, store.add(t), -1);

  SimOptions o = base_options(SimPolicy::kCab, 0);
  o.policy = SimPolicy::kRandomStealing;
  Simulator sim(o);
  SimResult first = sim.run(g, store);
  SimResult second = sim.run(g, store);
  EXPECT_EQ(first.cache.l3_misses, second.cache.l3_misses);  // cold again

  o.cold_caches = false;
  Simulator warm(o);
  SimResult w1 = warm.run(g, store);
  SimResult w2 = warm.run(g, store);
  EXPECT_GT(w1.cache.l3_misses, w2.cache.l3_misses);  // warm reuse
}

TEST(Simulator, BandwidthModelSerializesSocketFills) {
  // 4 equal leaves, each streaming a distinct 256-line region from
  // memory, on 1 socket x 4 cores. Latency-only: they overlap fully.
  // With a bandwidth cap of `bw` cycles/line, the socket must ship
  // 4*256 lines serially => makespan >= 1024 * bw.
  dag::TaskGraph g;
  dag::NodeId root = g.add_root(1);
  cachesim::TraceStore store;
  for (int i = 0; i < 4; ++i) {
    dag::NodeId leaf = g.add_child(root, 10);
    g.set_traces(leaf,
                 store.add({{static_cast<std::uint64_t>(i) * (1u << 20),
                             256 * 64, 1, false}}),
                 -1);
  }
  SimOptions o;
  o.topo = hw::Topology::synthetic(1, 4, 64 * 48 * 1024, 64 * 16 * 16);
  o.policy = SimPolicy::kRandomStealing;

  SimResult latency_only = Simulator(o).run(g, store);

  o.cost.socket_bandwidth_cycles_per_line = 500.0;  // slower than latency
  SimResult capped = Simulator(o).run(g, store);
  EXPECT_GE(capped.makespan, 4 * 256 * 500.0);
  EXPECT_GT(capped.makespan, latency_only.makespan);
}

TEST(Simulator, BandwidthCapIrrelevantWhenFasterThanLatency) {
  dag::TaskGraph g;
  dag::NodeId root = g.add_root(1);
  cachesim::TraceStore store;
  dag::NodeId leaf = g.add_child(root, 10);
  g.set_traces(leaf, store.add({{0, 256 * 64, 1, false}}), -1);

  SimOptions o = base_options(SimPolicy::kRandomStealing, 0);
  SimResult a = Simulator(o).run(g, store);
  // One stream: channel ships faster than the latency-bound core
  // consumes => no change.
  o.cost.socket_bandwidth_cycles_per_line = 1.0;
  SimResult b = Simulator(o).run(g, store);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(SimResult, JsonContainsAllKeysAndBalancedBraces) {
  dag::TaskGraph g = dag::make_flat(8, 100);
  cachesim::TraceStore store;
  SimResult r = Simulator(base_options(SimPolicy::kCab, 1)).run(g, store);
  const std::string j = r.to_json();
  for (const char* key :
       {"makespan_cycles", "utilization", "tasks", "l2_misses", "l3_misses",
        "invalidations", "sockets"}) {
    EXPECT_NE(j.find(std::string("\"") + key + "\""), std::string::npos)
        << key;
  }
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
}

TEST(SimResult, SummaryContainsHeadlineNumbers) {
  dag::TaskGraph g = dag::make_flat(8, 100);
  cachesim::TraceStore store;
  SimResult r = Simulator(base_options(SimPolicy::kCab, 1)).run(g, store);
  std::string s = r.summary();
  EXPECT_NE(s.find("makespan="), std::string::npos);
  EXPECT_NE(s.find("L3-miss="), std::string::npos);
}

/// Property: simulation completes and conserves tasks for arbitrary
/// irregular DAGs under every policy/BL combination.
struct SimPropCase {
  std::uint64_t seed;
  SimPolicy policy;
  std::int32_t bl;
};

void PrintTo(const SimPropCase& c, std::ostream* os) {
  *os << "seed" << c.seed << '_' << to_string(c.policy) << "_bl" << c.bl;
}

class SimulatorProperty : public ::testing::TestWithParam<SimPropCase> {};

TEST_P(SimulatorProperty, CompletesAndConservesWork) {
  const auto c = GetParam();
  dag::TaskGraph g = dag::make_irregular(c.seed, 5, 9, 600, 1000);
  cachesim::TraceStore store;
  SimOptions o = base_options(c.policy, c.bl);
  std::uint64_t pre_pieces = 0;
  o.on_piece_start = [&](dag::NodeId, int, SimTime, bool post) {
    if (!post) ++pre_pieces;
  };
  SimResult r = Simulator(o).run(g, store);
  EXPECT_EQ(pre_pieces, g.size());
  EXPECT_GT(r.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SimulatorProperty,
    ::testing::Values(SimPropCase{1, SimPolicy::kCab, 0},
                      SimPropCase{1, SimPolicy::kCab, 2},
                      SimPropCase{1, SimPolicy::kCab, 5},
                      SimPropCase{1, SimPolicy::kCab, 50},
                      SimPropCase{1, SimPolicy::kRandomStealing, 0},
                      SimPropCase{2, SimPolicy::kCab, 3},
                      SimPropCase{3, SimPolicy::kCab, 3},
                      SimPropCase{4, SimPolicy::kCab, 1},
                      SimPropCase{5, SimPolicy::kRandomStealing, 0},
                      SimPropCase{6, SimPolicy::kCab, 4}));

/// Property over machine shapes: the protocol completes, conserves work
/// and respects the greedy lower bounds on any topology, from a single
/// core to wide many-socket shapes, under both policies.
struct ShapeCase {
  int sockets, cores;
  SimPolicy policy;
};

void PrintTo(const ShapeCase& c, std::ostream* os) {
  *os << c.sockets << 'x' << c.cores << '_' << to_string(c.policy);
}

class TopologyShapeProperty : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(TopologyShapeProperty, ProtocolSoundOnAnyShape) {
  const auto c = GetParam();
  dag::TaskGraph g = dag::make_irregular(9, 4, 7, 500, 800);
  cachesim::TraceStore store;
  SimOptions o;
  o.topo = hw::Topology::synthetic(c.sockets, c.cores, 1ull << 20);
  o.policy = c.policy;
  o.boundary_level = 3;
  std::uint64_t pieces = 0;
  o.on_piece_start = [&](dag::NodeId, int worker, SimTime, bool post) {
    if (!post) ++pieces;
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, o.topo.total_cores());
  };
  SimResult r = Simulator(o).run(g, store);
  EXPECT_EQ(pieces, g.size());
  EXPECT_GE(r.makespan * 1.0001,
            static_cast<double>(g.critical_path()) * o.cost.cycles_per_work);
  EXPECT_LE(r.utilization(), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyShapeProperty,
    ::testing::Values(ShapeCase{1, 1, SimPolicy::kCab},
                      ShapeCase{1, 1, SimPolicy::kRandomStealing},
                      ShapeCase{1, 16, SimPolicy::kCab},
                      ShapeCase{16, 1, SimPolicy::kCab},
                      ShapeCase{8, 2, SimPolicy::kCab},
                      ShapeCase{2, 8, SimPolicy::kCab},
                      ShapeCase{3, 5, SimPolicy::kCab},
                      ShapeCase{3, 5, SimPolicy::kRandomStealing},
                      ShapeCase{8, 8, SimPolicy::kCab}));

}  // namespace
}  // namespace cab::simsched
