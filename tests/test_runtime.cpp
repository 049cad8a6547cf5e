#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"
#include "runtime/spawn_value.hpp"

namespace cab::runtime {
namespace {

long fib_serial(int n) { return n < 2 ? n : fib_serial(n - 1) + fib_serial(n - 2); }

void fib_task(int n, long* out) {
  if (n < 2) {
    *out = n;
    return;
  }
  long a = 0, b = 0;
  Runtime::spawn([n, &a] { fib_task(n - 1, &a); });
  Runtime::spawn([n, &b] { fib_task(n - 2, &b); });
  Runtime::sync();
  *out = a + b;
}

Options make_options(SchedulerKind kind, int sockets, int cores, int bl) {
  Options o;
  o.topo = hw::Topology::synthetic(sockets, cores, 1ull << 20);
  o.kind = kind;
  o.boundary_level = bl;
  o.seed = 7;
  return o;
}

struct SchedCase {
  SchedulerKind kind;
  int sockets, cores, bl;
};

// Names the parameterized tests (e.g. CAB_2x2_bl2). Without it gtest
// prints the raw bytes, padding included, and the names change per run.
void PrintTo(const SchedCase& c, std::ostream* os) {
  *os << to_string(c.kind) << '_' << c.sockets << 'x' << c.cores << "_bl"
      << c.bl;
}

class AllSchedulers : public ::testing::TestWithParam<SchedCase> {};

TEST_P(AllSchedulers, FibComputesCorrectResult) {
  const auto c = GetParam();
  Runtime rt(make_options(c.kind, c.sockets, c.cores, c.bl));
  long result = 0;
  rt.run([&] { fib_task(16, &result); });
  EXPECT_EQ(result, fib_serial(16));
}

TEST_P(AllSchedulers, RepeatedRunsOnOneRuntime) {
  const auto c = GetParam();
  Runtime rt(make_options(c.kind, c.sockets, c.cores, c.bl));
  for (int i = 0; i < 3; ++i) {
    long result = 0;
    rt.run([&] { fib_task(12, &result); });
    EXPECT_EQ(result, fib_serial(12));
  }
}

TEST_P(AllSchedulers, ParallelForCoversEveryIndexOnce) {
  const auto c = GetParam();
  Runtime rt(make_options(c.kind, c.sockets, c.cores, c.bl));
  constexpr std::int64_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  rt.run([&] {
    parallel_for(0, kN, 64, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
  });
  for (std::int64_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AllSchedulers,
    ::testing::Values(
        SchedCase{SchedulerKind::kCab, 2, 2, 2},
        SchedCase{SchedulerKind::kCab, 2, 2, 0},   // degenerate (Fig. 8)
        SchedCase{SchedulerKind::kCab, 4, 2, 3},
        SchedCase{SchedulerKind::kCab, 1, 4, 0},   // single socket
        SchedCase{SchedulerKind::kCab, 2, 1, 4},   // BL deeper than DAG
        SchedCase{SchedulerKind::kRandomStealing, 2, 2, 0},
        SchedCase{SchedulerKind::kRandomStealing, 1, 4, 0},
        SchedCase{SchedulerKind::kTaskSharing, 2, 2, 0}));

TEST(Runtime, PinnedThreadsStillComputeCorrectly) {
  Options o = make_options(SchedulerKind::kCab, 2, 2, 2);
  o.pin_threads = true;  // wraps modulo physical CPUs on small hosts
  Runtime rt(o);
  long result = 0;
  rt.run([&] { fib_task(14, &result); });
  EXPECT_EQ(result, fib_serial(14));
}

TEST(ParallelFor, EmptyAndDegenerateRanges) {
  Runtime rt(make_options(SchedulerKind::kCab, 2, 2, 1));
  std::atomic<int> calls{0};
  rt.run([&] {
    parallel_for(5, 5, 4, [&](std::int64_t, std::int64_t) { calls++; });
    parallel_for(7, 5, 4, [&](std::int64_t, std::int64_t) { calls++; });
  });
  EXPECT_EQ(calls.load(), 0);

  std::atomic<std::int64_t> sum{0};
  rt.run([&] {
    // Grain larger than the range: exactly one leaf call.
    parallel_for(0, 3, 100, [&](std::int64_t lo, std::int64_t hi) {
      sum.fetch_add(hi - lo);
      calls++;
    });
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(sum.load(), 3);
}

TEST(ParallelFor, NonPowerOfTwoRangeCoversExactly) {
  Runtime rt(make_options(SchedulerKind::kRandomStealing, 2, 2, 0));
  constexpr std::int64_t kN = 997;  // prime
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  rt.run([&] {
    parallel_for(0, kN, 10, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i)
        hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
  });
  for (std::int64_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

TEST(Runtime, AutoBoundaryLevelMatchesEq4) {
  hw::Topology topo = hw::Topology::opteron_8380();
  EXPECT_EQ(auto_boundary_level(topo, 48ull << 20, 2), 4);
  EXPECT_EQ(auto_boundary_level(topo, 1024, 2), 3);
  hw::Topology single = hw::Topology::synthetic(1, 4);
  EXPECT_EQ(auto_boundary_level(single, 48ull << 20, 2), 0);
}

TEST(Runtime, WorkerCountMatchesTopology) {
  Runtime rt(make_options(SchedulerKind::kCab, 2, 3, 2));
  EXPECT_EQ(rt.worker_count(), 6);
}

TEST(Runtime, CurrentWorkerAndSquadInsideTasks) {
  Runtime rt(make_options(SchedulerKind::kCab, 2, 2, 2));
  EXPECT_EQ(Runtime::current_worker(), -1);  // outside any task
  std::atomic<bool> valid{true};
  rt.run([&] {
    const int w = Runtime::current_worker();
    const int s = Runtime::current_squad();
    if (w < 0 || w >= 4 || s != w / 2) valid = false;
  });
  EXPECT_TRUE(valid.load());
}

TEST(Runtime, StatsCountSpawnsByTier) {
  Options o = make_options(SchedulerKind::kCab, 2, 2, 2);
  Runtime rt(o);
  // A depth-4 binary tree: levels 1..4 below the root closure (level 0).
  std::atomic<int> leaves{0};
  std::function<void(int)> rec = [&](int depth) {
    if (depth == 4) {
      leaves.fetch_add(1);
      return;
    }
    Runtime::spawn([&rec, depth] { rec(depth + 1); });
    Runtime::spawn([&rec, depth] { rec(depth + 1); });
    Runtime::sync();
  };
  rt.run([&] { rec(0); });
  EXPECT_EQ(leaves.load(), 16);
  SchedulerStats s = rt.stats();
  // Spawns at child-levels 1 and 2 are inter (BL = 2): 2 + 4 = 6.
  EXPECT_EQ(s.total.spawns_inter, 6u);
  // Remaining spawned tasks are intra: 8 + 16 = 24.
  EXPECT_EQ(s.total.spawns_intra, 24u);
  // All tasks executed: root + 30 spawned.
  EXPECT_EQ(s.total.tasks_executed, 31u);
  rt.reset_stats();
  EXPECT_EQ(rt.stats().total.tasks_executed, 0u);
}

TEST(Runtime, CabUsesMultipleSquads) {
  Options o = make_options(SchedulerKind::kCab, 2, 2, 3);
  Runtime rt(o);
  std::set<int> squads_seen;
  std::mutex mu;
  std::function<void(int)> rec = [&](int depth) {
    {
      std::lock_guard<std::mutex> g(mu);
      squads_seen.insert(Runtime::current_squad());
    }
    if (depth == 6) {
      volatile double x = 0;
      for (int i = 0; i < 50000; ++i) x = x + 1.0 / (i + 1);
      return;
    }
    Runtime::spawn([&rec, depth] { rec(depth + 1); });
    Runtime::spawn([&rec, depth] { rec(depth + 1); });
    Runtime::sync();
  };
  rt.run([&] { rec(0); });
  EXPECT_EQ(squads_seen.size(), 2u);  // both squads participated
}

TEST(Runtime, NestedParallelForInsideSpawn) {
  Runtime rt(make_options(SchedulerKind::kCab, 2, 2, 2));
  std::atomic<std::int64_t> sum{0};
  rt.run([&] {
    Runtime::spawn([&] {
      parallel_for(0, 100, 10, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
      });
    });
    Runtime::spawn([&] {
      parallel_for(100, 200, 10, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
      });
    });
    Runtime::sync();
  });
  EXPECT_EQ(sum.load(), 199 * 200 / 2);
}

TEST(Runtime, ExplicitSyncMidBody) {
  Runtime rt(make_options(SchedulerKind::kCab, 2, 2, 2));
  std::int64_t a = 0, b = 0, combined = -1;
  rt.run([&] {
    Runtime::spawn([&] { a = 21; });
    Runtime::sync();  // a must be visible now
    std::int64_t observed = a;
    Runtime::spawn([&, observed] { b = observed * 2; });
    Runtime::sync();
    combined = b;
  });
  EXPECT_EQ(combined, 42);
}

// A worker blocked at an implicit sync only yields while it waits: the
// free-worker backoff that parks an idle thread in 50 us sleeps must not
// apply, or a blocked head reaches the starvation escape thousands of
// sleeps late.
TEST(SyncWait, BlockedImplicitSyncNeverSleeps) {
  Runtime rt(make_options(SchedulerKind::kCab, 1, 2, 0));
  std::atomic<bool> started{false};
  int waiter = -1;
  rt.run([&] {
    waiter = Runtime::current_worker();
    Runtime::spawn([&started] {
      started.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    });
    // The second spawn pushes the first child out of the one-entry spawn
    // cache onto the deque, where the other worker can steal it.
    Runtime::spawn([] {});
    while (!started.load()) std::this_thread::yield();
    // No explicit sync: the implicit one waits out the stolen sleeper.
  });
  ASSERT_GE(waiter, 0);
  EXPECT_EQ(rt.stats().per_worker[static_cast<std::size_t>(waiter)]
                .idle_backoff_sleeps,
            0u);
}

TEST(Runtime, DeepSerialChainDoesNotDeadlock) {
  // Chain of single-child spawns crossing the tier boundary repeatedly.
  Runtime rt(make_options(SchedulerKind::kCab, 2, 2, 4));
  std::atomic<int> depth_reached{0};
  std::function<void(int)> chain = [&](int d) {
    depth_reached.store(d);
    if (d == 64) return;
    Runtime::spawn([&chain, d] { chain(d + 1); });
    Runtime::sync();
  };
  rt.run([&] { chain(0); });
  EXPECT_EQ(depth_reached.load(), 64);
}

TEST(Runtime, ManyFlatChildren) {
  // Flat generation scheme (Section IV-D): one task spawning 500 children.
  for (auto kind : {SchedulerKind::kCab, SchedulerKind::kRandomStealing,
                    SchedulerKind::kTaskSharing}) {
    Runtime rt(make_options(kind, 2, 2, kind == SchedulerKind::kCab ? 2 : 0));
    std::atomic<int> ran{0};
    rt.run([&] {
      for (int i = 0; i < 500; ++i) Runtime::spawn([&] { ran.fetch_add(1); });
      Runtime::sync();
    });
    EXPECT_EQ(ran.load(), 500) << to_string(kind);
  }
}

TEST(SpawnValueApi, FibWithTypedResults) {
  Runtime rt(make_options(SchedulerKind::kCab, 2, 2, 2));
  std::function<long(int)> fib = [&](int n) -> long {
    if (n < 2) return n;
    auto left = spawn_value([&fib, n] { return fib(n - 1); });
    auto right = spawn_value([&fib, n] { return fib(n - 2); });
    Runtime::sync();
    return left.get() + right.get();
  };
  long result = 0;
  rt.run([&] { result = fib(15); });
  EXPECT_EQ(result, fib_serial(15));
}

TEST(SpawnValueApi, ReadyAfterSync) {
  Runtime rt(make_options(SchedulerKind::kRandomStealing, 2, 2, 0));
  bool ready_after = false;
  rt.run([&] {
    auto v = spawn_value([] { return std::string("computed"); });
    Runtime::sync();
    ready_after = v.ready() && v.get() == "computed";
  });
  EXPECT_TRUE(ready_after);
}

TEST(SpawnValueApi, MixesWithPlainSpawns) {
  Runtime rt(make_options(SchedulerKind::kCab, 2, 2, 1));
  std::atomic<int> side{0};
  int total = 0;
  rt.run([&] {
    auto a = spawn_value([] { return 40; });
    Runtime::spawn([&side] { side.fetch_add(1); });
    auto b = spawn_value([] { return 2; });
    Runtime::sync();
    total = a.get() + b.get();
  });
  EXPECT_EQ(total, 42);
  EXPECT_EQ(side.load(), 1);
}

TEST(Runtime, TaskExceptionPropagatesToRun) {
  Runtime rt(make_options(SchedulerKind::kCab, 2, 2, 2));
  EXPECT_THROW(
      rt.run([] { throw std::runtime_error("task failed"); }),
      std::runtime_error);
  // The runtime survives: the next run works normally.
  long result = 0;
  rt.run([&] { fib_task(10, &result); });
  EXPECT_EQ(result, fib_serial(10));
}

TEST(Runtime, ExceptionInDeepChildPropagates) {
  Runtime rt(make_options(SchedulerKind::kRandomStealing, 2, 2, 0));
  std::atomic<int> siblings_ran{0};
  bool caught = false;
  try {
    rt.run([&] {
      for (int i = 0; i < 16; ++i) {
        Runtime::spawn([&, i] {
          if (i == 7) throw std::logic_error("child 7");
          siblings_ran.fetch_add(1);
        });
      }
      Runtime::sync();
    });
  } catch (const std::logic_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "child 7");
  }
  EXPECT_TRUE(caught);
  // The DAG drained: every non-throwing sibling still executed.
  EXPECT_EQ(siblings_ran.load(), 15);
}

TEST(Runtime, TwoRuntimesCoexist) {
  // Two independent schedulers in one process (e.g. a library user and a
  // test harness): runs must not interfere.
  Runtime a(make_options(SchedulerKind::kCab, 2, 2, 2));
  Runtime b(make_options(SchedulerKind::kRandomStealing, 1, 2, 0));
  long ra = 0, rb = 0;
  a.run([&] { fib_task(12, &ra); });
  b.run([&] { fib_task(13, &rb); });
  a.run([&] { fib_task(10, &ra); });
  EXPECT_EQ(ra, fib_serial(10));
  EXPECT_EQ(rb, fib_serial(13));
}

TEST(RuntimeStats, SummaryMentionsKeyCounters) {
  Runtime rt(make_options(SchedulerKind::kCab, 2, 2, 2));
  long out = 0;
  rt.run([&] { fib_task(10, &out); });
  std::string s = rt.stats().summary();
  EXPECT_NE(s.find("tasks="), std::string::npos);
  EXPECT_NE(s.find("spawns"), std::string::npos);
}

TEST(RunOn, SubsetPartitionComputesCorrectly) {
  Runtime rt(make_options(SchedulerKind::kCab, 4, 2, 2));
  long out = 0;
  rt.run_on({1, 2}, /*boundary_level=*/1, [&] { fib_task(14, &out); });
  EXPECT_EQ(out, fib_serial(14));
  // Single-squad partition: degenerate CAB (BL forced 0) still works.
  rt.run_on({3}, /*boundary_level=*/2, [&] { fib_task(10, &out); });
  EXPECT_EQ(out, fib_serial(10));
  // The whole machine still works after partitioned epochs.
  rt.run([&] { fib_task(12, &out); });
  EXPECT_EQ(out, fib_serial(12));
}

TEST(RunOn, ConcurrentDisjointPartitionsConserveTasks) {
  // Two epochs on disjoint halves of the machine at the same time, from
  // two submitter threads. Results must be right and the scheduler-level
  // task accounting must balance: every executed task is one of the
  // epoch roots or was spawned exactly once — no lost or doubled work.
  Runtime rt(make_options(SchedulerKind::kCab, 4, 2, 1));
  constexpr int kEpochs = 6;  // 3 rounds per half
  long lo[3] = {0, 0, 0}, hi[3] = {0, 0, 0};
  std::thread left([&] {
    for (long& out : lo) rt.run_on({0, 1}, 1, [&] { fib_task(13, &out); });
  });
  std::thread right([&] {
    for (long& out : hi) rt.run_on({2, 3}, 1, [&] { fib_task(15, &out); });
  });
  left.join();
  right.join();
  for (long v : lo) EXPECT_EQ(v, fib_serial(13));
  for (long v : hi) EXPECT_EQ(v, fib_serial(15));
  const WorkerStats t = rt.stats().total;
  EXPECT_EQ(t.tasks_executed, t.spawns_intra + t.spawns_inter + kEpochs);
}

TEST(RunOn, RethrowsJobException) {
  Runtime rt(make_options(SchedulerKind::kCab, 2, 2, 1));
  EXPECT_THROW(
      rt.run_on({0}, 0, [] { throw std::runtime_error("partition boom"); }),
      std::runtime_error);
  // The partition drained; the runtime is reusable.
  long out = 0;
  rt.run_on({0}, 0, [&] { fib_task(10, &out); });
  EXPECT_EQ(out, fib_serial(10));
}

TEST(RunOnDeathTest, RejectsBadSquadSets) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Runtime rt(make_options(SchedulerKind::kCab, 2, 2, 1));
  EXPECT_DEATH(rt.run_on({}, 0, [] {}), "empty squad set");
  EXPECT_DEATH(rt.run_on({2}, 0, [] {}), "out of range");
  EXPECT_DEATH(rt.run_on({0, 0}, 0, [] {}), "duplicate squad id");
}

// The observability contract — reports only between epochs — is enforced,
// not just documented: reading stats/metrics mid-epoch would race the
// workers' unsynchronized counters and return garbage silently.
TEST(RuntimeContractDeathTest, StatsDuringEpochAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Runtime rt(make_options(SchedulerKind::kCab, 2, 2, 1));
  EXPECT_DEATH(rt.run([&] { (void)rt.stats(); }),
               "while an epoch is running");
}

TEST(RuntimeContractDeathTest, MetricsSnapshotDuringEpochAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Runtime rt(make_options(SchedulerKind::kCab, 2, 2, 1));
  EXPECT_DEATH(rt.run([&] { (void)rt.metrics_snapshot(); }),
               "while an epoch is running");
}

}  // namespace
}  // namespace cab::runtime
