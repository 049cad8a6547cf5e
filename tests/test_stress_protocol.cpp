// Sanitizer-backed stress suite for Algorithm I/II (ctest label: stress).
//
// These tests hammer the bi-tier protocol — deep nesting, all three
// SchedulerKinds, oversubscription, forced inter spawns, repeated reuse —
// with assertions kept to cheap global invariants. Their real value is
// under -DCAB_SANITIZE=thread (TSan) or address (ASan): every steal,
// busy_state transition and timeline append happens here thousands of
// times, so a protocol data race or lifetime bug trips the sanitizer.
// Workloads are sized to stay fast even at TSan's ~10x slowdown.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "deque/chase_lev_deque.hpp"
#include "runtime/runtime.hpp"
#include "svc/service.hpp"

namespace cab::runtime {
namespace {

Options stress_options(SchedulerKind kind, int sockets, int cores, int bl) {
  Options o;
  o.topo = hw::Topology::synthetic(sockets, cores, 1ull << 20);
  o.kind = kind;
  o.boundary_level = bl;
  o.seed = 99;
  return o;
}

void spawn_tree(int depth, std::atomic<int>* leaves) {
  if (depth == 0) {
    leaves->fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Runtime::spawn([depth, leaves] { spawn_tree(depth - 1, leaves); });
  Runtime::spawn([depth, leaves] { spawn_tree(depth - 1, leaves); });
  Runtime::sync();
}

TEST(StressProtocol, DeepNestedSpawnChain) {
  // A 400-deep single-spawn chain: every level suspends at a sync and
  // resumes, exercising the busy-state release and the help-first sync
  // nesting at maximum depth (the level counter crosses BL once but the
  // inter machinery stays live the whole way down).
  Runtime rt(stress_options(SchedulerKind::kCab, 2, 2, 3));
  std::atomic<int> reached{0};
  std::function<void(int)> chain = [&](int depth) {
    if (depth == 0) {
      reached.fetch_add(1);
      return;
    }
    Runtime::spawn([&chain, depth] { chain(depth - 1); });
    Runtime::sync();
  };
  rt.run([&] { chain(400); });
  EXPECT_EQ(reached.load(), 1);
  EXPECT_EQ(rt.stats().total.tasks_executed, 401u);
}

TEST(StressProtocol, AllSchedulerKindsRepeatedTrees) {
  for (SchedulerKind kind :
       {SchedulerKind::kCab, SchedulerKind::kRandomStealing,
        SchedulerKind::kTaskSharing}) {
    const int bl = kind == SchedulerKind::kCab ? 2 : 0;
    Runtime rt(stress_options(kind, 2, 2, bl));
    for (int run = 0; run < 3; ++run) {
      std::atomic<int> leaves{0};
      rt.run([&] { spawn_tree(9, &leaves); });
      EXPECT_EQ(leaves.load(), 512) << to_string(kind) << " run " << run;
    }
    // 3 runs x (1 root + 2^10-2 spawned) tasks each.
    EXPECT_EQ(rt.stats().total.tasks_executed, 3u * 1023u) << to_string(kind);
  }
}

TEST(StressProtocol, OversubscribedWorkers) {
  // 16 virtual workers on however few physical cores the host has: the
  // preempted-victim and descheduled-thief interleavings the backoff
  // logic exists for. Tracing is on so timeline appends run under the
  // sanitizer too (single-writer discipline is a claim TSan can check).
  Options o = stress_options(SchedulerKind::kCab, 4, 4, 2);
  o.trace = true;
  Runtime rt(o);
  for (int run = 0; run < 2; ++run) {
    std::atomic<int> leaves{0};
    rt.run([&] { spawn_tree(10, &leaves); });
    EXPECT_EQ(leaves.load(), 1024);
  }
  SchedulerStats s = rt.stats();
  EXPECT_EQ(s.total.tasks_executed, 2u * 2047u);
  WorkerStats sum;
  for (const WorkerStats& w : s.per_worker) sum += w;
  EXPECT_EQ(sum.tasks_executed, s.total.tasks_executed);
}

TEST(StressProtocol, ForcedInterSpawnsAtEveryLevel) {
  // spawn_inter from deep intra levels forces traffic through the
  // inter pools and busy_state from places Algorithm II never would,
  // stressing acquire/release pairing on all squads.
  Runtime rt(stress_options(SchedulerKind::kCab, 2, 2, 1));
  std::atomic<int> ran{0};
  std::function<void(int)> tree = [&](int depth) {
    if (depth == 0) {
      ran.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Runtime::spawn([&tree, depth] { tree(depth - 1); });
    Runtime::spawn_inter([&tree, depth] { tree(depth - 1); });
    Runtime::sync();
  };
  rt.run([&] { tree(8); });
  EXPECT_EQ(ran.load(), 256);
  EXPECT_GT(rt.stats().total.spawns_inter, 0u);
}

TEST(StressProtocol, ParallelForAllKinds) {
  for (SchedulerKind kind :
       {SchedulerKind::kCab, SchedulerKind::kRandomStealing,
        SchedulerKind::kTaskSharing}) {
    Runtime rt(stress_options(kind, 2, 2, kind == SchedulerKind::kCab ? 2 : 0));
    std::atomic<std::int64_t> sum{0};
    rt.run([&] {
      parallel_for(0, 20000, 7, [&](std::int64_t lo, std::int64_t hi) {
        std::int64_t local = 0;
        for (std::int64_t i = lo; i < hi; ++i) local += i;
        sum.fetch_add(local, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(sum.load(), 20000ll * 19999 / 2) << to_string(kind);
  }
}

TEST(StressProtocol, ExplicitSyncsMidBody) {
  // Two spawn/sync rounds per task: the second round's children reuse a
  // frame whose join (spawned == completed) already closed once — the
  // join counter and busy_state must survive re-arming.
  Runtime rt(stress_options(SchedulerKind::kCab, 2, 2, 2));
  std::atomic<int> ran{0};
  std::function<void(int)> phases = [&](int depth) {
    if (depth == 0) {
      ran.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Runtime::spawn([&phases, depth] { phases(depth - 1); });
    Runtime::sync();
    Runtime::spawn([&phases, depth] { phases(depth - 1); });
    Runtime::sync();
  };
  rt.run([&] { phases(7); });
  EXPECT_EQ(ran.load(), 128);
}

TEST(StressProtocol, AdaptiveRetuningAcrossEpochs) {
  // Adaptive BL retuning under oversubscription: the between-epoch
  // retune reads every worker's stats and hw slots and rewrites tier.bl
  // while threads are parked — exactly the hand-off TSan must agree is
  // race-free. Eight epochs give the hill-climb room to actually move BL
  // (not just hold), so workers observe several distinct tier splits.
  Options o = stress_options(SchedulerKind::kCab, 4, 4, 2);
  ASSERT_TRUE(adapt::parse_policy("adaptive", o.adapt));
  o.adapt.input_bytes_hint = 8ull << 20;
  Runtime rt(o);
  for (int ep = 0; ep < 8; ++ep) {
    std::atomic<int> leaves{0};
    rt.run([&] { spawn_tree(10, &leaves); });
    EXPECT_EQ(leaves.load(), 1024) << "epoch " << ep;
    EXPECT_GE(rt.current_boundary_level(), 0);
  }
  const adapt::Report r = rt.adapt_report();
  EXPECT_EQ(r.decisions.size(), 8u);
  for (std::size_t i = 1; i < r.decisions.size(); ++i) {
    EXPECT_EQ(r.decisions[i].prev_bl, r.decisions[i - 1].next_bl);
  }
}

TEST(StressProtocol, ExceptionsUnderLoad) {
  // A task body throwing mid-DAG must not wedge the run: the DAG drains,
  // the first exception resurfaces from run(), and the runtime stays
  // usable for the next run.
  Runtime rt(stress_options(SchedulerKind::kCab, 2, 2, 2));
  std::atomic<int> leaves{0};
  EXPECT_THROW(
      rt.run([&] {
        spawn_tree(6, &leaves);
        throw std::runtime_error("boom");
      }),
      std::runtime_error);
  EXPECT_EQ(leaves.load(), 64);
  std::atomic<int> after{0};
  rt.run([&] { spawn_tree(5, &after); });
  EXPECT_EQ(after.load(), 32);
}

TEST(StressProtocol, CrossSocketFrameRecyclingHammer) {
  // Frame-recycling race surface: every cross-worker completion pushes
  // the frame through its home pool's MPSC remote-free channel, and the
  // home worker concurrently drains it while spawning into the same
  // frames. Under TSan this is the use-after-free / double-recycle check
  // for the remote-free channel: a frame reused while its completer is
  // still writing it, or pushed twice, shows up as a race on the frame's
  // non-atomic fields (body, parent, pool_next).
  Options o = stress_options(SchedulerKind::kCab, 4, 2, 2);
  Runtime rt(o);
  std::atomic<int> leaves{0};
  for (int epoch = 0; epoch < 6; ++epoch) {
    rt.run([&] { spawn_tree(10, &leaves); });
  }
  EXPECT_EQ(leaves.load(), 6 * 1024);
  const SchedulerStats s = rt.stats();
  // The inter tier forces cross-squad completions, so the channel must
  // actually have carried traffic for this test to mean anything.
  EXPECT_GT(s.total.alloc_remote_frees, 0u);
  EXPECT_GT(s.total.alloc_freelist_hits + s.total.alloc_remote_drains, 0u);
}

TEST(StressProtocol, RemoteFreeChannelDirectHammer) {
  // The channel in isolation, no scheduler in the way: one owner acquires
  // and hands frames to remote freers over a mutex'd queue; the freers
  // push_remote concurrently while the owner keeps acquiring (and hence
  // draining). Conservation: every handed-out frame comes back, the pool
  // never carves more than the in-flight bound requires, and every
  // acquire is served by exactly one of hit/drain/refill.
  constexpr int kFreers = 3;
  constexpr int kRounds = 20000;
  constexpr std::size_t kInFlightCap = 128;
  FramePool pool;
  WorkerStats stats;
  std::mutex mu;
  std::vector<TaskFrame*> handoff;
  std::atomic<bool> done{false};
  std::atomic<int> freed{0};
  std::vector<std::thread> freers;
  freers.reserve(kFreers);
  for (int f = 0; f < kFreers; ++f) {
    freers.emplace_back([&] {
      for (;;) {
        TaskFrame* t = nullptr;
        {
          std::lock_guard<std::mutex> lk(mu);
          if (!handoff.empty()) {
            t = handoff.back();
            handoff.pop_back();
          }
        }
        if (t != nullptr) {
          pool.push_remote(t);
          freed.fetch_add(1, std::memory_order_relaxed);
        } else if (done.load(std::memory_order_acquire)) {
          return;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int i = 0; i < kRounds; ++i) {
    TaskFrame* t = pool.acquire(stats);
    for (;;) {  // enforce the in-flight cap so the footprint bound is real
      {
        std::lock_guard<std::mutex> lk(mu);
        if (handoff.size() < kInFlightCap) {
          handoff.push_back(t);
          break;
        }
      }
      std::this_thread::yield();
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& th : freers) th.join();
  EXPECT_EQ(freed.load(), kRounds);
  EXPECT_EQ(stats.alloc_freelist_hits + stats.alloc_remote_drains +
                stats.alloc_slab_refills,
            static_cast<std::uint64_t>(kRounds));
  // The pool's footprint is bounded by the in-flight peak, not the total
  // round count: 20k acquires must not have carved anywhere near 20k/64
  // slabs. Generous bound: in-flight cap plus freers mid-hand-off, doubled.
  EXPECT_LE(pool.slab_count() * FramePool::kFramesPerSlab,
            4 * kInFlightCap + 2 * FramePool::kFramesPerSlab);
}

TEST(StressProtocol, StealBatchDirectHammer) {
  // The claim-bit batch protocol in isolation: many thieves batch-steal
  // from one hot owner that keeps pushing and popping the same deque, so
  // claims constantly race the owner's bottom traffic (including the
  // pop-side claim-backoff spin) and each other. Under TSan this is the
  // data-race check for steal_batch's fence/claim dance; the functional
  // oracle is conservation — every token consumed exactly once, none
  // left behind.
  constexpr int kThieves = 4;
  constexpr std::intptr_t kItems = 50000;
  constexpr std::size_t kBatchMax = 16;
  deque::ChaseLevDeque<int*> d(8);
  std::vector<int> tokens(kItems);
  std::vector<std::atomic<int>> taken(kItems);
  std::atomic<bool> done{false};
  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int f = 0; f < kThieves; ++f) {
    thieves.emplace_back([&] {
      int* buf[kBatchMax];
      for (;;) {
        const std::size_t k = d.steal_batch(buf, kBatchMax);
        for (std::size_t i = 0; i < k; ++i) {
          taken[buf[i] - tokens.data()].fetch_add(1,
                                                  std::memory_order_relaxed);
        }
        if (k == 0) {
          if (done.load(std::memory_order_acquire)) return;
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::intptr_t i = 0; i < kItems; ++i) {
    d.push_bottom(&tokens[i]);
    if (i % 5 == 4) {  // owner consumes too: exercises claim backoff
      if (int* p = d.pop_bottom())
        taken[p - tokens.data()].fetch_add(1, std::memory_order_relaxed);
    }
  }
  while (int* p = d.pop_bottom())
    taken[p - tokens.data()].fetch_add(1, std::memory_order_relaxed);
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();
  std::int64_t consumed = 0;
  for (std::intptr_t i = 0; i < kItems; ++i) {
    const int n = taken[i].load(std::memory_order_relaxed);
    ASSERT_LE(n, 1) << "token " << i << " taken twice";
    consumed += n;
  }
  EXPECT_EQ(consumed, kItems);  // and none lost
}

TEST(StressProtocol, HotVictimWeightedStealHammer) {
  // One eight-worker squad, repeated 4096-leaf trees: the root worker is
  // the hot victim every other worker converges on through the occupancy
  // mask, so weighted picks, batch claims, surplus re-pushes, and hearsay
  // clears all run hot under the sanitizer. The oracles are the PR-5
  // style counter conservations: per-worker stats sum to the totals, and
  // the batch/mask counters respect their structural identities.
  constexpr int kEpochs = 3;
  constexpr int kLeaves = 1500;
  for (StealPolicy pol : {StealPolicy::kWeighted, StealPolicy::kWeightedHalf}) {
    // BL=1: only the root's direct child goes inter, so a single worker
    // owns the whole intra fan-out and the other seven must steal from
    // it. Leaves carry enough work that each epoch spans several OS
    // timeslices — on an oversubscribed (even single-CPU) host the
    // thieves only run when the spawner is preempted, and the hot deque
    // must still be populated when they do.
    Options o = stress_options(SchedulerKind::kCab, 1, 8, 1);
    o.steal = pol;
    Runtime rt(o);
    std::atomic<int> leaves{0};
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      rt.run([&] {
        Runtime::spawn([&] {  // the one hot victim, below BL
          for (int i = 0; i < kLeaves; ++i) {
            Runtime::spawn([&] {
              for (volatile int j = 0; j < 20000;) {
                j = j + 1;
              }
              leaves.fetch_add(1, std::memory_order_relaxed);
            });
          }
          Runtime::sync();
        });
        Runtime::sync();
      });
    }
    EXPECT_EQ(leaves.load(), kEpochs * kLeaves) << to_string(pol);
    const SchedulerStats s = rt.stats();
    WorkerStats sum;
    for (const WorkerStats& w : s.per_worker) sum += w;
    EXPECT_EQ(sum.tasks_executed, s.total.tasks_executed) << to_string(pol);
    EXPECT_EQ(sum.tasks_executed,
              static_cast<std::uint64_t>(kEpochs) * (kLeaves + 2))
        << to_string(pol);
    EXPECT_GT(sum.intra_steals, 0u) << to_string(pol);
    EXPECT_GT(sum.weighted_picks, 0u) << to_string(pol);
    // Every mask clear transition (bit 1 -> 0) needs a prior set
    // transition; bits may end the run set, so sets >= clears.
    EXPECT_GE(sum.mask_sets, sum.mask_clears_own + sum.mask_clears_hearsay)
        << to_string(pol);
    if (pol == StealPolicy::kWeightedHalf) {
      // Under kCab every in-squad steal goes through steal_intra_from, so
      // successful steals and batches are the same events; batch sizes
      // are within [1, kStealBatchMax].
      EXPECT_EQ(sum.steal_batches, sum.intra_steals) << to_string(pol);
      EXPECT_GE(sum.steal_batch_tasks, sum.steal_batches) << to_string(pol);
      EXPECT_LE(sum.steal_batch_tasks,
                sum.steal_batches * Worker::kStealBatchMax)
          << to_string(pol);
    } else {
      EXPECT_EQ(sum.steal_batches, 0u) << to_string(pol);
      EXPECT_EQ(sum.steal_batch_tasks, 0u) << to_string(pol);
    }
  }
}

TEST(StressProtocol, HotVictimLazyPromotionHammer) {
  // The lazy-promotion handshake under fire (DESIGN.md §5h): one
  // below-BL worker owns repeated 400-wide lazy fan-outs (under the 512
  // LazyStack slots, so every child is a stack-slot frame) while seven
  // squad mates converge on it through the occupancy mask — every
  // in-squad steal is a promotion, single or batched, and the syncs
  // between bursts recycle the slots through the kPromoting->kFreed
  // hand-off that TSan is here to audit. Oracles: leaf and execution
  // conservation, promotions present and bounded by lazy spawns.
  constexpr int kEpochs = 2;
  constexpr int kBursts = 4;
  constexpr int kBurst = 400;
  for (StealPolicy pol : {StealPolicy::kWeighted, StealPolicy::kWeightedHalf}) {
    Options o = stress_options(SchedulerKind::kCab, 1, 8, 1);
    o.steal = pol;
    o.lazy_spawn = true;
    Runtime rt(o);
    std::atomic<int> leaves{0};
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      rt.run([&] {
        Runtime::spawn([&] {  // the hot victim, below BL
          for (int b = 0; b < kBursts; ++b) {
            for (int i = 0; i < kBurst; ++i) {
              Runtime::spawn([&] {
                for (volatile int j = 0; j < 20000;) {
                  j = j + 1;
                }
                leaves.fetch_add(1, std::memory_order_relaxed);
              });
            }
            Runtime::sync();  // joins the burst; slots become reclaimable
          }
        });
        Runtime::sync();
      });
    }
    EXPECT_EQ(leaves.load(), kEpochs * kBursts * kBurst) << to_string(pol);
    const SchedulerStats s = rt.stats();
    WorkerStats sum;
    for (const WorkerStats& w : s.per_worker) sum += w;
    EXPECT_EQ(sum.tasks_executed, s.total.tasks_executed) << to_string(pol);
    EXPECT_EQ(sum.tasks_executed,
              static_cast<std::uint64_t>(kEpochs) * (kBursts * kBurst + 2))
        << to_string(pol);
    EXPECT_GT(sum.alloc_lazy_spawns, 0u) << to_string(pol);
    // Every child in this topology is lazy, so the first successful
    // in-squad steal of each epoch promotes; the existing hot-victim
    // hammer already shows steals are guaranteed under this shape.
    EXPECT_GT(sum.intra_steals, 0u) << to_string(pol);
    EXPECT_GT(sum.alloc_promotions, 0u) << to_string(pol);
    EXPECT_LE(sum.alloc_promotions, sum.alloc_lazy_spawns) << to_string(pol);
  }
}

TEST(StressProtocol, ConcurrentRunOnPartitionsHammer) {
  // Federated epochs: four submitter threads repeatedly run disjoint
  // single/double-squad partitions of one runtime — every squad
  // bind/unbind, partition-confined steal, and epoch wake path races
  // here under the sanitizer.
  Runtime rt(stress_options(SchedulerKind::kCab, 4, 2, 1));
  constexpr int kRounds = 40;
  constexpr int kDepth = 5;
  std::atomic<int> leaves{0};
  std::vector<std::thread> submitters;
  const std::vector<std::vector<int>> partitions = {{0}, {1}, {2, 3}};
  for (const std::vector<int>& p : partitions) {
    submitters.emplace_back([&, p] {
      for (int r = 0; r < kRounds; ++r) {
        rt.run_on(p, 1, [&] { spawn_tree(kDepth, &leaves); });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(leaves.load(),
            static_cast<int>(partitions.size()) * kRounds * (1 << kDepth));
}

TEST(StressService, ManyConcurrentSubmitters) {
  // The ISSUE's TSan acceptance case: many threads submitting
  // DAG-spawning jobs against one service while executors dispatch onto
  // disjoint partitions. Conservation is asserted at the end; the data
  // races (admission queue, allocator, ticket state, epoch binding) are
  // the sanitizer's job.
  svc::ServiceOptions o;
  o.runtime.topo = hw::Topology::synthetic(4, 2, 1ull << 20);
  o.runtime.seed = 99;
  o.queue_capacity = 32;
  o.backpressure = svc::Backpressure::kBlock;  // lossless under load
  o.promote_cooldown_ns = 100'000;             // exercise promotions
  svc::JobService service(o);
  constexpr int kSubmitters = 8;
  constexpr int kJobsEach = 25;
  constexpr int kDepth = 5;  // 2^5 leaves per job
  std::atomic<long> leaves{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      std::vector<svc::JobTicket> mine;
      for (int j = 0; j < kJobsEach; ++j) {
        svc::JobDesc d;
        d.squads = 1 + (j % 3);
        d.tier = (s + j) % 4;
        d.body = [&] {
          std::atomic<int> local{0};
          spawn_tree(kDepth, &local);
          leaves.fetch_add(local.load(), std::memory_order_relaxed);
        };
        mine.push_back(service.submit(std::move(d)));
      }
      for (const svc::JobTicket& t : mine) {
        EXPECT_EQ(t.wait(), svc::JobState::kDone);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  service.drain();
  constexpr long kJobs = kSubmitters * kJobsEach;
  EXPECT_EQ(leaves.load(), kJobs * (1 << kDepth));
  const svc::ServiceCounters c = service.counters();
  EXPECT_EQ(c.admitted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(c.completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(c.rejected, 0u);
  EXPECT_EQ(c.failed, 0u);
  // Scheduler-level conservation across every partitioned epoch.
  const WorkerStats t = service.rt().stats().total;
  EXPECT_EQ(t.tasks_executed, t.spawns_intra + t.spawns_inter + kJobs);
}

TEST(StressService, RejectChurnUnderOverload) {
  // Tiny queue + reject policy + a submit storm: admission control
  // races dispatch continuously; counters must still balance exactly.
  svc::ServiceOptions o;
  o.runtime.topo = hw::Topology::synthetic(2, 2, 1ull << 20);
  o.runtime.seed = 7;
  o.queue_capacity = 2;
  o.backpressure = svc::Backpressure::kReject;
  svc::JobService service(o);
  constexpr int kSubmitters = 6;
  constexpr int kJobsEach = 60;
  std::atomic<long> ran{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int j = 0; j < kJobsEach; ++j) {
        svc::JobDesc d;
        d.body = [&] { ran.fetch_add(1, std::memory_order_relaxed); };
        (void)service.submit(std::move(d));
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  service.drain();
  const svc::ServiceCounters c = service.counters();
  EXPECT_EQ(c.submitted, static_cast<std::uint64_t>(kSubmitters * kJobsEach));
  EXPECT_EQ(c.admitted + c.rejected, c.submitted);
  EXPECT_EQ(c.completed, c.admitted);  // no cancels here: all admitted ran
  EXPECT_EQ(ran.load(), static_cast<long>(c.completed));
}

}  // namespace
}  // namespace cab::runtime
