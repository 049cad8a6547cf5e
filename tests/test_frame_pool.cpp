// Frame recycling and TaskBody coverage (DESIGN.md "Allocation
// strategy"): inline/boxed callable storage, move-only captures,
// capture destructor accounting, pool conservation and shutdown
// draining, and — the acceptance property — a spawn path that performs
// zero heap allocations at steady state, asserted two independent ways:
// by replacing global operator new with a counting shim in this binary,
// and by the alloc.* counters (slab refills flat while spawns grow).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "hw/topology.hpp"
#include "runtime/frame_pool.hpp"
#include "runtime/runtime.hpp"
#include "runtime/task_body.hpp"

namespace {

using namespace cab;
using runtime::FramePool;
using runtime::Options;
using runtime::Runtime;
using runtime::SchedulerKind;
using runtime::TaskBody;
using runtime::TaskFrame;
using runtime::WorkerStats;

// ---------------------------------------------------------------------------
// Counting global operator new/delete: every heap allocation made by any
// thread of this test binary ticks g_news. The steady-state tests measure
// deltas around rt.run() only — gtest machinery stays outside the window.
// ---------------------------------------------------------------------------

std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_deletes{0};

}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n, std::align_val_t al) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (n + static_cast<std::size_t>(al) - 1) &
                                       ~(static_cast<std::size_t>(al) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}

// Every overload counts and frees directly (no forwarding), and is kept
// out of line: when GCC inlines a shim into a call site it pairs the
// visible std::free with the replaced ::operator new and raises
// -Wmismatched-new-delete, even though that operator new is malloc-based
// — the new/delete pairing it can't see through is the correct one.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  if (p != nullptr) g_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  if (p != nullptr) g_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

__attribute__((noinline)) void operator delete(void* p, std::align_val_t) noexcept {
  if (p != nullptr) g_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

__attribute__((noinline)) void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  if (p != nullptr) g_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

namespace {

std::uint64_t news_now() { return g_news.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// TaskBody
// ---------------------------------------------------------------------------

/// Capture with instance accounting, sized to order.
template <std::size_t Pad>
struct Probe {
  static std::atomic<int> live;
  std::atomic<int>* fired;
  unsigned char pad[Pad];

  explicit Probe(std::atomic<int>* f) : fired(f) { ++live; }
  Probe(const Probe& o) : fired(o.fired) { ++live; }
  Probe(Probe&& o) noexcept : fired(o.fired) { ++live; }
  ~Probe() { --live; }
  void operator()() const { fired->fetch_add(1, std::memory_order_relaxed); }
};
template <std::size_t Pad>
std::atomic<int> Probe<Pad>::live{0};

using SmallProbe = Probe<8>;    // well under kInlineSize
using LargeProbe = Probe<256>;  // forces the boxed fallback

TEST(TaskBody, InlineEmplaceAllocatesNothing) {
  static_assert(TaskBody::stores_inline<SmallProbe>());
  std::atomic<int> fired{0};
  TaskBody body;
  const std::uint64_t n0 = news_now();
  body.emplace(SmallProbe{&fired});
  const std::uint64_t n1 = news_now();
  EXPECT_EQ(n1 - n0, 0u) << "inline capture must not touch the heap";
  ASSERT_TRUE(static_cast<bool>(body));
  body();
  EXPECT_EQ(fired.load(), 1);
  body.reset();
  EXPECT_FALSE(static_cast<bool>(body));
  EXPECT_EQ(SmallProbe::live.load(), 0);
}

TEST(TaskBody, OversizedCaptureFallsBackToOneBox) {
  static_assert(!TaskBody::stores_inline<LargeProbe>());
  std::atomic<int> fired{0};
  {
    TaskBody body;
    body.emplace(LargeProbe{&fired});
    EXPECT_GE(LargeProbe::live.load(), 1);
    body();
    EXPECT_EQ(fired.load(), 1);
  }  // ~TaskBody must destroy + free the box
  EXPECT_EQ(LargeProbe::live.load(), 0);
}

TEST(TaskBody, MoveOnlyCapture) {
  TaskBody body;
  int out = 0;
  auto p = std::make_unique<int>(41);
  body.emplace([q = std::move(p), &out] { out = *q + 1; });
  body();
  EXPECT_EQ(out, 42);
  body.reset();  // unique_ptr destroyed exactly once
  body.reset();  // idempotent on empty
}

TEST(TaskBody, ResetDestroysWithoutInvoking) {
  std::atomic<int> fired{0};
  {
    TaskBody inline_body;
    inline_body.emplace(SmallProbe{&fired});
    TaskBody boxed_body;
    boxed_body.emplace(LargeProbe{&fired});
    inline_body.reset();
    boxed_body.reset();
    EXPECT_EQ(SmallProbe::live.load(), 0);
    EXPECT_EQ(LargeProbe::live.load(), 0);
  }
  EXPECT_EQ(fired.load(), 0);
}

TEST(TaskBody, StdFunctionFitsInline) {
  // run() relays the user's root through a std::function; it must not be
  // the one capture that silently re-introduces a per-epoch box.
  static_assert(TaskBody::stores_inline<std::function<void()>>());
}

// ---------------------------------------------------------------------------
// TaskBody::relocate_from — the promotion copy-out (DESIGN.md §5h): a
// thief moves a stolen lazy frame's capture into a pooled frame.
// ---------------------------------------------------------------------------

TEST(TaskBody, RelocateTrivialInlineIsByteCopy) {
  int out = 0;
  int* dst_out = &out;
  TaskBody src;
  src.emplace([dst_out] { *dst_out = 17; });  // trivially copyable capture
  TaskBody dst;
  const std::uint64_t n0 = news_now();
  dst.relocate_from(src);
  EXPECT_EQ(news_now() - n0, 0u) << "relocation must not allocate";
  EXPECT_FALSE(static_cast<bool>(src)) << "source must be left empty";
  ASSERT_TRUE(static_cast<bool>(dst));
  dst();
  EXPECT_EQ(out, 17);
  dst.reset();
  src.reset();  // idempotent on the vacated source
}

TEST(TaskBody, RelocateMoveOnlyInlineDestroysSourceOnce) {
  std::atomic<int> fired{0};
  TaskBody src;
  src.emplace(SmallProbe{&fired});  // not trivially copyable: move path
  const int live0 = SmallProbe::live.load();
  TaskBody dst;
  dst.relocate_from(src);
  EXPECT_EQ(SmallProbe::live.load(), live0)
      << "relocation must move + destroy the source, net zero instances";
  EXPECT_FALSE(static_cast<bool>(src));
  dst();
  EXPECT_EQ(fired.load(), 1);
  dst.reset();
  EXPECT_EQ(SmallProbe::live.load(), 0);
}

TEST(TaskBody, RelocateBoxedMovesTheBox) {
  std::atomic<int> fired{0};
  TaskBody src;
  src.emplace(LargeProbe{&fired});
  const int live0 = LargeProbe::live.load();
  TaskBody dst;
  const std::uint64_t n0 = news_now();
  dst.relocate_from(src);  // the box pointer moves; no new box
  EXPECT_EQ(news_now() - n0, 0u) << "boxed relocation must not allocate";
  EXPECT_EQ(LargeProbe::live.load(), live0);
  EXPECT_FALSE(static_cast<bool>(src));
  dst();
  EXPECT_EQ(fired.load(), 1);
  dst.reset();
  EXPECT_EQ(LargeProbe::live.load(), 0) << "boxed capture leaked";
}

// ---------------------------------------------------------------------------
// FramePool
// ---------------------------------------------------------------------------

TEST(FramePool, CounterConservationAndReuse) {
  FramePool pool;
  WorkerStats stats;
  std::vector<TaskFrame*> held;
  const std::size_t kFrames = FramePool::kFramesPerSlab + 3;  // 2 slabs
  for (std::size_t i = 0; i < kFrames; ++i) held.push_back(pool.acquire(stats));
  EXPECT_EQ(pool.slab_count(), 2u);
  EXPECT_EQ(stats.alloc_slab_refills, 2u);
  // Exactly one counter ticks per acquire: hits + drains + refills == acquires.
  EXPECT_EQ(stats.alloc_freelist_hits + stats.alloc_remote_drains +
                stats.alloc_slab_refills,
            kFrames);
  for (TaskFrame* f : held) {
    EXPECT_EQ(f->home, &pool);
    pool.release_local(f);
  }
  // Recycled frames are reused, not re-carved.
  TaskFrame* again = pool.acquire(stats);
  EXPECT_EQ(again->home, &pool);
  EXPECT_EQ(pool.slab_count(), 2u);
  EXPECT_GE(stats.alloc_freelist_hits, 1u);
  pool.release_local(again);
}

TEST(FramePool, RemoteChannelDrainsOnAcquire) {
  FramePool pool;
  WorkerStats stats;
  // Hold every frame of the first slab so the freelist is empty.
  std::vector<TaskFrame*> held;
  for (std::size_t i = 0; i < FramePool::kFramesPerSlab; ++i) {
    held.push_back(pool.acquire(stats));
  }
  EXPECT_EQ(pool.slab_count(), 1u);
  TaskFrame* a = held.back();
  held.pop_back();
  TaskFrame* b = held.back();
  held.pop_back();
  // Remote-free two frames from another thread, as a thief would.
  std::thread thief([&] {
    pool.push_remote(a);
    pool.push_remote(b);
  });
  thief.join();
  EXPECT_FALSE(pool.remote_empty());
  // Freelist empty + remote pending: this acquire must drain, not carve.
  const std::uint64_t drains0 = stats.alloc_remote_drains;
  TaskFrame* c = pool.acquire(stats);
  EXPECT_EQ(stats.alloc_remote_drains, drains0 + 1);
  EXPECT_EQ(pool.slab_count(), 1u);
  EXPECT_TRUE(c == a || c == b);
  // The second drained frame is now a freelist hit.
  const std::uint64_t hits0 = stats.alloc_freelist_hits;
  TaskFrame* d = pool.acquire(stats);
  EXPECT_EQ(stats.alloc_freelist_hits, hits0 + 1);
  EXPECT_TRUE((d == a || d == b) && d != c);
  pool.release_local(c);
  pool.release_local(d);
  for (TaskFrame* f : held) pool.release_local(f);
}

TEST(FramePool, ShutdownWithRemoteFramesPending) {
  // Frames still parked in the remote channel at destruction are slab
  // memory — the pool must tear down cleanly without touching them
  // individually (ASan builds verify no leak).
  WorkerStats stats;
  auto pool = std::make_unique<FramePool>();
  TaskFrame* a = pool->acquire(stats);
  TaskFrame* b = pool->acquire(stats);
  std::thread remote_freer([&] {
    pool->push_remote(a);
    pool->push_remote(b);
  });
  remote_freer.join();
  pool.reset();  // destruction with a non-empty remote stack
}

// ---------------------------------------------------------------------------
// Runtime integration
// ---------------------------------------------------------------------------

Options quiet_options(int sockets, int cores, int bl) {
  Options o;
  o.topo = hw::Topology::synthetic(sockets, cores, 1ull << 20);
  o.kind = SchedulerKind::kCab;
  o.boundary_level = bl;
  o.seed = 7;
  return o;
}

TEST(FramePoolRuntime, MoveOnlySpawnCapture) {
  Runtime rt(quiet_options(1, 2, 0));
  std::atomic<int> out{0};
  rt.run([&] {
    auto p = std::make_unique<int>(99);
    Runtime::spawn([q = std::move(p), &out] {
      out.store(*q, std::memory_order_relaxed);
    });
    Runtime::sync();
  });
  EXPECT_EQ(out.load(), 99);
}

TEST(FramePoolRuntime, OversizedSpawnCaptureExecutes) {
  Runtime rt(quiet_options(1, 2, 0));
  std::atomic<int> fired{0};
  rt.run([&] {
    Runtime::spawn(LargeProbe{&fired});
    Runtime::sync();
  });
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(LargeProbe::live.load(), 0) << "boxed capture leaked";
}

TEST(FramePoolRuntime, CaptureDestructorsRunExactlyOnce) {
  std::atomic<int> fired{0};
  {
    Runtime rt(quiet_options(2, 2, 2));
    rt.run([&] {
      for (int i = 0; i < 64; ++i) Runtime::spawn(SmallProbe{&fired});
      Runtime::sync();
    });
    EXPECT_EQ(fired.load(), 64);
  }
  EXPECT_EQ(SmallProbe::live.load(), 0)
      << "a recycled frame kept (or double-destroyed) a capture";
}

TEST(FramePoolRuntime, FramePoolOffAblationStillCorrect) {
  Options o = quiet_options(2, 2, 2);
  o.frame_pool = false;
  Runtime rt(o);
  std::atomic<int> count{0};
  for (int e = 0; e < 3; ++e) {
    rt.run([&] {
      for (int i = 0; i < 128; ++i) {
        Runtime::spawn([&] { count.fetch_add(1, std::memory_order_relaxed); });
      }
      Runtime::sync();
    });
  }
  EXPECT_EQ(count.load(), 3 * 128);
  const runtime::SchedulerStats s = rt.stats();
  EXPECT_EQ(s.total.alloc_freelist_hits, 0u);
  EXPECT_EQ(s.total.alloc_slab_refills, 0u);
  EXPECT_EQ(s.total.alloc_remote_frees, 0u);
}

/// Root body for the steady-state tests: one flat fan-out, all frames
/// from one worker's pool, fully deterministic slab demand.
void flat_fanout(std::atomic<int>* leaves, int width) {
  for (int i = 0; i < width; ++i) {
    Runtime::spawn([leaves] { leaves->fetch_add(1, std::memory_order_relaxed); });
  }
  Runtime::sync();
}

TEST(FramePoolRuntime, SteadyStateSpawnPathAllocatesNothing) {
  // Single worker => fully deterministic: after the warm-up epoch the
  // deque ring has grown to fit the fan-out, the pool holds every frame,
  // and further epochs must perform literally zero heap allocations
  // anywhere in the process while run() executes.
  constexpr int kWidth = 2048;
  Options o = quiet_options(1, 1, 0);
  o.metrics = false;  // nothing registered, nothing flushed
  Runtime rt(o);
  std::atomic<int> leaves{0};
  for (int warm = 0; warm < 2; ++warm) {
    rt.run([&] { flat_fanout(&leaves, kWidth); });
  }
  leaves.store(0);
  const std::uint64_t n0 = news_now();
  for (int e = 0; e < 5; ++e) {
    rt.run([&] { flat_fanout(&leaves, kWidth); });
  }
  const std::uint64_t n1 = news_now();
  EXPECT_EQ(leaves.load(), 5 * kWidth);
  EXPECT_EQ(n1 - n0, 0u)
      << "steady-state spawn path performed heap allocations";
}

TEST(FramePoolRuntime, SlabRefillsFlatWhileSpawnsGrow) {
  // Multi-socket flavour of the acceptance property, asserted via the
  // alloc.* counters: a depth-10 spawn tree keeps < kFramesPerSlab frames
  // live per pool, so after warm-up every carved pool serves from its
  // freelist / remote channel and its alloc.slab_refills stays flat while
  // alloc spawns keep growing. Stated per pool (per writer slot): lazy
  // spawns carve a pool's first slab only at its first promotion, which
  // depends on the schedule, so a pool no steal has reached yet may carve
  // its first slab after warm-up. A pool that had carved may never carve
  // again.
  Runtime rt(quiet_options(2, 2, 2));
  std::atomic<int> leaves{0};
  auto tree = [&](int depth) {
    rt.run([&leaves, depth] {
      std::function<void(int)> rec = [&rec, &leaves](int d) {
        if (d == 0) {
          leaves.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        Runtime::spawn([&rec, d] { rec(d - 1); });
        Runtime::spawn([&rec, d] { rec(d - 1); });
        Runtime::sync();
      };
      rec(depth);
    });
  };
  for (int warm = 0; warm < 4; ++warm) tree(10);
  const auto warm_snap = rt.metrics_snapshot();
  const auto* refills0 = warm_snap.find("alloc.slab_refills");
  const auto* spawns0 = warm_snap.find("scheduler.spawns_intra");
  ASSERT_NE(refills0, nullptr);
  ASSERT_NE(spawns0, nullptr);
  const std::vector<std::int64_t> refills_before = refills0->per_writer;
  const std::int64_t spawns_before = spawns0->total;
  EXPECT_GT(refills0->total, 0) << "warm-up never carved a slab?";

  for (int e = 0; e < 6; ++e) tree(10);
  const auto snap = rt.metrics_snapshot();
  const auto& refills_after = snap.find("alloc.slab_refills")->per_writer;
  ASSERT_EQ(refills_after.size(), refills_before.size());
  for (std::size_t w = 0; w < refills_after.size(); ++w) {
    if (refills_before[w] == 0) continue;  // first carve still to come
    EXPECT_EQ(refills_after[w], refills_before[w])
        << "pool " << w << " carved again after warm-up: the spawn path "
        << "still allocates";
  }
  EXPECT_GT(snap.find("scheduler.spawns_intra")->total, spawns_before);
  EXPECT_GT(snap.find("alloc.freelist_hits")->total, 0);
  EXPECT_GT(snap.find("alloc.peak_live_frames")->total, 0);
}

// ---------------------------------------------------------------------------
// Lazy spawning (DESIGN.md §5h): stack-slot frames on the fast path,
// steal-time promotion into the thief's pool.
// ---------------------------------------------------------------------------

TEST(FramePoolRuntime, LazySpawnSteadyStateAllocatesNothing) {
  // The lazy path's acceptance property: with lazy spawning explicitly on
  // (the default), a single-worker spawn tree runs entirely on LazyStack
  // slots — after one warm-up epoch (deque ring + slot slab carved) the
  // process performs zero heap allocations during run(), and the
  // alloc.lazy_spawns counter proves the lazy path (not the eager pooled
  // one) is what ran.
  Options o = quiet_options(1, 1, 0);
  o.lazy_spawn = true;
  o.metrics = false;
  Runtime rt(o);
  std::atomic<int> leaves{0};
  auto tree = [&] {
    rt.run([&leaves] {
      std::function<void(int)> rec = [&rec, &leaves](int d) {
        if (d == 0) {
          leaves.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        Runtime::spawn([&rec, d] { rec(d - 1); });
        Runtime::spawn([&rec, d] { rec(d - 1); });
        Runtime::sync();
      };
      rec(9);
    });
  };
  for (int warm = 0; warm < 2; ++warm) tree();
  leaves.store(0);
  const std::uint64_t n0 = news_now();
  for (int e = 0; e < 4; ++e) tree();
  EXPECT_EQ(news_now() - n0, 0u)
      << "lazy steady-state spawn path performed heap allocations";
  EXPECT_EQ(leaves.load(), 4 * 512);
  const runtime::SchedulerStats s = rt.stats();
  EXPECT_GT(s.total.alloc_lazy_spawns, 0u)
      << "no spawn ever took the lazy fast path";
  EXPECT_EQ(s.total.alloc_promotions, 0u)
      << "a single-worker run has no thieves to promote";
}

TEST(FramePoolRuntime, LazySpawnOffAblationStillCorrect) {
  // --lazy-spawn=off: every spawn takes the eager pooled path (the PR 5
  // shape). Same DAG, same results, and the lazy counters stay silent.
  Options o = quiet_options(2, 2, 2);
  o.lazy_spawn = false;
  Runtime rt(o);
  std::atomic<int> fired{0};
  for (int e = 0; e < 3; ++e) {
    rt.run([&] {
      std::function<void(int)> rec = [&rec, &fired](int d) {
        if (d == 0) {
          fired.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        Runtime::spawn([&rec, d] { rec(d - 1); });
        Runtime::spawn([&rec, d] { rec(d - 1); });
        Runtime::sync();
      };
      rec(8);
    });
  }
  EXPECT_EQ(fired.load(), 3 * 256);
  const runtime::SchedulerStats s = rt.stats();
  EXPECT_EQ(s.total.alloc_lazy_spawns, 0u);
  EXPECT_EQ(s.total.alloc_promotions, 0u);
  EXPECT_GT(s.total.alloc_freelist_hits + s.total.alloc_slab_refills, 0u)
      << "eager spawns must go through the pools";
}

TEST(FramePoolRuntime, LazyCaptureDestructorsRunExactlyOnce) {
  // Multi-worker lazy run: captures are destroyed exactly once whether
  // the frame ran in place on its slot (owner pop) or was relocated into
  // a thief's pooled frame (promotion). Probe instance accounting catches
  // both a leak and a double destroy.
  std::atomic<int> fired{0};
  {
    Options o = quiet_options(1, 4, 0);
    o.lazy_spawn = true;
    Runtime rt(o);
    for (int e = 0; e < 8; ++e) {
      rt.run([&] {
        for (int i = 0; i < 256; ++i) Runtime::spawn(SmallProbe{&fired});
        Runtime::sync();
      });
    }
    EXPECT_EQ(fired.load(), 8 * 256);
    const runtime::SchedulerStats s = rt.stats();
    EXPECT_GT(s.total.alloc_lazy_spawns, 0u);
  }
  EXPECT_EQ(SmallProbe::live.load(), 0)
      << "a lazy slot or promoted frame kept (or double-destroyed) a capture";
}

TEST(FramePoolRuntime, PromotionsOccurUnderMultiWorkerFanout) {
  // A 256-wide fan-out (< the 512 LazyStack slots, so every child is
  // lazy) from one worker with seven idle siblings: thieves must steal,
  // and every steal of a lazy frame is a promotion. Leaves spin long
  // enough that the fan-out is still in the victim's deque when thieves
  // arrive; a handful of epochs makes the expectation robust to
  // scheduling noise.
  Options o = quiet_options(1, 8, 0);
  o.lazy_spawn = true;
  Runtime rt(o);
  std::atomic<int> fired{0};
  int epochs_run = 0;
  while (epochs_run < 20) {
    rt.run([&] {
      for (int i = 0; i < 256; ++i) {
        Runtime::spawn([&fired] {
          volatile int spin = 0;
          while (spin < 50000) spin = spin + 1;
          fired.fetch_add(1, std::memory_order_relaxed);
        });
      }
      Runtime::sync();
    });
    ++epochs_run;
    if (rt.stats().total.alloc_promotions > 0) break;
  }
  EXPECT_EQ(fired.load(), epochs_run * 256);
  const runtime::SchedulerStats s = rt.stats();
  EXPECT_GT(s.total.alloc_lazy_spawns, 0u);
  EXPECT_GT(s.total.alloc_promotions, 0u)
      << "no thief ever promoted a lazy frame in " << epochs_run
      << " contended epochs";
  EXPECT_LE(s.total.alloc_promotions, s.total.alloc_lazy_spawns)
      << "more promotions than lazy spawns";
}

TEST(FramePoolRuntime, RemoteFreesFlowBackAcrossSockets) {
  // A 4-squad run with an inter tier forces cross-worker completions;
  // the remote-free counters must see traffic and every capture must
  // still be destroyed exactly once.
  Options o = quiet_options(4, 2, 2);
  Runtime rt(o);
  std::atomic<int> fired{0};
  for (int e = 0; e < 4; ++e) {
    rt.run([&] {
      std::function<void(int)> rec = [&rec, &fired](int d) {
        if (d == 0) {
          fired.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        Runtime::spawn([&rec, d] { rec(d - 1); });
        Runtime::spawn([&rec, d] { rec(d - 1); });
        Runtime::sync();
      };
      rec(8);
    });
  }
  EXPECT_EQ(fired.load(), 4 * 256);
  const runtime::SchedulerStats s = rt.stats();
  EXPECT_GT(s.total.alloc_remote_frees, 0u)
      << "no frame ever completed away from its home pool in a 4-squad "
         "inter-tier run";
}

}  // namespace
