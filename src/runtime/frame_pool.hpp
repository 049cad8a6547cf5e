#pragma once

#include <atomic>
#include <cstddef>
#include <new>
#include <vector>

#include "hw/affinity.hpp"
#include "runtime/squad_protocol.hpp"
#include "runtime/stats.hpp"
#include "runtime/task.hpp"
#include "util/assert.hpp"
#include "util/cache_line.hpp"
#include "util/layout.hpp"
#include "util/sync_policy.hpp"

namespace cab::runtime {

/// Intrusive Treiber stack, multi-producer / single-consumer: thieves
/// that complete a frame on another worker (typically another socket)
/// push it here; the owning worker drains the whole stack in one exchange
/// when its freelist runs dry. `Node` must expose a `Node* pool_next`
/// link, which the stack reuses — a node is never in a freelist and the
/// remote stack at the same time.
///
/// Push-only CAS has no ABA window: a stale head is retried against the
/// new value, never dereferenced, and the single consumer detaches the
/// entire chain at once (no concurrent pop to race a reused node against).
///
/// Parameterized on the Sync policy (util/sync_policy.hpp) so
/// tests/test_model_check.cpp explores every push/take_all interleaving
/// over chk::atomic (DESIGN.md §6).
template <typename Node, typename Sync = util::RealSync>
class MpscIntrusiveStack {
  template <typename U>
  using Atomic = typename Sync::template atomic_t<U>;

 public:
  MpscIntrusiveStack() = default;
  MpscIntrusiveStack(const MpscIntrusiveStack&) = delete;
  MpscIntrusiveStack& operator=(const MpscIntrusiveStack&) = delete;

  /// Any thread. Publishes `n` — and every write the producer made to it
  /// beforehand — to the consumer that eventually drains the stack.
  void push(Node* n) noexcept {
    // mo: relaxed load — the CAS revalidates it; release on the successful
    // CAS publishes n->pool_next and the producer's writes to *n (paired
    // with the acquire exchange in take_all). Failure order relaxed: the
    // retry only feeds the next attempt's expected value.
    Node* head = head_.load(std::memory_order_relaxed);
    do {
      n->pool_next = head;
    } while (!head_.compare_exchange_weak(head, n, std::memory_order_release,
                                          std::memory_order_relaxed));
  }

  /// Consumer only. Detaches the whole chain (LIFO order) in a single
  /// exchange; returns nullptr when the stack is empty.
  Node* take_all() noexcept {
    // mo: acquire pairs with the release CAS in push — after this the
    // consumer may freely read, re-link and reuse every detached node.
    return head_.exchange(nullptr, std::memory_order_acquire);
  }

  /// Racy emptiness probe — monitoring/tests only, never a correctness
  /// decision.
  bool empty() const noexcept {
    return head_.load(std::memory_order_relaxed) == nullptr;
  }

 private:
  // Remote completers hammer this line on every cross-socket free; keep
  // it off whatever the enclosing object co-locates with the owner's hot
  // fields.
  alignas(util::kCacheLineSize) Atomic<Node*> head_{nullptr};
};

static_assert(
    util::layout::one_line_anywhere<MpscIntrusiveStack<TaskFrame>>() &&
        sizeof(MpscIntrusiveStack<TaskFrame>) == util::kCacheLineSize,
    "tail-shared: MpscIntrusiveStack::head_ must own a whole line in any "
    "host");

/// Per-worker NUMA-local recycling allocator for TaskFrames.
///
/// Steady state allocates nothing: acquire() is a freelist pop, release
/// is a freelist push (local) or one CAS on the home pool's remote stack
/// (cross-worker completion). Slabs are only carved when freelist *and*
/// remote channel are empty — which, since frames only ever return to the
/// pool that carved them, can happen at most until the pool's capacity
/// covers its own peak of simultaneously-live frames (the Eq. 15 bound
/// per worker; see DESIGN.md). Placement is NUMA-local twice over: the
/// slab pages are mbind'ed to the carving worker's socket (best effort)
/// and first-touched by it immediately after.
///
/// Threading: acquire/release_local/refill are owner-thread only;
/// push_remote is any-thread. The owner is the worker that carved the
/// slabs — except between run() epochs, when every worker is parked
/// (Engine::working == 0) and the main thread may act as any pool's
/// owner (Runtime::run uses this for the root frame).
class FramePool {
 public:
  /// Frames per slab: 64 frames = 9 KiB, just over two pages — big
  /// enough to amortize cold-start carving to one allocation per 64
  /// spawns, small enough that an idle worker strands at most a few KiB.
  static constexpr std::size_t kFramesPerSlab = 64;

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// Teardown frees slab storage wholesale. Frames at rest own nothing —
  /// the executing worker resets the body right after it returns, and
  /// aborted spawns are reset by recycle() — so no per-frame destructor
  /// needs to run, and frames parked in the remote channel are covered
  /// because their storage is slab memory. Safe whenever no frame from
  /// this pool is live: Runtime destruction joins all workers first.
  ~FramePool() {
    for (void* slab : slabs_) {
      ::operator delete(slab, std::align_val_t{kSlabAlign});
    }
  }

  /// Owner only. Freelist first; on miss, one bulk drain of the remote
  /// channel; only when both are dry, carve a fresh slab. Exactly one of
  /// the three alloc counters ticks per call, so
  /// hits + drains + refills == acquires holds (tests rely on it).
  TaskFrame* acquire(WorkerStats& stats) {
    TaskFrame* t = free_;
    if (t != nullptr) {
      ++stats.alloc_freelist_hits;
    } else {
      free_ = remote_.take_all();
      if (free_ != nullptr) {
        ++stats.alloc_remote_drains;
      } else {
        refill(stats);
      }
      t = free_;
    }
    free_ = t->pool_next;
    CAB_CHECK(t->completed.load(std::memory_order_relaxed) +
                      t->completed_local ==
                  t->spawned,
              "recycled frame still has outstanding children "
              "(double recycle or lost join)");
    return t;
  }

  /// Owner only: the completing worker is this pool's owner.
  void release_local(TaskFrame* t) noexcept {
    t->pool_next = free_;
    free_ = t;
  }

  /// Any thread: the remote-free return channel. The frame flows back to
  /// its home socket's memory instead of crossing the allocator from
  /// whichever socket stole it.
  void push_remote(TaskFrame* t) noexcept { remote_.push(t); }

  /// Slabs carved so far (== lifetime alloc_slab_refills of the owner).
  std::size_t slab_count() const noexcept { return slabs_.size(); }

  /// Racy probe of the remote channel — tests/monitoring only.
  bool remote_empty() const noexcept { return remote_.empty(); }

 private:
  /// Page granularity: mbind operates on whole pages, and page-aligned
  /// slabs keep a slab's frames from straddling into a neighbour's pages.
  static constexpr std::size_t kSlabAlign = 4096;

  void refill(WorkerStats& stats) {
    ++stats.alloc_slab_refills;
    const std::size_t bytes = kFramesPerSlab * sizeof(TaskFrame);
    // alloc-ok: cold-start slab carve — amortized over kFramesPerSlab
    // frames and flat at steady state (asserted via alloc.slab_refills in
    // tests/test_frame_pool.cpp).
    void* raw = ::operator new(bytes, std::align_val_t{kSlabAlign});
    // Best-effort NUMA pin to the carving worker's socket; the
    // placement-news below first-touch every page as the fallback policy.
    hw::bind_memory_local(raw, bytes);
    auto* frames = static_cast<TaskFrame*>(raw);
    for (std::size_t i = 0; i < kFramesPerSlab; ++i) {
      TaskFrame* f = ::new (static_cast<void*>(frames + i)) TaskFrame();
      f->home = this;
      f->pool_next = free_;
      free_ = f;
    }
    slabs_.push_back(raw);
  }

  /// Owner-only freelist of ready frames (LIFO: the hottest frame — the
  /// one just recycled, still in this core's cache — is handed out next).
  TaskFrame* free_ = nullptr;
  std::vector<void*> slabs_;
  MpscIntrusiveStack<TaskFrame> remote_;

  friend struct FramePoolLayout;
};

struct FramePoolLayout {
  static_assert(util::layout::disjoint_lines(CAB_SPAN(FramePool, free_),
                                             CAB_SPAN(FramePool, remote_)),
                "hot-cohabit: remote frees must not invalidate the owner's "
                "FramePool::free_ line");
};

/// A LazyStack slot: a full TaskFrame plus the promotion claim word
/// (DESIGN.md §5h). The frame is the *first* member so the deque can keep
/// storing plain `TaskFrame*` — `of()` recovers the enclosing slot from
/// the frame pointer with no tagging or masking on any deque path; the
/// `TaskFrame::lazy` flag tells takers which kind they hold.
struct alignas(util::kCacheLineSize) LazyFrame {
  TaskFrame frame;
  protocol::LazyClaim<util::RealSync> claim;

  /// The subset of TaskFrame::prepare the lazy path actually needs.
  /// Skipped on purpose (all provably never read on a lazy frame):
  /// `inter` / `inter_acquired_by` / `has_intra_children` feed the
  /// busy-state paths, which do nothing on a slot frame: `inter` and
  /// `inter_acquired_by` keep their default false/nullptr forever, so the
  /// busy-state release that Worker::join runs on every frame no-ops and
  /// execute() never opens an inter-tier hw span; `lazy` is set once
  /// at carve time and promotion re-prepares the pooled copy from scratch;
  /// `home`/`pool_next` are pool-owned and slots have none.
  void arm(TaskFrame* p, std::int32_t lvl) noexcept {
    frame.parent = p;
    frame.level = lvl;
    frame.spawned = 0;
    frame.completed.store(0, std::memory_order_relaxed);
    frame.completed_local = 0;
    frame.has_children = false;
    claim.arm();
  }

  static LazyFrame* of(TaskFrame* t) noexcept {
    static_assert(offsetof(LazyFrame, frame) == 0,
                  "frame must be the first member: LazyFrame::of casts the "
                  "frame pointer back to the slot");
    return reinterpret_cast<LazyFrame*>(t);
  }
};

// share-ok: claim shares the frame's last line with home and pool_next,
// which a slot frame never writes (slots belong to no pool); the frame's
// one cross-thread word, completed, must stay on an earlier line.
static_assert(util::layout::disjoint_lines(
                  CAB_SPAN(LazyFrame, frame.completed),
                  CAB_SPAN(LazyFrame, claim)),
              "hot-cohabit: LazyFrame::claim and frame.completed must not "
              "share a line");

/// Per-worker stack of LazyFrame slots backing the lazy spawn fast path:
/// the child frame a spawn publishes lives here — no pool round trip —
/// and is reclaimed in place when the owner executes it, or released by
/// the thief's claim hand-off after promotion.
///
/// Not a pure bump stack: help-while-waiting breaks LIFO reclamation (a
/// parent suspended in sync() can pop and finish an *older* sibling while
/// a younger slot is still live under it), and promotions complete out of
/// order entirely. Slots therefore free individually through their claim
/// word (kFreed), and push() lazily truncates the dead suffix — the loop
/// stops at the first live (kStacked/kOwned/kPromoting) slot, so freed
/// slots buried under a live one are reclaimed as soon as it clears.
/// A full stack returns nullptr and the caller falls back to the eager
/// pooled path, which is always correct (tested via wide flat fan-out).
///
/// Owner-thread only except for the claim words, which thieves touch
/// through the promotion handshake.
class LazyStack {
 public:
  /// Slots per worker: bounds the lazy suffix of one worker's spawn tree.
  /// Depth-first execution keeps the live count near the spawn depth (a
  /// few dozen), so 512 slots (96 KiB) make eager overflow an exotic
  /// fallback, not a steady-state path.
  static constexpr std::size_t kSlots = 512;

  LazyStack() = default;
  LazyStack(const LazyStack&) = delete;
  LazyStack& operator=(const LazyStack&) = delete;

  /// Frames at rest own nothing (same argument as ~FramePool: bodies are
  /// reset after execution or relocated away by promotion), so teardown
  /// frees the slot storage wholesale.
  ~LazyStack() {
    if (slots_ != nullptr) {
      ::operator delete(slots_, std::align_val_t{util::kCacheLineSize});
    }
  }

  /// Owner only. Returns an armed-claim-free slot frame, or nullptr when
  /// the stack is full (caller falls back to the eager path). The first
  /// call carves the slot array; steady state is a truncation probe plus
  /// a bump.
  TaskFrame* push() {
    if (slots_ == nullptr) carve();
    // Truncate the dead suffix: in the common (pure LIFO) case this is
    // one acquire load of the slot just executed in place.
    while (top_ > 0 && slots_[top_ - 1].claim.reclaimable()) --top_;
    if (top_ == kSlots) return nullptr;
    return &slots_[top_++].frame;
  }

  /// Live (non-reclaimable) slots — tests/monitoring only; racy against
  /// in-flight promotions.
  std::size_t live() const noexcept {
    std::size_t n = 0;
    for (std::size_t i = 0; i < top_; ++i) {
      if (!slots_[i].claim.reclaimable()) ++n;
    }
    return n;
  }

  bool carved() const noexcept { return slots_ != nullptr; }

 private:
  void carve() {
    const std::size_t bytes = kSlots * sizeof(LazyFrame);
    // alloc-ok: one-time per-worker carve on the first lazy spawn —
    // amortized over every lazy spawn the worker ever runs (steady-state
    // zero-alloc asserted by tests/test_frame_pool.cpp).
    void* raw = ::operator new(bytes, std::align_val_t{util::kCacheLineSize});
    // Same NUMA discipline as FramePool::refill: best-effort pin to the
    // carving worker's socket, first-touch by the placement-news below.
    hw::bind_memory_local(raw, bytes);
    slots_ = static_cast<LazyFrame*>(raw);
    for (std::size_t i = 0; i < kSlots; ++i) {
      LazyFrame* lf = ::new (static_cast<void*>(slots_ + i)) LazyFrame();
      // Permanent: slot frames are lazy for their whole life (promotion
      // copies *out* of them; the pooled copy is re-prepared non-lazy).
      lf->frame.lazy = true;
    }
  }

  LazyFrame* slots_ = nullptr;
  std::size_t top_ = 0;
};

}  // namespace cab::runtime
