#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/task_body.hpp"
#include "util/layout.hpp"

namespace cab::runtime {

struct Squad;
class FramePool;

/// Task frame, the library analogue of the Cilk frame the paper extends
/// in Section IV-B. The paper adds `level`, `parent` and `inter_counter`
/// to every frame; we carry the same information (the `spawned`/
/// `completed` join pair covers both task kinds — see DESIGN.md).
///
/// Lifecycle: acquired from the spawning worker's FramePool (or heap-
/// allocated under the `--frame-pool=off` ablation), executed exactly once
/// by some worker, joined into the parent at completion, then *recycled*
/// to its home pool by the executing worker — locally when the completer
/// owns the pool, through the MPSC remote-free channel otherwise
/// (frame_pool.hpp). A frame always outlives its children because every
/// task runs an implicit sync before completing (Cilk semantics), which
/// also makes by-reference captures of the parent's locals safe in child
/// closures.
struct TaskFrame {
  /// The task's callable, constructed in place by Runtime::spawn (no
  /// type-erasure heap allocation for captures within
  /// TaskBody::kInlineSize) and reset by the executing worker right after
  /// the body returns.
  TaskBody body;

  /// Join target; nullptr only for the root frame.
  TaskFrame* parent = nullptr;

  /// Spawn half of the join counter: children spawned out of this frame's
  /// body. Owner-only — spawn() always runs on the worker currently
  /// executing this frame, and a frame is executed by exactly one worker
  /// at a time — so a plain increment replaces what a single fused
  /// counter would make a locked RMW on every spawn.
  std::int32_t spawned = 0;

  /// Completion half: incremented once by each child's finish(), possibly
  /// from another worker, so this half stays atomic. The join is done
  /// when completed == spawned — evaluated only by the owner (joined()),
  /// which is the one thread allowed to read `spawned`.
  // pad-ok: per-frame field — padding every frame to a cache line would
  // multiply the Eq. 15 space bound; contention is bounded by the frame's
  // own children.
  std::atomic<std::int32_t> completed{0};

  /// Owner-local completion half: bumped by lazy children, which always
  /// execute on the worker that owns this frame's deque (a lazy frame is
  /// only ever executed in place via the owner's pop — a thief promotes it
  /// to a pooled frame first, and the promoted copy joins through the
  /// atomic `completed` instead). Plain, not atomic: writer and the
  /// joined() reader are the same thread. This is where the lazy path's
  /// join saving comes from — the common-case child finish is a plain
  /// increment, not an acq_rel RMW.
  std::int32_t completed_local = 0;

  /// True when every spawned child has joined. Owner-only. The acquire
  /// pairs with the release half of each promoted/eager child's completed
  /// increment, publishing the children's writes to the resuming parent;
  /// lazy in-place children join through `completed_local` on this same
  /// thread.
  bool joined() const noexcept {
    return completed_local + completed.load(std::memory_order_acquire) ==
           spawned;
  }

  /// DAG level, paper numbering (root/"main" = 0).
  std::int32_t level = 0;

  /// True when this task belongs to the inter-socket tier (level <= BL,
  /// or forced via Runtime::spawn_inter — the paper's inter_spawn).
  bool inter = false;

  /// Set by the first spawn() out of this task's body; only ever touched
  /// by the worker executing the task, so it needs no synchronization.
  /// Feeds WorkerStats::spawning_tasks (the adaptive profiler's divisor).
  bool has_children = false;

  /// Set when this task spawned at least one intra-socket child. An
  /// inter-socket task with intra children is a *leaf* inter-socket task:
  /// its subtree is the squad's cache-residency unit, so it holds the
  /// squad busy_state through its sync instead of releasing at suspend.
  bool has_intra_children = false;

  /// Set when the task was acquired from an inter-socket pool; the squad
  /// whose busy-state (active_inter) must be released at completion.
  Squad* inter_acquired_by = nullptr;

  /// True when this frame lives in a LazyStack slot of the spawning
  /// worker (DESIGN.md §5h) rather than in a pool slab or on the heap.
  /// Dereferenced only after the deque hands the frame over, so the
  /// deque's own synchronization covers it: the owner executes such a
  /// frame in place (Worker::execute_lazy), a thief promotes it into a
  /// pooled frame first (Worker::promote_lazy). Lazy frames never reach
  /// finish()/recycle().
  bool lazy = false;

  /// Pool that owns this frame's storage (set once at slab construction,
  /// never changed); nullptr for `--frame-pool=off` heap frames, which
  /// are deleted instead of recycled.
  FramePool* home = nullptr;

  /// Intrusive freelist / remote-free-stack link. Only meaningful while
  /// the frame is *not* live; the pool threads frames through it.
  TaskFrame* pool_next = nullptr;

  TaskFrame() = default;

  /// Re-arms the scheduling fields for a fresh spawn. The body is emplaced
  /// separately (it is the only field whose construction can throw);
  /// `spawned == completed` on any correctly recycled frame (checked by
  /// FramePool::acquire), so both halves restart at zero;
  /// `home`/`pool_next` are pool-owned.
  void prepare(TaskFrame* p, std::int32_t lvl, bool is_inter) noexcept {
    parent = p;
    level = lvl;
    inter = is_inter;
    spawned = 0;
    completed.store(0, std::memory_order_relaxed);
    completed_local = 0;
    has_children = false;
    has_intra_children = false;
    inter_acquired_by = nullptr;
    lazy = false;
  }
};

// Frames sit in slabs at multiples of sizeof(TaskFrame), not on line
// boundaries, so the check must hold for every placement.
static_assert(
    util::layout::one_line_anywhere<decltype(TaskFrame::completed)>(),
    "hot-straddle: TaskFrame::completed must fit one line in any frame");

}  // namespace cab::runtime
