#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "adapt/controller.hpp"
#include "dag/partition.hpp"
#include "hw/topology.hpp"
#include "obs/attrib/attrib.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stats.hpp"
#include "util/assert.hpp"

namespace cab::runtime {

/// Runtime construction options.
struct Options {
  /// Machine model; may be virtual (more sockets/cores than the host).
  hw::Topology topo = hw::Topology::detect();

  SchedulerKind kind = SchedulerKind::kCab;

  /// Boundary level BL for kCab. 0 degenerates to classic work-stealing
  /// (what the paper does for CPU-bound programs and single-socket hosts).
  /// Compute it with dag::boundary_level(...) or auto_boundary_level(...).
  std::int32_t boundary_level = 0;

  /// Seed for all victim-selection RNGs (expanded per worker).
  std::uint64_t seed = 1;

  /// Intra-squad victim selection / transfer policy (kCab only; the
  /// `--steal=uniform|weighted|weighted+half` ablation axis). Default is
  /// the full occupancy-weighted steal-half path; kUniform restores the
  /// paper's Algorithm I single-task uniform steal exactly.
  StealPolicy steal = StealPolicy::kWeightedHalf;

  /// Pin worker threads to cores (wraps modulo physical CPUs when the
  /// virtual topology is wider than the host).
  bool pin_threads = false;

  /// Record per-worker timestamped timelines (task spans, steal attempts
  /// with victim and latency, busy_state transitions, sync waits, idle
  /// periods) into lock-free single-writer buffers. Near-zero cost when
  /// off: one predicted branch per emit site, no clock reads. Read the
  /// result with Runtime::trace(), export with obs::write_chrome_trace.
  bool trace = false;

  /// Max timeline events kept per worker; later events are dropped and
  /// counted (Trace reports the drop total).
  std::size_t trace_capacity = 1u << 18;

  /// Ring-buffer tracing: when true (and `trace` is on), a full buffer
  /// wraps and overwrites the *oldest* event instead of dropping the
  /// newest, so the last `trace_capacity` events per worker always
  /// survive — fixed-memory, always-on flight recording for long-running
  /// services. Default false keeps the head of the run (where schedule
  /// shape lives). Both policies count every lost event; see
  /// obs::TimelineBuffer for the exact drop semantics.
  bool trace_ring = false;

  /// Populate the metrics registry: scheduler counters (flushed from
  /// WorkerStats when a snapshot is taken — nothing on the hot path) and
  /// the idle-backoff totals. Off: metrics_snapshot() returns an empty
  /// registry and no metric is ever registered.
  bool metrics = true;

  /// Recycle task frames through per-worker NUMA-local pools (the
  /// zero-steady-state-allocation spawn path; DESIGN.md "Allocation
  /// strategy"). Off = the `--frame-pool=off` ablation: every spawn pays
  /// a heap frame plus a boxed callable, reproducing the seed allocation
  /// strategy for overhead benchmarking. Leave on outside benches.
  bool frame_pool = true;

  /// Lazy task creation (DESIGN.md §5h): intra-tier spawns run through the
  /// continuation-style fast path — the child frame lives on the spawning
  /// worker's LazyStack (no pool round trip) and is promoted to a pooled
  /// frame only when a thief actually steals it. Off = the
  /// `--lazy-spawn=off` ablation: every spawn eagerly materializes a
  /// pooled frame (the PR 5 path). Requires frame_pool (thieves promote
  /// into pools); ignored when frame_pool is off.
  bool lazy_spawn = true;

  /// Open per-worker hardware counter groups (perf_event_open: cycles,
  /// instructions, cache-references, LLC-loads/-load-misses), enabled
  /// while run() executes and aggregated per squad and per tier in the
  /// metrics registry. Degrades gracefully when perf is unavailable
  /// (blocked syscall, perf_event_paranoid, CAB_PERF=off): the registry
  /// still works and the snapshot reports hw_available = false. Implies
  /// nothing unless `metrics` is also on.
  bool hw_counters = false;

  /// Adaptive boundary-level policy (kCab only). kStatic (default) keeps
  /// `boundary_level` for every epoch. kAdaptive profiles each run()
  /// epoch and hill-climbs BL *between* epochs (never mid-epoch), seeded
  /// at `boundary_level` (a 0 seed bootstraps to the profiled Eq. 4
  /// level); with Options::metrics off it holds the seed (no blind
  /// climbing). kFixed pins Policy::fixed_bl. Every decision is recorded
  /// in Runtime::adapt_report() (schema cab-adapt-v1), and — when
  /// metrics are on — mirrored as adapt.* gauges in the registry (and
  /// therefore as counter tracks in Chrome traces).
  adapt::Policy adapt;
};

/// Convenience wrapper over Eq. 4: BL from topology + program parameters
/// (the two command-line inputs of the paper's semi-automatic method).
std::int32_t auto_boundary_level(const hw::Topology& topo,
                                 std::uint64_t input_bytes,
                                 std::int32_t branching = 2);

/// Non-template half of the spawn path (runtime.cpp). Split so that
/// Runtime::spawn can stay a template — constructing the callable in
/// place inside the frame — without the header seeing the scheduling
/// internals' implementation:
///   begin_spawn   classifies the tier (Algorithm II(a)) and produces an
///                 *unpublished* frame from the spawner's pool;
///   commit_spawn  does the join (parent outstanding) bookkeeping and
///                 publishes the
///                 frame to the tier's pool (after this the frame may
///                 execute concurrently — the body must already be in
///                 place);
///   abort_spawn   recycles the frame if emplacing the callable threw.
namespace spawn_detail {
struct Pending {
  Worker* worker;
  TaskFrame* frame;
  /// Box the callable instead of emplacing it inline (frame_pool off —
  /// reproduces the seed std::function allocation for the ablation).
  bool boxed;
};
Pending begin_spawn(bool force_inter);
void commit_spawn(const Pending& p);
void abort_spawn(const Pending& p) noexcept;

/// The eager spawn (a pooled or, with frame_pool off, heap frame): every
/// spawn_inter, and every spawn the lazy path below declines. Forced
/// inline so each spawn site compiles as if the block were written out
/// in it; left to the compiler, GCC makes it an out-of-line call.
template <typename F>
[[gnu::always_inline]] inline void spawn_eager(bool force_inter, F&& fn) {
  Pending p = begin_spawn(force_inter);
  try {
    if (p.boxed) {
      p.frame->body.emplace_boxed(std::forward<F>(fn));
    } else {
      p.frame->body.emplace(std::forward<F>(fn));
    }
  } catch (...) {
    abort_spawn(p);
    throw;
  }
  commit_spawn(p);
}

/// Lazy fast path (DESIGN.md §5h), header-inline: the whole point is a
/// spawn that never leaves the caller's TU. Eligible spawns are intra-tier
/// only — inter-tier children, kTaskSharing (central pool: every task is
/// effectively stolen), and non-worker callers all fall back to the eager
/// path, as does a full LazyStack. Returns the armed slot frame, or
/// nullptr for "go eager".
inline TaskFrame* try_begin_lazy(Worker* w) {
  if (w == nullptr || w->current == nullptr) return nullptr;
  Engine& e = *w->engine;
  if (!e.lazy) return nullptr;  // folds in frame_pool and scheduler kind
  TaskFrame* parent = w->current;
  if (w->lazy_tier_check &&
      w->ctx->tier.spawns_inter_child(parent->level)) {
    return nullptr;  // inter-tier child: always an eager pooled frame
  }
  TaskFrame* t = w->lazy_stack.push();
  if (t == nullptr) return nullptr;
  LazyFrame::of(t)->arm(parent, parent->level + 1);
  return t;
}

/// Join bookkeeping + publication of a lazy frame — the tail of
/// commit_spawn minus everything inter/inject (a lazy frame is intra by
/// construction, and its creation tick is carried through promotion).
inline void commit_lazy(Worker* w, TaskFrame* t) {
  w->engine->frame_created();
  TaskFrame* parent = t->parent;
  if (!parent->has_children) {
    parent->has_children = true;
    ++w->stats.spawning_tasks;
  }
  ++parent->spawned;
  parent->has_intra_children = true;
  ++w->stats.spawns_intra;
  ++w->stats.alloc_lazy_spawns;
  if (w->push_local(t)) w->mark_occupied();
  if (w->tl.enabled) w->tl.mark(obs::EventKind::kSpawnIntra, t->level, 0);
}

/// Rollback when the body emplace threw: nothing was published, so
/// freeing the slot is the whole undo.
inline void abort_lazy(TaskFrame* t) noexcept {
  LazyFrame::of(t)->claim.release_unpublished();
}
}  // namespace spawn_detail

/// The CAB task-stealing runtime (plus the two baseline schedulers).
///
/// Usage:
///   Runtime rt(opts);
///   rt.run([&] {
///     Runtime::spawn([&] { left(); });
///     Runtime::spawn([&] { right(); });
///     Runtime::sync();
///   });
///
/// spawn/sync may only be called from inside a task. Every task gets an
/// implicit sync before it completes, so forgetting sync() is safe (Cilk
/// semantics); explicit sync() lets a task consume child results mid-body.
class Runtime {
 public:
  explicit Runtime(Options opts);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Executes `root` as the level-0 task and blocks until the whole DAG
  /// has completed. May be called repeatedly (sequentially). Uses every
  /// squad (the full-machine partition); conflicts loudly with any
  /// concurrent run_on().
  void run(std::function<void()> root);

  /// Executes `root` on a *partition*: only the listed squads (distinct,
  /// in-range ids) and their workers participate — spawning, stealing and
  /// the bi-tier protocol are confined to the partition, with
  /// `boundary_level` interpreted relative to it (single-squad partitions
  /// degenerate to BL = 0, classic work-stealing). Blocks until the DAG
  /// has drained. Concurrent calls on *disjoint* squad sets (from
  /// different threads) run in parallel — the job service's space
  /// partitioning; overlapping partitions fail loudly (CAB_CHECK).
  /// Requires Options::adapt.mode == kStatic.
  void run_on(const std::vector<int>& squad_ids, std::int32_t boundary_level,
              std::function<void()> root);

  /// Spawns a child of the current task. Tier (inter/intra-socket) and
  /// destination pool are chosen per Algorithm II(a). A template so the
  /// callable is constructed in place inside the task frame: captures up
  /// to TaskBody::kInlineSize (64 B) never touch the heap, and with
  /// Options::frame_pool the whole steady-state spawn is allocation-free.
  template <typename F>
  static void spawn(F&& fn);

  /// The paper's `inter_spawn` keyword (Section IV-D): explicitly spawns
  /// the child as an inter-socket task regardless of its DAG level,
  /// letting programmers hand-tune task placement. Under the baseline
  /// schedulers (no inter-socket tier) this is an ordinary spawn.
  template <typename F>
  static void spawn_inter(F&& fn);

  /// Waits for all children of the current task, executing other tasks
  /// while waiting (help-first sync).
  static void sync();

  /// Worker id executing the caller, or -1 outside any task.
  static int current_worker();
  /// Squad (socket) id of the calling worker, or -1 outside any task.
  static int current_squad();

  /// Tags the currently executing task with its DAG node id (a kTaskNode
  /// instant in the worker's timeline), joining the trace to a TaskGraph
  /// for realized-critical-path analysis. Call at task body start (as
  /// run_graph does). No-op outside a task or when tracing is off.
  static void mark_task_node(std::int32_t node);

  const Options& options() const { return opts_; }
  int worker_count() const;

  /// Aggregated counters from the most recent run()s (cleared on demand).
  /// Call between epochs only (enforced — fails loudly while any run()/
  /// run_on() is in flight: the per-worker counters are mid-write then).
  SchedulerStats stats() const;
  void reset_stats();

  /// Snapshot of every worker's timeline (empty event lists unless
  /// Options::trace). Ring buffers are unrolled to chronological order.
  /// Call between epochs only — workers must be parked (enforced: fails
  /// loudly while any run()/run_on() is in flight).
  obs::Trace trace() const;

  /// Cycle-accounting attribution of the current timeline contents:
  /// where every worker's wall time went (exec / steal / protocol /
  /// idle / untracked, per worker, squad, and tier). Equivalent to
  /// obs::attrib::attribute(trace()). Call between epochs only (enforced
  /// via trace()'s check).
  obs::attrib::Attribution attrib_report() const;

  /// Metrics registry snapshot: scheduler counters (flushed from
  /// WorkerStats here), idle-backoff totals, and — when Options::
  /// hw_counters and perf is available — the hw.* counters with
  /// tier=total/inter/intra labels, per worker (aggregate per squad via
  /// Snapshot::squad_totals). Call between epochs only (enforced: fails
  /// loudly while any run()/run_on() is in flight).
  obs::metrics::Snapshot metrics_snapshot() const;

  /// True when hardware counters were requested *and* the perf source is
  /// usable on this host (mirrors the snapshot's hw_available flag).
  bool hw_counters_active() const;

  /// The runtime's metrics registry, for subsystems layered on top (the
  /// job service registers its svc.* series here so one snapshot carries
  /// scheduler and service metrics together). Registration is
  /// thread-safe; slot writes must follow the registry's single-writer
  /// rule.
  obs::metrics::Registry& registry();

  /// High-water mark of simultaneously live task frames across all runs
  /// since construction / reset_stats() — the measured left-hand side of
  /// the paper's Eq. 15 space bound.
  std::int64_t peak_live_frames() const;

  /// Boundary level the *next* run() epoch will execute under (the seed
  /// before the first epoch; thereafter whatever the adaptive controller
  /// last chose). Call between run()s only.
  std::int32_t current_boundary_level() const;

  /// Every adaptive decision taken so far (schema cab-adapt-v1): one
  /// Decision per completed run() epoch, including the profiler inputs,
  /// scores, and the chosen BL. Empty decision list under
  /// Mode::kStatic. Call between epochs only (enforced).
  adapt::Report adapt_report() const;

 private:
  /// Common epoch driver for run()/run_on(): reserves the context's
  /// squads, injects the root, waits for quiescence, releases the squads.
  /// Returns the activation id. Does NOT rethrow the captured exception
  /// (callers do, after any between-epoch bookkeeping).
  std::uint64_t run_ctx(EpochContext& ctx, std::function<void()> root);

  void retune_after_epoch(std::uint64_t epoch, std::int32_t epoch_bl,
                          std::uint64_t wall_ns);

  Options opts_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<adapt::Controller> adapt_;

  /// Cumulative totals at the last epoch boundary; subtracted from the
  /// current totals to form per-epoch deltas for the profiler. Zeroed by
  /// reset_stats() alongside the WorkerStats they mirror.
  struct AdaptBaseline {
    std::uint64_t tasks = 0;
    std::uint64_t spawns = 0;
    std::uint64_t spawning_tasks = 0;
    std::uint64_t intra_steals = 0;
    std::uint64_t inter_steals = 0;
    std::uint64_t failed_steals = 0;
    std::int64_t llc_loads = 0;
    std::int64_t llc_misses = 0;
    std::int64_t llc_loads_inter = 0;
    std::int64_t llc_misses_inter = 0;
  } adapt_base_;
};

template <typename F>
void Runtime::spawn(F&& fn) {
  if (TaskFrame* t = spawn_detail::try_begin_lazy(tls_worker)) {
    try {
      t->body.emplace(std::forward<F>(fn));
    } catch (...) {
      spawn_detail::abort_lazy(t);
      throw;
    }
    spawn_detail::commit_lazy(tls_worker, t);
    return;
  }
  spawn_detail::spawn_eager(/*force_inter=*/false, std::forward<F>(fn));
}

template <typename F>
void Runtime::spawn_inter(F&& fn) {
  spawn_detail::spawn_eager(/*force_inter=*/true, std::forward<F>(fn));
}

/// Recursive binary-splitting parallel loop over [begin, end) built on
/// spawn/sync; `grain` bounds the leaf range size. Must be called inside a
/// task (e.g. from the root closure passed to run()). A template so each
/// range split spawns a 32-byte inline capture instead of re-erasing the
/// body into a fresh heap-allocated std::function closure.
template <typename Body>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const Body& body) {
  CAB_CHECK(grain >= 1, "grain must be >= 1");
  if (begin >= end) return;
  if (end - begin <= grain) {
    body(begin, end);
    return;
  }
  const std::int64_t mid = begin + (end - begin) / 2;
  // `body` outlives the children: the sync below joins them before return.
  Runtime::spawn([begin, mid, grain, &body] {
    parallel_for(begin, mid, grain, body);
  });
  Runtime::spawn([mid, end, grain, &body] {
    parallel_for(mid, end, grain, body);
  });
  Runtime::sync();
}

}  // namespace cab::runtime
