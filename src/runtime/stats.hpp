#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cab::runtime {

/// Per-worker event counters, aggregated by Runtime::stats(). Collected
/// with plain (non-atomic) increments on the owning worker and read only
/// after run() returns, so no synchronization is needed.
struct WorkerStats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t spawns_intra = 0;
  std::uint64_t spawns_inter = 0;
  std::uint64_t intra_pop_hits = 0;       ///< tasks from own deque
  std::uint64_t intra_steals = 0;         ///< successful in-squad steals
  std::uint64_t inter_acquires = 0;       ///< from own squad's inter pool
  std::uint64_t inter_steals = 0;         ///< from another squad's pool
  std::uint64_t failed_steal_attempts = 0;
  /// Successful in-squad batch steals (steal-half transfers; each also
  /// counts once in intra_steals) and the total tasks they moved —
  /// steal_batch_tasks / steal_batches is the realized mean batch size
  /// (full distribution: the steal.batch_size histogram).
  std::uint64_t steal_batches = 0;
  std::uint64_t steal_batch_tasks = 0;
  /// In-squad victim picks that came from the occupancy-weighted sampler
  /// (the remainder of intra steal attempts fell back to uniform).
  std::uint64_t weighted_picks = 0;
  /// Occupancy-mask transitions (bit actually flipped): set by this
  /// worker's push, cleared by this worker's own empty pop, cleared by
  /// this worker's failed probe of a victim (hearsay clear).
  std::uint64_t mask_sets = 0;
  std::uint64_t mask_clears_own = 0;
  std::uint64_t mask_clears_hearsay = 0;
  std::uint64_t help_iterations = 0;      ///< sync-help loop turns
  /// Times the deepest backoff tier parked this worker (one
  /// kIdleBackoffSleep each) — total parked time is the product, exposed
  /// as scheduler.idle_backoff_ns in the metrics registry so it lines up
  /// with the idle spans of the steal-latency reports.
  std::uint64_t idle_backoff_sleeps = 0;
  /// Tasks that spawned at least one child — divides `spawns` into the
  /// effective branching degree the adaptive profiler feeds to Eq. 4.
  std::uint64_t spawning_tasks = 0;
  /// Deepest task level this worker executed (observed spawn-tree depth;
  /// aggregates by max, not sum).
  std::int32_t max_task_level = 0;

  /// FramePool::acquire served from this worker's own freelist — the
  /// steady-state (zero-allocation) spawn path.
  std::uint64_t alloc_freelist_hits = 0;
  /// FramePool::acquire had to carve a fresh slab (freelist and remote
  /// channel both empty). Flat after warm-up on a steady workload — the
  /// zero-steady-state-allocation property tests assert on.
  std::uint64_t alloc_slab_refills = 0;
  /// Frames this worker completed that belonged to another worker's pool
  /// and were returned through the MPSC remote-free channel (mostly
  /// cross-socket steal completions).
  std::uint64_t alloc_remote_frees = 0;
  /// FramePool::acquire served by draining the remote-free channel (one
  /// bulk take_all per count, possibly recovering many frames).
  std::uint64_t alloc_remote_drains = 0;
  /// Spawns that took the lazy fast path: child frame on the spawning
  /// worker's LazyStack, no pool acquire and no atomic join RMW unless a
  /// thief promotes it (DESIGN.md §5h).
  std::uint64_t alloc_lazy_spawns = 0;
  /// Lazy frames *this worker* promoted at steal time into a frame from
  /// its own pool. promotions / lazy_spawns is the realized steal rate of
  /// the lazy tier — the "steals are rare" premise the fast path banks on.
  std::uint64_t alloc_promotions = 0;

  WorkerStats& operator+=(const WorkerStats& o) {
    tasks_executed += o.tasks_executed;
    spawns_intra += o.spawns_intra;
    spawns_inter += o.spawns_inter;
    intra_pop_hits += o.intra_pop_hits;
    intra_steals += o.intra_steals;
    inter_acquires += o.inter_acquires;
    inter_steals += o.inter_steals;
    failed_steal_attempts += o.failed_steal_attempts;
    steal_batches += o.steal_batches;
    steal_batch_tasks += o.steal_batch_tasks;
    weighted_picks += o.weighted_picks;
    mask_sets += o.mask_sets;
    mask_clears_own += o.mask_clears_own;
    mask_clears_hearsay += o.mask_clears_hearsay;
    help_iterations += o.help_iterations;
    idle_backoff_sleeps += o.idle_backoff_sleeps;
    spawning_tasks += o.spawning_tasks;
    alloc_freelist_hits += o.alloc_freelist_hits;
    alloc_slab_refills += o.alloc_slab_refills;
    alloc_remote_frees += o.alloc_remote_frees;
    alloc_remote_drains += o.alloc_remote_drains;
    alloc_lazy_spawns += o.alloc_lazy_spawns;
    alloc_promotions += o.alloc_promotions;
    if (o.max_task_level > max_task_level) max_task_level = o.max_task_level;
    return *this;
  }
};

/// Aggregate over a full run.
struct SchedulerStats {
  WorkerStats total;
  std::vector<WorkerStats> per_worker;

  std::string summary() const;
};

}  // namespace cab::runtime
