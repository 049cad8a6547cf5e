#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <string_view>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "deque/chase_lev_deque.hpp"
#include "deque/locked_deque.hpp"
#include "dag/partition.hpp"
#include "runtime/frame_pool.hpp"
#include "runtime/squad_protocol.hpp"
#include "hw/topology.hpp"
#include "obs/metrics/perf_source.hpp"
#include "obs/metrics/registry.hpp"
#include "obs/timeline.hpp"
#include "runtime/stats.hpp"
#include "runtime/task.hpp"
#include "util/cache_line.hpp"
#include "util/layout.hpp"
#include "util/rng.hpp"

namespace cab::runtime {

/// Which scheduling policy the runtime executes. The latter two are the
/// baselines of the paper's Sections II and V ("Cilk" = classic random
/// task-stealing; task-sharing = one central locked pool).
enum class SchedulerKind : std::uint8_t {
  kCab,
  kRandomStealing,
  kTaskSharing,
};

const char* to_string(SchedulerKind k);

/// Intra-socket victim-selection/transfer policy — the `--steal=` ablation
/// axis (DESIGN.md "Victim selection and steal-half batching"). Applies to
/// kCab's in-squad stealing only; the classic baselines keep the uniform
/// single-task steal that defines them.
enum class StealPolicy : std::uint8_t {
  kUniform,       ///< paper's Algorithm I: uniform victim, single-task steal
  kWeighted,      ///< occupancy-weighted victim, single-task steal
  kWeightedHalf,  ///< occupancy-weighted victim + steal-half batch transfer
};

const char* to_string(StealPolicy p);

/// Parses "uniform" | "weighted" | "weighted+half" (also accepts
/// "weighted-half" for shells where `+` is awkward). Returns false and
/// leaves `out` untouched on unknown input.
bool parse_steal_policy(std::string_view s, StealPolicy& out);

/// Consecutive failed acquire attempts after which a spinning *head*
/// worker may bypass the squad-busy gate of Algorithm I step 2 and reach
/// the inter-socket pools anyway. Needed for liveness: a leaf inter-socket
/// task holds busy_state across its implicit sync, and if its pending
/// subtree contains forced inter-socket children (Runtime::spawn_inter
/// below BL), those sit in the squad pool that the busy gate is barring
/// every head from — a livelock with every worker spinning. In the free
/// worker's loop the threshold sits past the backoff sleep tier, so normal
/// contention never hits it; a sync wait (Worker::join) only yields, so a
/// head blocked there reaches the escape after 8,192 yields.
inline constexpr int kStarvationEscapeFails = 8192;

/// Progressive-backoff tiers of the free worker's acquire loop (worker.cpp
/// backoff(); sync waits only yield): cpu_relax below kBackoffRelaxFails
/// consecutive failures, sched-yield below kBackoffYieldFails, then every
/// further failed acquire parks the thread for kIdleBackoffSleep. The
/// sleep count is tracked in WorkerStats::idle_backoff_sleeps, so parked
/// time is always count * kIdleBackoffSleep — keep reports computing it
/// from this constant rather than a re-typed literal.
inline constexpr int kBackoffRelaxFails = 16;
inline constexpr int kBackoffYieldFails = 4096;
inline constexpr std::chrono::microseconds kIdleBackoffSleep{50};

struct Engine;
struct EpochContext;

/// A squad: the group of workers affiliated with one socket (Fig. 3).
struct Squad {
  int id = 0;
  int head_worker = 0;        ///< smallest worker id in the squad
  int first_worker = 0;
  int worker_count = 0;

  /// The epoch this squad is currently bound to, or nullptr when the
  /// squad is parked. Guarded by Engine::lifecycle_mu: set when a
  /// run()/run_on() reserves the squad, cleared once that epoch has fully
  /// quiesced. Concurrent epochs on *disjoint* squad sets — the job
  /// service's space partitioning — each bind their own squads here.
  EpochContext* ctx = nullptr;
  /// Activation stamp (a copy of Engine::epoch at bind time, guarded by
  /// lifecycle_mu). Workers wake when their squad's stamp moves past the
  /// last epoch they served.
  std::uint64_t ctx_epoch = 0;

  /// The squad's inter-socket task pool.
  deque::LockedDeque<TaskFrame*> inter_pool;

  /// The paper's per-squad `busy_state` (see protocol::BusyState: count,
  /// not boolean, so nested inter-socket tasks keep it consistent). The
  /// transitions live in runtime/squad_protocol.hpp, where the model
  /// checker proves them over chk::atomic (DESIGN.md §6).
  alignas(util::kCacheLineSize) protocol::BusyState<> busy_state;

  /// Victim-occupancy hint bits for weighted in-squad victim selection
  /// (bit = squad-local worker slot; see protocol::OccupancyMask).
  /// Maintained only when Engine::mask_active.
  protocol::OccupancyMask<> occupancy;

  bool busy() const { return busy_state.busy(); }
};

static_assert(util::layout::owns_lines(CAB_SPAN(Squad, busy_state),
                                       CAB_OFFSETOF(Squad, occupancy)),
              "tail-shared: Squad::busy_state must own its line");

/// One worker thread, affiliated with one (virtual) core.
struct Worker {
  /// Upper bound on one steal_batch transfer. Half of a long deque still
  /// caps here: past ~16 tasks the thief's claim window (and the surplus
  /// re-push loop) costs more than a second steal would.
  static constexpr std::size_t kStealBatchMax = 16;

  int id = 0;
  int core = 0;
  Squad* squad = nullptr;
  /// Squad-local slot (id - squad->first_worker): this worker's bit in the
  /// squad's occupancy mask.
  int squad_slot = 0;
  bool is_head = false;
  Engine* engine = nullptr;

  /// Epoch this worker is currently draining (set on wake, cleared when
  /// the worker re-parks). Only touched by the worker's own thread; every
  /// acquire/spawn path reads the tier, injection pool and partition
  /// boundaries through it.
  EpochContext* ctx = nullptr;
  /// This worker's index in ctx->workers (computed once on wake): the
  /// self-exclusion index for the baselines' partition-wide steal.
  int ctx_slot = 0;

  /// Intra-socket task pool (per-worker deque of Fig. 3); also the plain
  /// work-stealing deque under kRandomStealing.
  deque::ChaseLevDeque<TaskFrame*> intra;

  /// NUMA-local recycling pool for the frames this worker spawns (unused
  /// when Engine::frame_pool is off). Owner-thread operations only, except
  /// push_remote — see frame_pool.hpp.
  FramePool pool;

  /// Slots for lazily-created child frames (the Engine::lazy fast path,
  /// DESIGN.md §5h). Owner-thread only apart from the slots' claim words,
  /// which thieves drive through the promotion handshake.
  LazyStack lazy_stack;

  /// One-entry publication buffer for lazy spawns: the newest lazy child
  /// waits here, private to the owner, and reaches the deque only when a
  /// second spawn displaces it (push_local). The owner's pop takes it back
  /// without the deque's seq_cst pop fence, so a spawn-spawn-sync pattern
  /// pays one deque round-trip per *two* children. Thieves steal from the
  /// FIFO top, i.e. they want the oldest (shallowest) child, so deferring
  /// publication of the newest one hides no breadth from them. Deadlock-
  /// free because the one sync wait (join) pops (pop_local) first, as does
  /// every acquire: a nonempty buffer is always the very next task its
  /// owner runs. Cleared by construction at epoch end — a buffered child
  /// is an unexecuted descendant, so the root cannot join while one
  /// exists.
  TaskFrame* spawn_cache = nullptr;

  util::Xorshift64 rng;
  WorkerStats stats;

  /// Timestamped timeline of spans/events (only filled when
  /// Options::trace). Single-writer: appended to by this worker's thread
  /// only, read by Runtime::trace() after run() has returned.
  obs::TimelineBuffer tl;

  /// This worker's hardware counter group (opened on the worker's own
  /// thread when Options::hw_counters and perf is available; otherwise
  /// stays closed and every call is a no-op).
  obs::metrics::PerfGroup perf;
  /// Depth of open inter-tier counter measurements on this worker: only
  /// the outermost inter-socket task body is sampled, so nested inter
  /// tasks (run while helping inside a sync) are counted once, as part
  /// of the enclosing span.
  int hw_inter_depth = 0;

  /// Innermost task this worker is currently executing (nullptr if idle).
  TaskFrame* current = nullptr;

  /// Per-epoch fold of "could a spawn here be an inter-tier child?" —
  /// true only for a non-degenerate CAB epoch with lazy spawning on.
  /// Set once per wake (worker_main); read per spawn in try_begin_lazy,
  /// where it gates the only per-level eligibility test left.
  bool lazy_tier_check = false;

  std::thread thread;

  /// Runs `t` to completion: body, implicit sync (join), then joins the
  /// parent and releases the squad busy-state if needed. A lazy frame
  /// (own pop_local only; every steal path promotes first) runs in place
  /// on its stack slot: claimed from any racing promotion before the body,
  /// joined to its parent through the plain completed_local, its slot
  /// freed instead of recycled.
  void execute(TaskFrame* t);

  /// Thief side of the lazy handshake: claims the victim's stack slot,
  /// relocates the capture into a frame from *this* worker's pool, and
  /// releases the slot. Returns the promoted frame (identity transfer —
  /// no frame_created/destroyed tick).
  TaskFrame* promote_lazy(TaskFrame* t);

  /// The one sync wait (implicit and explicit): releases the squad
  /// busy-state if `t` is a non-leaf inter-socket task (leaf ones hold it
  /// to completion), then until its children have joined pops the own
  /// deque first, else runs Algorithm I's acquire like a free worker, else
  /// yields — never sleeps.
  void join(TaskFrame* t);

  /// One attempt to acquire a task as a *free* worker (Algorithm I).
  /// Returns nullptr when nothing was found (caller backs off). `desperate`
  /// is set once the caller's failed streak crossed kStarvationEscapeFails.
  TaskFrame* acquire(bool desperate);

  /// Returns a completed (or aborted, pre-publication) frame to its home
  /// pool: freelist push when this worker owns it, MPSC remote-free push
  /// when another worker does, plain delete for `--frame-pool=off` heap
  /// frames (home == nullptr).
  void recycle(TaskFrame* t);

  /// Sets this worker's occupancy bit (push made the deque plausibly
  /// nonempty); counts the transition. No-op unless Engine::mask_active.
  void mark_occupied();

  /// Publishes a lazy child: displaces the currently buffered one (if
  /// any) onto the deque — preserving spawn order, oldest deepest — and
  /// buffers `t`. Returns true when the displacement made the deque
  /// plausibly nonempty (caller marks occupancy); a buffer-only spawn
  /// publishes nothing thieves can see, so there is nothing to advertise.
  bool push_local(TaskFrame* t) {
    TaskFrame* prev = spawn_cache;
    spawn_cache = t;
    if (prev == nullptr) return false;
    intra.push_bottom(prev);
    return true;
  }

  /// Owner-side pop: the buffered newest child first (no fence — the
  /// buffer is owner-private), then the deque bottom. Every owner pop
  /// site goes through here so a wait can never strand a buffered child.
  TaskFrame* pop_local() {
    if (TaskFrame* t = spawn_cache) {
      spawn_cache = nullptr;
      return t;
    }
    return intra.pop_bottom();
  }

 private:
  TaskFrame* acquire_cab(bool desperate);
  TaskFrame* acquire_random();
  TaskFrame* acquire_sharing();
  TaskFrame* steal_intra_in_squad();
  /// One steal attempt against `victim`'s intra deque: a steal-half batch
  /// under kWeightedHalf (surplus re-pushed onto this worker's deque),
  /// a single steal_top otherwise. `taken` reports the batch size (0 on
  /// miss); a miss hearsay-clears the victim's occupancy bit.
  TaskFrame* steal_intra_from(int victim, std::size_t& taken);
  TaskFrame* steal_intra_global();
  TaskFrame* steal_inter_from_other_squads();
  TaskFrame* take_inter_from_own_squad();

  void finish(TaskFrame* t);
};

static_assert(util::layout::disjoint_lines(CAB_SPAN(Worker, intra),
                                           CAB_SPAN(Worker, pool)),
              "hot-cohabit: Worker::intra and pool must not share a line");
// order-ok: fields are declared in acquire-path access order (identity,
// epoch binding, pools, observability), not packed by alignment — the
// line of padding a repack would reclaim is irrelevant at one Worker
// per core.
static_assert(util::layout::within_lines(sizeof(Worker), 12),
              "reorder-waste: Worker outgrew its 12-line budget");

/// One in-flight run()/run_on() epoch over a subset of squads — the unit
/// of *space partitioning*. The classic single-caller run() uses a
/// permanent context covering every squad (Engine::full_ctx); the job
/// service builds one per admitted job over that job's disjoint squad
/// set. Everything epoch-scoped lives here so epochs on disjoint
/// partitions can be in flight concurrently: the bi-tier protocol (tier),
/// root injection, DAG-drained flag, exception capture, and the
/// joined/working quiescence counts run() waits on.
///
/// Stealing is confined to the context: intra steals stay in-squad as
/// always, inter steals iterate `squads`, and the classic baselines'
/// global steal walks `workers` — so a partition never sees (or leaks)
/// another job's tasks, which is what preserves both the paper's
/// cache-affinity argument and per-job task conservation.
struct EpochContext {
  /// Tier assignment for this epoch's DAG. bl is relative to the
  /// *partition*: Eq. 4 with M = squads.size(). Mutated only between
  /// epochs (adaptive retuning on the full context; per-job sizing in the
  /// service).
  dag::TierAssignment tier;

  /// The partition: this epoch's squads and their workers, in squad
  /// order. Fixed before the context is ever activated.
  std::vector<Squad*> squads;
  std::vector<Worker*> workers;

  /// Root injection queue (the submitting thread may not touch worker
  /// deques) — also the central pool under kTaskSharing.
  deque::LockedDeque<TaskFrame*> inject;

  /// First exception thrown by any task body this epoch; rethrown by the
  /// submitting thread after the DAG has drained.
  std::mutex exception_mu;
  std::exception_ptr first_exception;

  /// Guarded by Engine::lifecycle_mu. `joined`/`working` are the
  /// quiescence counts the submitting thread waits on (see Engine);
  /// `start_ns` stamps workers' lead-in idle spans.
  std::uint64_t start_ns = 0;
  int working = 0;
  int joined = 0;

  /// This epoch's DAG has fully drained (see the root_done comment that
  /// used to live on Engine: a flag, not a task counter — the root frame
  /// finishing implies every descendant already has, by implicit-sync
  /// induction). Every parked-at-sync worker polls this flag, so it is
  /// the *last* member: line-aligned at the front, and nothing behind it
  /// can move onto its line (asserted below the struct).
  alignas(util::kCacheLineSize) std::atomic<bool> root_done{true};

  void capture_exception(std::exception_ptr e) {
    std::lock_guard<std::mutex> lk(exception_mu);
    if (!first_exception) first_exception = std::move(e);
  }

  /// Rethrows the captured exception, if any, on the submitting thread.
  void rethrow_captured() {
    std::exception_ptr thrown;
    {
      std::lock_guard<std::mutex> lk(exception_mu);
      thrown = first_exception;
    }
    if (thrown) std::rethrow_exception(thrown);
  }

  /// True when CAB must degrade to classic random stealing for this
  /// epoch (BL == 0, Algorithm II step 2 / Section V-D — including every
  /// single-squad partition).
  bool cab_degenerate(SchedulerKind kind) const {
    return kind == SchedulerKind::kCab && tier.bl == 0;
  }
};

static_assert(util::layout::one_line(CAB_SPAN(EpochContext, exception_mu)),
              "hot-straddle: EpochContext::exception_mu must sit in one "
              "line");
static_assert(util::layout::owns_lines(CAB_SPAN(EpochContext, root_done),
                                       sizeof(EpochContext)),
              "tail-shared: EpochContext::root_done must own its line");
// order-ok: the line of padding an alignment repack would reclaim is
// the price of keeping root_done line-aligned *and last* (see its
// comment); contexts are one-per-epoch, not per-core.
static_assert(util::layout::within_lines(sizeof(EpochContext), 5),
              "reorder-waste: EpochContext outgrew its 5-line budget");

/// Shared scheduler state: all workers, all squads, the policy, and the
/// run lifecycle. Owned by Runtime via unique_ptr (stable address —
/// workers keep raw pointers).
struct Engine {
  explicit Engine(const hw::Topology& t)
      : topo(t), registry(t.sockets() * t.cores_per_socket()) {}

  hw::Topology topo;
  SchedulerKind kind = SchedulerKind::kCab;
  /// Intra-squad victim selection / transfer policy (Options::steal).
  StealPolicy steal = StealPolicy::kWeightedHalf;
  /// Occupancy-mask maintenance is live: kCab with a non-uniform steal
  /// policy. Precomputed so the spawn path pays one bool test before the
  /// (usually no-op) mask update.
  bool mask_active = false;
  bool pin_threads = false;
  bool trace = false;
  bool metrics = true;
  bool hw_counters = false;
  /// Frame recycling on (default). Off = the `--frame-pool=off` ablation:
  /// every spawn heap-allocates its frame and boxes its callable, i.e.
  /// the seed allocation strategy, kept measurable for the spawn-overhead
  /// benches.
  bool frame_pool = true;
  /// Lazy spawn fast path on (= Options::lazy_spawn && frame_pool):
  /// intra-tier spawns put the child frame on the spawning worker's
  /// LazyStack and thieves promote at steal time (DESIGN.md §5h). Off =
  /// the `--lazy-spawn=off` ablation, the PR 5 eager-pooled path.
  bool lazy = false;
  std::size_t trace_capacity = 0;
  std::uint64_t trace_epoch_ns = 0;
  /// Ring-buffer drop policy for the timelines (Options::trace_ring).
  bool trace_ring = false;

  /// Metrics registry: one writer slot per worker. Scheduler counters
  /// are flushed into it from WorkerStats at snapshot time (zero hot-path
  /// cost); the HW counter gauges below are stored by the workers
  /// themselves at epoch boundaries and around inter-tier task bodies.
  obs::metrics::Registry registry;
  /// Pre-registered per-tier HW counters, indexed by HwCounter; null when
  /// Options::metrics is off. "total" is cumulative over every enabled
  /// epoch; "inter" accumulates deltas measured around outermost
  /// inter-socket task bodies (intra = total - inter, derived at flush).
  std::array<obs::metrics::Counter*, obs::metrics::kHwCounterCount>
      hw_total{};
  std::array<obs::metrics::Counter*, obs::metrics::kHwCounterCount>
      hw_inter{};
  /// Pre-registered steal.batch_size histogram (per-thief batch sizes);
  /// null when Options::metrics is off.
  obs::metrics::Histogram* steal_batch_hist = nullptr;

  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<std::unique_ptr<Squad>> squads;

  /// The permanent full-machine context: every squad, BL = Options::
  /// boundary_level (retuned between epochs by the adaptive controller).
  /// Runtime::run() executes on it; run_on() builds a transient context
  /// over a squad subset instead.
  std::unique_ptr<EpochContext> full_ctx;

  /// Epochs currently in flight across every partition. Guards the
  /// "call between run()s only" contract on trace()/stats()/
  /// metrics_snapshot()/adapt_report(): those flush or read per-worker
  /// buffers that are only quiescent when nothing is running, and with
  /// the job service that is no longer implied by program order.
  /// Written under lifecycle_mu; read lock-free by the contract checks.
  // pad-ok: cold — two RMWs per epoch (both under lifecycle_mu), loads
  // only from the rarely-called report/snapshot contract checks.
  std::atomic<int> active_epochs{0};

  /// Live task frames and their high-water mark — the measured quantity
  /// behind the paper's Eq. 15 space bound (frames, not bytes). Gated on
  /// `frame_accounting` (= Options::metrics): the create/destroy pair is
  /// two shared-cache-line RMWs per task, which is pure observability
  /// cost the metrics-off spawn path must not pay.
  bool frame_accounting = true;
  alignas(util::kCacheLineSize) std::atomic<std::int64_t> live_frames{0};
  alignas(util::kCacheLineSize) std::atomic<std::int64_t> peak_frames{0};

  void frame_created() {
    if (!frame_accounting) return;
    const std::int64_t cur =
        live_frames.fetch_add(1, std::memory_order_relaxed) + 1;
    std::int64_t p = peak_frames.load(std::memory_order_relaxed);
    while (cur > p && !peak_frames.compare_exchange_weak(
                          p, cur, std::memory_order_relaxed)) {
    }
  }
  void frame_destroyed() {
    if (!frame_accounting) return;
    live_frames.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Run lifecycle: workers park until their squad is bound to an epoch,
  /// exit on `shutdown`. One mutex/cv pair serves every partition: a
  /// worker's wake predicate reads only its own squad's binding, and the
  /// occasional cross-partition spurious wake re-parks immediately.
  ///
  /// The per-context `working`/`joined` counts (guarded here) are what a
  /// submitting thread waits on: a worker's very last acquire attempt can
  /// write stats/timeline entries *after* root_done was set, so waiting
  /// on root_done alone would let the submitter read those buffers
  /// mid-write; and a short epoch can finish while a slow-waking worker
  /// is still parked, whose straggler lead-in idle event would land in a
  /// timeline being read. The mutex hand-off at the final decrement is
  /// the happens-before edge that makes post-run stats()/trace() safe.
  alignas(util::kCacheLineSize) std::mutex lifecycle_mu;
  std::condition_variable lifecycle_cv;
  std::condition_variable done_cv;
  bool shutdown = false;
  /// Monotonic activation counter shared by every partition; each
  /// activation stamps its squads' ctx_epoch from it (guarded by
  /// lifecycle_mu).
  std::uint64_t epoch = 0;

  void worker_main(Worker& w);
  void notify_if_done();
};

static_assert(util::layout::one_line(CAB_SPAN(Engine, lifecycle_mu)),
              "hot-straddle: Engine::lifecycle_mu must sit in one line");
static_assert(util::layout::disjoint_lines(CAB_SPAN(Engine, registry),
                                           CAB_SPAN(Engine, active_epochs)) &&
                  util::layout::disjoint_lines(
                      CAB_SPAN(Engine, active_epochs),
                      CAB_SPAN(Engine, live_frames)) &&
                  util::layout::owns_lines(CAB_SPAN(Engine, live_frames),
                                           CAB_OFFSETOF(Engine, peak_frames)),
              "hot-cohabit: Engine's registry, active_epochs, live_frames "
              "and peak_frames must not share lines");
// share-ok: straddle-ok: the mutex and both cvs are park/wake slow path,
// always touched together under lifecycle_mu — splitting them across
// lines (or un-straddling the cvs) buys nothing; the alignas only keeps
// the cluster off the peak_frames counter's line.
static_assert(util::layout::owns_lines(CAB_SPAN(Engine, peak_frames),
                                       CAB_OFFSETOF(Engine, lifecycle_mu)) &&
                  util::layout::lines_touched(util::layout::cluster(
                      CAB_SPAN(Engine, lifecycle_mu),
                      CAB_SPAN(Engine, done_cv))) <= 3,
              "hot-cohabit: Engine's lifecycle mutex/cv cluster must stay "
              "within 3 lines, off peak_frames' line");
// order-ok: declared by concern (policy knobs, topology maps, frame
// accounting, lifecycle) — a single instance exists, so the line of
// padding an alignment repack would save is noise.
static_assert(util::layout::within_lines(sizeof(Engine), 11),
              "reorder-waste: Engine outgrew its 11-line budget");

/// The worker owning the current thread (nullptr on non-worker threads).
/// Defined in worker.cpp; declared here so the header-inline lazy spawn
/// fast path (runtime.hpp) can reach the current worker without a call.
extern thread_local Worker* tls_worker;

}  // namespace cab::runtime
