#include "runtime/runtime.hpp"

#include "util/assert.hpp"

namespace cab::runtime {

std::int32_t auto_boundary_level(const hw::Topology& topo,
                                 std::uint64_t input_bytes,
                                 std::int32_t branching) {
  dag::PartitionParams p;
  p.branching = branching;
  p.sockets = topo.sockets();
  p.input_bytes = input_bytes;
  p.shared_cache_bytes = topo.shared_cache_bytes();
  return dag::boundary_level(p);
}

Runtime::Runtime(Options opts) : opts_(opts), engine_(new Engine(opts.topo)) {
  Engine& e = *engine_;
  e.kind = opts.kind;
  e.steal = opts.steal;
  e.mask_active = opts.kind == SchedulerKind::kCab &&
                  opts.steal != StealPolicy::kUniform;
  e.pin_threads = opts.pin_threads;
  e.trace = opts.trace;
  e.metrics = opts.metrics;
  e.hw_counters = opts.metrics && opts.hw_counters;
  e.frame_pool = opts.frame_pool;
  // Lazy spawning needs the pools (promotion materializes into the
  // thief's pool, so the frame-pool-off ablation keeps the seed path)
  // and a stealing scheduler: task sharing hands frames to a shared
  // pool where the owner-pop/promotion split has no meaning. Folding
  // the kind in here keeps try_begin_lazy to a single flag test.
  e.lazy = opts.lazy_spawn && opts.frame_pool &&
           opts.kind != SchedulerKind::kTaskSharing;
  e.frame_accounting = opts.metrics;
  e.trace_capacity = opts.trace_capacity;
  e.trace_epoch_ns = obs::now_ns();
  e.trace_ring = opts.trace_ring;
  CAB_CHECK(opts.boundary_level >= 0, "boundary level must be >= 0");

  std::int32_t full_bl = opts.boundary_level;
  if (opts_.adapt.mode != adapt::Mode::kStatic) {
    adapt_ = std::make_unique<adapt::Controller>(opts_.adapt, opts_.topo);
    if (opts_.adapt.mode == adapt::Mode::kFixed &&
        e.kind == SchedulerKind::kCab) {
      full_bl = opts_.adapt.fixed_bl >= 0 ? opts_.adapt.fixed_bl : 0;
    }
  }

  const int m = e.topo.sockets();
  const int n = e.topo.cores_per_socket();

  if (e.metrics) {
    std::vector<std::int32_t> squads_of;
    squads_of.reserve(static_cast<std::size_t>(m * n));
    for (int w = 0; w < m * n; ++w) {
      squads_of.push_back(static_cast<std::int32_t>(e.topo.socket_of(w)));
    }
    e.registry.set_writer_squads(std::move(squads_of));
    // HW counter slots are pre-registered (and worker threads only store
    // into their own slots), so no registration ever races a worker.
    for (int i = 0; i < obs::metrics::kHwCounterCount; ++i) {
      const auto c = static_cast<obs::metrics::HwCounter>(i);
      const std::string name = std::string("hw.") + obs::metrics::to_string(c);
      e.hw_total[static_cast<std::size_t>(i)] =
          &e.registry.counter(name, {{"tier", "total"}});
      e.hw_inter[static_cast<std::size_t>(i)] =
          &e.registry.counter(name, {{"tier", "inter"}});
      e.registry.counter(name, {{"tier", "intra"}});  // derived at flush
    }
    // Batch-size histogram pre-registered like the hw counters: workers
    // observe() into their own writer rows, so no registration races.
    // Bounds cover 1..kStealBatchMax in octaves (larger batches overflow).
    e.steal_batch_hist =
        &e.registry.histogram("steal.batch_size", {1, 2, 4, 8, 16});
    if (!e.hw_counters) {
      e.registry.set_hw_status(false,
                               "hardware counters not requested "
                               "(Options::hw_counters)");
    } else if (!obs::metrics::perf_available()) {
      e.registry.set_hw_status(false, obs::metrics::perf_unavailable_reason());
    } else {
      e.registry.set_hw_status(true, "");
    }
  }

  e.squads.reserve(static_cast<std::size_t>(m));
  for (int s = 0; s < m; ++s) {
    auto sq = std::make_unique<Squad>();
    sq->id = s;
    sq->first_worker = s * n;
    sq->head_worker = s * n;  // smallest id in the squad (Section IV-C)
    sq->worker_count = n;
    e.squads.push_back(std::move(sq));
  }

  std::uint64_t seed_state = opts.seed;
  e.workers.reserve(static_cast<std::size_t>(m * n));
  for (int w = 0; w < m * n; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->id = w;
    worker->core = w;  // worker id == core id (Section IV-C)
    worker->squad = e.squads[static_cast<std::size_t>(e.topo.socket_of(w))].get();
    worker->squad_slot = w - worker->squad->first_worker;
    worker->is_head = (w == worker->squad->head_worker);
    worker->engine = &e;
    worker->rng = util::Xorshift64(util::splitmix64(seed_state));
    worker->tl.configure(e.trace, e.trace_capacity, e.trace_epoch_ns,
                         e.trace_ring);
    e.workers.push_back(std::move(worker));
  }
  // The permanent full-machine context run() executes on: every squad,
  // every worker, BL as configured above. run_on() partitions build their
  // own transient contexts against subsets of the same squads.
  e.full_ctx = std::make_unique<EpochContext>();
  e.full_ctx->tier.bl = full_bl;
  e.full_ctx->squads.reserve(e.squads.size());
  for (auto& sq : e.squads) e.full_ctx->squads.push_back(sq.get());
  e.full_ctx->workers.reserve(e.workers.size());
  for (auto& w : e.workers) e.full_ctx->workers.push_back(w.get());
  // Threads start only after the workers vector is fully built: workers
  // address each other through engine->workers during stealing.
  for (auto& worker : e.workers) {
    Worker* raw = worker.get();
    raw->thread = std::thread([&e, raw] { e.worker_main(*raw); });
  }
}

Runtime::~Runtime() {
  Engine& e = *engine_;
  {
    std::lock_guard<std::mutex> lk(e.lifecycle_mu);
    e.shutdown = true;
  }
  e.lifecycle_cv.notify_all();
  for (auto& w : e.workers) {
    if (w->thread.joinable()) w->thread.join();
  }
}

std::uint64_t Runtime::run_ctx(EpochContext& ctx, std::function<void()> root) {
  Engine& e = *engine_;
  CAB_CHECK(tls_worker == nullptr, "run() must not be called from a task");
  const bool root_inter =
      e.kind == SchedulerKind::kCab && !ctx.cab_degenerate(e.kind);
  {
    std::lock_guard<std::mutex> lk(ctx.exception_mu);
    ctx.first_exception = nullptr;
  }
  // Reserve the partition first: binding every squad (all CHECKed unbound)
  // under lifecycle_mu makes this thread the exclusive owner of the
  // partition's parked workers — including the first worker's frame pool
  // used for the root frame below. Binding alone wakes nobody: workers
  // wake on the ctx_epoch stamp, published after the root is in place.
  // Overlapping partitions fail loudly here instead of racing.
  {
    std::lock_guard<std::mutex> lk(e.lifecycle_mu);
    for (Squad* s : ctx.squads) {
      CAB_CHECK(s->ctx == nullptr, "squad already bound to a running epoch");
      s->ctx = &ctx;
    }
    e.active_epochs.fetch_add(1, std::memory_order_relaxed);
  }
  // The root frame comes from the partition's first worker's pool: that
  // worker is parked until the stamp below, so this thread temporarily
  // owns its pool, and the lifecycle_mu hand-off publishes these writes
  // to whichever worker picks the frame up. A std::function is 32 bytes —
  // inside TaskBody's inline budget — so even the type-erased root body
  // allocates nothing.
  Worker& w0 = *ctx.workers.front();
  TaskFrame* frame;
  if (e.frame_pool) {
    frame = w0.pool.acquire(w0.stats);
    frame->prepare(nullptr, 0, root_inter);
    frame->body.emplace(std::move(root));
  } else {
    // alloc-ok: --frame-pool=off ablation — plain heap frames throughout.
    frame = new TaskFrame();
    frame->prepare(nullptr, 0, root_inter);
    frame->body.emplace_boxed(std::move(root));
  }
  e.frame_created();
  // Plain store: the ctx_epoch stamp below publishes it (workers read the
  // stamp under lifecycle_mu before their first root_done load).
  ctx.root_done.store(false, std::memory_order_relaxed);
  ctx.inject.push_bottom(frame);
  std::uint64_t this_epoch = 0;
  {
    std::lock_guard<std::mutex> lk(e.lifecycle_mu);
    this_epoch = ++e.epoch;
    ctx.start_ns = obs::now_ns();
    ctx.joined = 0;
    for (Squad* s : ctx.squads) s->ctx_epoch = this_epoch;
  }
  e.lifecycle_cv.notify_all();

  {
    // All three conditions: the DAG is drained, every partition worker
    // woke into this epoch, and every one of them has left its drain loop
    // (see EpochContext::working / joined) — only then are the partition's
    // per-worker stats/timeline buffers quiescent.
    std::unique_lock<std::mutex> lk(e.lifecycle_mu);
    e.done_cv.wait(lk, [&] {
      return ctx.root_done.load(std::memory_order_acquire) &&
             ctx.joined == static_cast<int>(ctx.workers.size()) &&
             ctx.working == 0;
    });
    // Release the partition while still holding the lock of the wait: the
    // squads are immediately reusable by the next epoch (theirs or another
    // job's).
    for (Squad* s : ctx.squads) s->ctx = nullptr;
    e.active_epochs.fetch_sub(1, std::memory_order_relaxed);
  }
  return this_epoch;
}

void Runtime::run(std::function<void()> root) {
  Engine& e = *engine_;
  EpochContext& ctx = *e.full_ctx;
  const std::int32_t epoch_bl = ctx.tier.bl;
  const std::uint64_t wall0 = adapt_ ? obs::now_ns() : 0;
  const std::uint64_t this_epoch = run_ctx(ctx, std::move(root));
  if (adapt_) {
    // Workers are parked (working == 0): their stats and hw.* slots are
    // quiescent, and a tier.bl store here is published to every worker by
    // the lifecycle_mu hand-off of the next epoch increment. BL therefore
    // only ever changes *between* epochs. (run() holds every squad, so no
    // concurrent run_on() partition can be mutating stats under us; the
    // adaptive controller is rejected for run_on() callers below.)
    retune_after_epoch(this_epoch, epoch_bl, obs::now_ns() - wall0);
  }
  ctx.rethrow_captured();
}

void Runtime::run_on(const std::vector<int>& squad_ids,
                     std::int32_t boundary_level, std::function<void()> root) {
  Engine& e = *engine_;
  CAB_CHECK(!squad_ids.empty(), "run_on(): empty squad set");
  CAB_CHECK(boundary_level >= 0, "run_on(): boundary level must be >= 0");
  // The adaptive controller profiles whole-machine epochs (it reads every
  // worker's stats after run()); mixing it with concurrent partitions
  // would race those reads. Service-style callers size BL statically
  // (Eq. 4 with M = partition squads) instead.
  CAB_CHECK(adapt_ == nullptr,
            "run_on() requires Options::adapt.mode == kStatic");
  EpochContext ctx;
  ctx.squads.reserve(squad_ids.size());
  for (int s : squad_ids) {
    CAB_CHECK(s >= 0 && s < static_cast<int>(e.squads.size()),
              "run_on(): squad id out of range");
    Squad* sq = e.squads[static_cast<std::size_t>(s)].get();
    for (const Squad* seen : ctx.squads) {
      CAB_CHECK(seen != sq, "run_on(): duplicate squad id");
    }
    ctx.squads.push_back(sq);
  }
  for (Squad* sq : ctx.squads) {
    for (int w = sq->first_worker; w < sq->first_worker + sq->worker_count;
         ++w) {
      ctx.workers.push_back(e.workers[static_cast<std::size_t>(w)].get());
    }
  }
  // Single-squad partitions have no inter-socket tier by construction:
  // Algorithm II's degenerate case (BL = 0 => classic work-stealing
  // inside the partition).
  ctx.tier.bl =
      ctx.squads.size() <= 1 ? 0 : boundary_level;
  run_ctx(ctx, std::move(root));
  ctx.rethrow_captured();
}

namespace spawn_detail {

Pending begin_spawn(bool force_inter) {
  Worker* w = tls_worker;
  CAB_CHECK(w != nullptr && w->current != nullptr,
            "spawn() called outside a task");
  Engine& e = *w->engine;
  TaskFrame* parent = w->current;
  // Tier classification against the worker's *partition* tier: BL is
  // relative to the epoch context, so the same DAG level can be inter
  // under one job's partition and intra under another's.
  const EpochContext& ctx = *w->ctx;
  const bool inter =
      e.kind == SchedulerKind::kCab && !ctx.cab_degenerate(e.kind) &&
      (force_inter || ctx.tier.spawns_inter_child(parent->level));
  TaskFrame* t;
  if (e.frame_pool) {
    t = w->pool.acquire(w->stats);
  } else {
    // alloc-ok: --frame-pool=off ablation — the seed allocation strategy
    // (one heap frame per spawn), kept as the bench baseline.
    t = new TaskFrame();
  }
  t->prepare(parent, parent->level + 1, inter);
  return Pending{w, t, /*boxed=*/!e.frame_pool};
}

void commit_spawn(const Pending& p) {
  Worker* w = p.worker;
  TaskFrame* t = p.frame;
  TaskFrame* parent = t->parent;
  Engine& e = *w->engine;
  e.frame_created();
  if (!parent->has_children) {
    parent->has_children = true;
    ++w->stats.spawning_tasks;
  }
  // Owner-only plain increment: spawn() runs on the worker executing
  // `parent`, so the spawn half of the join counter needs no atomicity
  // (the completion half does — see TaskFrame::completed).
  ++parent->spawned;
  if (t->inter) {
    // Algorithm II(a): inter-socket child goes to the spawner's squad pool
    // (parent-first: the spawner continues with the parent).
    ++w->stats.spawns_inter;
    w->squad->inter_pool.push_bottom(t);
  } else if (e.kind == SchedulerKind::kTaskSharing) {
    ++w->stats.spawns_intra;
    w->ctx->inject.push_bottom(t);
  } else {
    // Intra-socket child onto the worker's own deque; LIFO pops make the
    // local execution order depth-first (the child-first policy's order).
    parent->has_intra_children = true;
    ++w->stats.spawns_intra;
    w->intra.push_bottom(t);
    // Advertise the (plausibly) nonempty deque to weighted thieves —
    // usually a no-op load once the bit is set.
    w->mark_occupied();
  }
  if (w->tl.enabled) {
    w->tl.mark(t->inter ? obs::EventKind::kSpawnInter
                        : obs::EventKind::kSpawnIntra,
               t->level, 0);
  }
}

void abort_spawn(const Pending& p) noexcept {
  // Emplacing the callable threw. The frame was never published (no
  // counter moved, nothing pushed), so returning it to its pool is the
  // whole rollback.
  p.worker->recycle(p.frame);
}

}  // namespace spawn_detail

void Runtime::sync() {
  Worker* w = tls_worker;
  CAB_CHECK(w != nullptr && w->current != nullptr,
            "sync() called outside a task");
  w->join(w->current);
}

int Runtime::current_worker() {
  return tls_worker != nullptr ? tls_worker->id : -1;
}

int Runtime::current_squad() {
  return tls_worker != nullptr ? tls_worker->squad->id : -1;
}

int Runtime::worker_count() const {
  return static_cast<int>(engine_->workers.size());
}

SchedulerStats Runtime::stats() const {
  CAB_CHECK(engine_->active_epochs.load(std::memory_order_acquire) == 0,
            "stats() while an epoch is running");
  SchedulerStats s;
  s.per_worker.reserve(engine_->workers.size());
  for (const auto& w : engine_->workers) {
    s.per_worker.push_back(w->stats);
    s.total += w->stats;
  }
  return s;
}

void Runtime::reset_stats() {
  for (auto& w : engine_->workers) {
    w->stats = WorkerStats{};
    w->tl.clear();
  }
  engine_->registry.reset();
  engine_->peak_frames.store(0, std::memory_order_relaxed);
  // The epoch-delta baselines mirror the cumulative WorkerStats and hw.*
  // slots just cleared; left stale they would underflow the next sample.
  adapt_base_ = AdaptBaseline{};
}

bool Runtime::hw_counters_active() const {
  return engine_->hw_counters && obs::metrics::perf_available();
}

obs::metrics::Registry& Runtime::registry() { return engine_->registry; }

std::int32_t Runtime::current_boundary_level() const {
  CAB_CHECK(engine_->active_epochs.load(std::memory_order_acquire) == 0,
            "current_boundary_level() while an epoch is running");
  return engine_->full_ctx->tier.bl;
}

adapt::Report Runtime::adapt_report() const {
  CAB_CHECK(engine_->active_epochs.load(std::memory_order_acquire) == 0,
            "adapt_report() while an epoch is running");
  if (adapt_) return adapt_->report();
  adapt::Report r;
  r.policy = adapt::to_string(opts_.adapt);
  r.sockets = opts_.topo.sockets();
  r.cores_per_socket = opts_.topo.cores_per_socket();
  return r;
}

void Runtime::retune_after_epoch(std::uint64_t epoch, std::int32_t epoch_bl,
                                 std::uint64_t wall_ns) {
  Engine& e = *engine_;
  WorkerStats tot;
  for (const auto& w : e.workers) tot += w->stats;

  const auto delta = [](std::uint64_t cur, std::uint64_t base) {
    return cur > base ? cur - base : 0;
  };
  adapt::EpochSample s;
  s.epoch = epoch;
  s.bl = epoch_bl;
  s.wall_ns = wall_ns;
  s.tasks = delta(tot.tasks_executed, adapt_base_.tasks);
  s.spawns =
      delta(tot.spawns_intra + tot.spawns_inter, adapt_base_.spawns);
  s.spawning_tasks = delta(tot.spawning_tasks, adapt_base_.spawning_tasks);
  s.max_level = tot.max_task_level;
  s.intra_steals = delta(tot.intra_steals, adapt_base_.intra_steals);
  s.inter_steals = delta(tot.inter_steals, adapt_base_.inter_steals);
  s.failed_steals =
      delta(tot.failed_steal_attempts, adapt_base_.failed_steals);
  s.working_set_hint = opts_.adapt.input_bytes_hint;
  s.signal_ok = e.metrics;
  adapt_base_.tasks = tot.tasks_executed;
  adapt_base_.spawns = tot.spawns_intra + tot.spawns_inter;
  adapt_base_.spawning_tasks = tot.spawning_tasks;
  adapt_base_.intra_steals = tot.intra_steals;
  adapt_base_.inter_steals = tot.inter_steals;
  adapt_base_.failed_steals = tot.failed_steal_attempts;

  if (hw_counters_active()) {
    const auto sum = [&](obs::metrics::Counter* c) {
      std::int64_t t = 0;
      for (const auto& w : e.workers) t += c->value(w->id);
      return t;
    };
    const auto d64 = [](std::int64_t cur, std::int64_t base) {
      return cur > base ? static_cast<std::uint64_t>(cur - base) : 0;
    };
    const auto idx = [](obs::metrics::HwCounter c) {
      return static_cast<std::size_t>(c);
    };
    const std::int64_t loads =
        sum(e.hw_total[idx(obs::metrics::HwCounter::kLlcLoads)]);
    const std::int64_t misses =
        sum(e.hw_total[idx(obs::metrics::HwCounter::kLlcLoadMisses)]);
    const std::int64_t loads_inter =
        sum(e.hw_inter[idx(obs::metrics::HwCounter::kLlcLoads)]);
    const std::int64_t misses_inter =
        sum(e.hw_inter[idx(obs::metrics::HwCounter::kLlcLoadMisses)]);
    s.hw_valid = true;
    s.llc_loads = d64(loads, adapt_base_.llc_loads);
    s.llc_misses = d64(misses, adapt_base_.llc_misses);
    s.llc_loads_inter = d64(loads_inter, adapt_base_.llc_loads_inter);
    s.llc_misses_inter = d64(misses_inter, adapt_base_.llc_misses_inter);
    adapt_base_.llc_loads = loads;
    adapt_base_.llc_misses = misses;
    adapt_base_.llc_loads_inter = loads_inter;
    adapt_base_.llc_misses_inter = misses_inter;
  }

  const std::int32_t next = adapt_->on_epoch_end(s);
  if (e.kind == SchedulerKind::kCab && next != e.full_ctx->tier.bl) {
    e.full_ctx->tier.bl = next;
  }
  if (e.metrics) {
    // Mirror the decision into the registry so Chrome traces pick it up
    // as counter tracks (metric:adapt.*). Writer slot 0: the decision is
    // one value per epoch, not a per-worker quantity.
    const adapt::Decision& d = adapt_->report().decisions.back();
    e.registry.gauge("adapt.bl").set(0, next);
    e.registry.gauge("adapt.static_bl").set(0, d.static_bl);
    e.registry.gauge("adapt.epoch").set(0, static_cast<std::int64_t>(epoch));
    e.registry.gauge("adapt.score_ns").set(
        0, static_cast<std::int64_t>(wall_ns));
  }
}

obs::metrics::Snapshot Runtime::metrics_snapshot() const {
  Engine& e = *engine_;
  // "Call between run()s only", enforced: the flush below stores into
  // per-worker registry slots that are only quiescent when no epoch is in
  // flight on ANY partition. With the job service this is no longer
  // implied by program order, so a racing call fails loudly here instead
  // of corrupting single-writer slots.
  CAB_CHECK(e.active_epochs.load(std::memory_order_acquire) == 0,
            "metrics_snapshot() while an epoch is running");
  if (!e.metrics) return e.registry.snapshot();  // empty, hw unavailable
  // Flush the cumulative WorkerStats into registry counters. Workers are
  // parked between run()s, so the main thread may store into their slots.
  const std::int64_t sleep_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(kIdleBackoffSleep)
          .count();
  struct Field {
    const char* name;
    std::uint64_t WorkerStats::*member;
  };
  static constexpr Field kFields[] = {
      {"scheduler.tasks_executed", &WorkerStats::tasks_executed},
      {"scheduler.spawns_intra", &WorkerStats::spawns_intra},
      {"scheduler.spawns_inter", &WorkerStats::spawns_inter},
      {"scheduler.intra_pop_hits", &WorkerStats::intra_pop_hits},
      {"scheduler.intra_steals", &WorkerStats::intra_steals},
      {"scheduler.inter_acquires", &WorkerStats::inter_acquires},
      {"scheduler.inter_steals", &WorkerStats::inter_steals},
      {"scheduler.failed_steal_attempts", &WorkerStats::failed_steal_attempts},
      {"scheduler.steal_batches", &WorkerStats::steal_batches},
      {"scheduler.steal_batch_tasks", &WorkerStats::steal_batch_tasks},
      {"scheduler.weighted_picks", &WorkerStats::weighted_picks},
      {"scheduler.mask_sets", &WorkerStats::mask_sets},
      {"scheduler.mask_clears_own", &WorkerStats::mask_clears_own},
      {"scheduler.mask_clears_hearsay", &WorkerStats::mask_clears_hearsay},
      {"scheduler.help_iterations", &WorkerStats::help_iterations},
      {"scheduler.idle_backoff_sleeps", &WorkerStats::idle_backoff_sleeps},
      {"scheduler.spawning_tasks", &WorkerStats::spawning_tasks},
      {"alloc.freelist_hits", &WorkerStats::alloc_freelist_hits},
      {"alloc.slab_refills", &WorkerStats::alloc_slab_refills},
      {"alloc.remote_frees", &WorkerStats::alloc_remote_frees},
      {"alloc.remote_drains", &WorkerStats::alloc_remote_drains},
      {"alloc.lazy_spawns", &WorkerStats::alloc_lazy_spawns},
      {"alloc.promotions", &WorkerStats::alloc_promotions},
  };
  for (const Field& f : kFields) {
    obs::metrics::Counter& c = e.registry.counter(f.name);
    for (const auto& w : e.workers) {
      c.store(w->id, static_cast<std::int64_t>(w->stats.*f.member));
    }
  }
  obs::metrics::Gauge& max_level =
      e.registry.gauge("scheduler.max_task_level");
  for (const auto& w : e.workers) {
    max_level.set(w->id, w->stats.max_task_level);
  }
  // Live-frame gauges in writer slot 0: one value per engine (the Eq. 15
  // measured quantity), not a per-worker one.
  e.registry.gauge("alloc.live_frames")
      .set(0, e.live_frames.load(std::memory_order_relaxed));
  e.registry.gauge("alloc.peak_live_frames")
      .set(0, e.peak_frames.load(std::memory_order_relaxed));
  obs::metrics::Counter& idle_ns =
      e.registry.counter("scheduler.idle_backoff_ns");
  for (const auto& w : e.workers) {
    idle_ns.store(w->id, static_cast<std::int64_t>(
                             w->stats.idle_backoff_sleeps) *
                             sleep_ns);
  }
  // Derived intra tier: what ran outside every inter-task body.
  for (int i = 0; i < obs::metrics::kHwCounterCount; ++i) {
    const auto c = static_cast<obs::metrics::HwCounter>(i);
    const std::string name = std::string("hw.") + obs::metrics::to_string(c);
    obs::metrics::Counter& intra =
        e.registry.counter(name, {{"tier", "intra"}});
    for (const auto& w : e.workers) {
      const std::int64_t total =
          e.hw_total[static_cast<std::size_t>(i)]->value(w->id);
      const std::int64_t inter =
          e.hw_inter[static_cast<std::size_t>(i)]->value(w->id);
      intra.store(w->id, total > inter ? total - inter : 0);
    }
  }
  return e.registry.snapshot();
}

obs::Trace Runtime::trace() const {
  CAB_CHECK(engine_->active_epochs.load(std::memory_order_acquire) == 0,
            "trace() while an epoch is running");
  obs::Trace t;
  t.sockets = engine_->topo.sockets();
  t.cores_per_socket = engine_->topo.cores_per_socket();
  t.scheduler = to_string(engine_->kind);
  t.workers.reserve(engine_->workers.size());
  for (const auto& w : engine_->workers) {
    obs::WorkerTimeline wt;
    wt.worker = w->id;
    wt.squad = w->squad->id;
    wt.is_head = w->is_head;
    wt.dropped = w->tl.dropped;
    wt.events = w->tl.snapshot();
    t.workers.push_back(std::move(wt));
  }
  return t;
}

obs::attrib::Attribution Runtime::attrib_report() const {
  return obs::attrib::attribute(trace());
}

void Runtime::mark_task_node(std::int32_t node) {
  Worker* w = tls_worker;
  if (w == nullptr || !w->tl.enabled) return;
  w->tl.mark(obs::EventKind::kTaskNode, node, 0);
}

std::int64_t Runtime::peak_live_frames() const {
  return engine_->peak_frames.load(std::memory_order_relaxed);
}

}  // namespace cab::runtime
