#include <chrono>
#include <thread>

#include "hw/affinity.hpp"
#include "runtime/runtime.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/victim_select.hpp"
#include "util/assert.hpp"
#include "util/spin_lock.hpp"

namespace cab::runtime {

/// Worker executing on the calling thread (nullptr on non-worker threads).
thread_local Worker* tls_worker = nullptr;

namespace {

/// Progressive backoff for the free worker's acquire loop (worker_main;
/// a sync wait only yields, see Worker::join). With virtual topologies the
/// worker count can exceed the physical cores many times over, so we yield
/// early: the task we are waiting for is likely on a descheduled thread.
/// Sleeps are counted so parked time is reconstructible as
/// idle_backoff_sleeps * kIdleBackoffSleep.
void backoff(int& fails, WorkerStats& stats) {
  ++fails;
  if (fails < kBackoffRelaxFails) {
    util::cpu_relax();
  } else if (fails < kBackoffYieldFails) {
    std::this_thread::yield();
  } else {
    ++stats.idle_backoff_sleeps;
    // blocking-ok: deep-idle backoff — only reached after kBackoffYieldFails
    // consecutive failed acquires, i.e. the worker has left the hot steal
    // path and is throttling its probe rate to spare the memory bus.
    std::this_thread::sleep_for(kIdleBackoffSleep);
  }
}

/// Clamped per-counter difference of two group reads; multiplex scaling
/// can make a later scaled value land a hair below an earlier one.
std::int64_t hw_delta(const obs::metrics::HwSample& after,
                      const obs::metrics::HwSample& before, int i) {
  const auto a = after.value[static_cast<std::size_t>(i)];
  const auto b = before.value[static_cast<std::size_t>(i)];
  return a > b ? static_cast<std::int64_t>(a - b) : 0;
}

}  // namespace

void Worker::execute(TaskFrame* t) {
  // Lazy frames arrive here only from this worker's own pop_local — every
  // steal path promotes before returning — and run in place on their
  // stack slot. The deque hands each entry to exactly one taker, so this
  // claim cannot lose to a thief that holds the same entry — it is the
  // model-checked defense-in-depth of the claim protocol
  // (squad_protocol.hpp), and the negative model BrokenPromotionCas shows
  // the double execution that skipping the thief-side gate would permit.
  if (t->lazy) {
    const bool owned = LazyFrame::of(t)->claim.try_own();
    CAB_CHECK(owned, "lazy frame taken twice (owner pop vs promotion)");
  }
  TaskFrame* saved = current;
  current = t;
  ++stats.tasks_executed;
  if (t->level > stats.max_task_level) stats.max_task_level = t->level;
  const bool tr = tl.enabled;
  const std::uint64_t exec_start = tr ? obs::now_ns() : 0;
  // Attribute HW counts of the outermost inter-socket task body to the
  // inter tier (two read() syscalls per such task — inter tasks are the
  // rare tier, Section III-E's "often less than 5%"). The span covers
  // the body only, including tasks run while helping inside an explicit
  // mid-body sync, but not the implicit sync below.
  const bool hw = t->inter && hw_inter_depth == 0 && perf.is_open();
  obs::metrics::HwSample hw0;
  if (hw) {
    ++hw_inter_depth;
    hw0 = perf.read();
  }
  try {
    t->body();
  } catch (...) {
    // Task bodies must not tear down the worker: capture the first
    // exception for the submitting thread to rethrow once this epoch's
    // DAG has drained (children already spawned by the failing body
    // still execute). Captured per epoch context, so one job's failure
    // never leaks into a concurrently running partition.
    ctx->capture_exception(std::current_exception());
  }
  if (hw) {
    const obs::metrics::HwSample hw1 = perf.read();
    for (int i = 0; i < obs::metrics::kHwCounterCount; ++i) {
      engine->hw_inter[static_cast<std::size_t>(i)]->add(
          id, hw_delta(hw1, hw0, i));
    }
    --hw_inter_depth;
  }
  t->body.reset();  // release captured resources before the sync wait

  // Implicit sync (Cilk semantics): a task completes only after all its
  // children have. Helping here is what drains the DAG below this task.
  // A lazy frame stays live (its slot unreclaimed, state kOwned) until
  // then. Most tasks spawn nothing, so the call is skipped when there is
  // no busy-state to release and nothing to wait for: made for every
  // task, it costs the 1-worker lazy spawn about 5 ns (a quarter).
  if (t->inter_acquired_by != nullptr || !t->joined()) join(t);
  if (tr) {
    // Recorded at completion: nested spans (tasks run while helping in
    // the sync above) precede this one in the buffer.
    tl.record(obs::EventKind::kTaskExec, exec_start, obs::now_ns(), t->level,
              t->inter ? 1 : 0);
  }

  current = saved;
  if (t->lazy) {
    engine->frame_destroyed();
    // The lazy join: the parent is suspended on this very worker (lazy
    // children only execute via the owner's pop, and tasks never migrate
    // mid-body), so its completion half is a plain owner-local bump — the
    // atomic RMW the lazy path exists to avoid. The root is never lazy, so
    // parent is always non-null here.
    ++t->parent->completed_local;
    LazyFrame::of(t)->claim.finish_owned();
  } else {
    finish(t);
  }
}

void Worker::join(TaskFrame* t) {
  // A *non-leaf* inter-socket task that reaches its sync stops executing
  // on the squad: it must release busy_state or the squad would be barred
  // from inter-socket work for the task's entire (possibly run-long)
  // subtree lifetime. Leaf inter-socket tasks (level == BL) keep the
  // squad busy until their intra-socket subtree completes — that subtree
  // is the shared-cache residency unit the paper protects.
  if (Squad* sq = t->inter_acquired_by;
      sq != nullptr &&
      !protocol::holds_busy_through_sync(t->has_intra_children)) {
    t->inter_acquired_by = nullptr;
    const std::int32_t now = sq->busy_state.release();
    CAB_CHECK(now >= 0, "squad busy-state underflow at suspend");
    if (tl.enabled) tl.mark(obs::EventKind::kActiveInter, sq->id, now);
  }
  if (t->joined()) return;
  // A worker blocked at a sync acquires work exactly like a free worker
  // (Algorithm I, including head-worker inter-socket stealing). This is
  // what keeps a squad fed while its own subtree work is exhausted but
  // other squads still hold inter-socket tasks. Misses only yield, never
  // sleep: a head blocked here must reach the starvation escape after
  // kStarvationEscapeFails quick probes, not thousands of parked ones.
  const bool tr = tl.enabled;
  const std::uint64_t wait_start = tr ? obs::now_ns() : 0;
  const std::uint64_t help0 = stats.help_iterations;
  const std::uint64_t exec0 = stats.tasks_executed;
  int fails = 0;
  while (!t->joined()) {
    ++stats.help_iterations;
    // Own-deque fast path: the children this sync waits on are (absent a
    // steal) right here, so skip the acquire dispatch and go straight to
    // the pop. A miss falls through to the full Algorithm I probe.
    TaskFrame* c = pop_local();
    if (c != nullptr) {
      ++stats.intra_pop_hits;
    } else {
      c = acquire(fails >= kStarvationEscapeFails);
    }
    if (c != nullptr) {
      fails = 0;
      execute(c);
    } else {
      ++fails;
      std::this_thread::yield();
    }
  }
  if (tr) {
    tl.record(obs::EventKind::kSyncWait, wait_start, obs::now_ns(),
              static_cast<std::int32_t>(stats.help_iterations - help0),
              static_cast<std::int32_t>(stats.tasks_executed - exec0));
  }
}

TaskFrame* Worker::promote_lazy(TaskFrame* t) {
  LazyFrame* lf = LazyFrame::of(t);
  // Same exactly-one-taker argument as execute()'s try_own.
  const bool claimed = lf->claim.try_promote();
  CAB_CHECK(claimed, "lazy frame taken twice (promotion vs owner pop)");
  // Materialize into *this* worker's pool: the thief executes (and with
  // no further steal, completes) the promoted frame, so the frame memory
  // is NUMA-local to its executor and recycles locally.
  TaskFrame* p = pool.acquire(stats);
  p->prepare(t->parent, t->level, /*is_inter=*/false);
  p->body.relocate_from(t->body);
  // Copy-out done: release the slot to its owner. From here the promoted
  // frame is an ordinary pooled frame — it joins through the parent's
  // atomic `completed` and recycles into this worker's pool.
  lf->claim.finish_promotion();
  ++stats.alloc_promotions;
  // Identity transfer: the lazy spawn's frame_created() tick carries over
  // to the promoted frame, so Eq. 15 accounting is unchanged.
  return p;
}

void Worker::finish(TaskFrame* t) {
  if (Squad* sq = t->inter_acquired_by) {
    // The paper's "busy_state := false" when an inter-socket task returns.
    const std::int32_t now = sq->busy_state.release();
    CAB_CHECK(now >= 0, "squad busy-state underflow");
    if (tl.enabled) tl.mark(obs::EventKind::kActiveInter, sq->id, now);
  }
  TaskFrame* parent = t->parent;
  Engine& e = *engine;
  recycle(t);
  e.frame_destroyed();
  if (parent) {
    // acq_rel: release publishes this child's writes to the resuming
    // parent (joined() acquires); acquire keeps the whole release
    // sequence intact for the sibling that completes last.
    parent->completed.fetch_add(1, std::memory_order_acq_rel);
  } else {
    // Root frame done => the whole DAG is done: execute() returned from
    // the implicit sync (joined(), acquire), and every child's own
    // finish() — including *its* implicit sync — happens-before the
    // completed increment that released ours. No per-task counting
    // needed. Per-context flag: only this partition's workers drain out.
    ctx->root_done.store(true, std::memory_order_release);
    e.notify_if_done();
  }
}

void Worker::recycle(TaskFrame* t) {
  CAB_CHECK(!t->lazy, "lazy frame leaked into recycle() — stack slots are "
                      "reclaimed through their claim word, never pooled");
  // Normally a no-op (execute() resets the body right after it returns);
  // arms only for frames aborted before publication, whose capture must
  // still be destroyed.
  t->body.reset();
  FramePool* home = t->home;
  if (home == &pool) {
    pool.release_local(t);
  } else if (home != nullptr) {
    // Completed away from the spawning worker (typically a cross-socket
    // steal): hand the frame back to its home NUMA pool through the MPSC
    // remote-free channel instead of freeing socket-remote memory here.
    ++stats.alloc_remote_frees;
    home->push_remote(t);
  } else {
    // alloc-ok: --frame-pool=off ablation — frames are plain heap objects.
    delete t;
  }
}

TaskFrame* Worker::acquire(bool desperate) {
  if (engine->kind == SchedulerKind::kCab && !ctx->cab_degenerate(engine->kind))
    return acquire_cab(desperate);
  if (engine->kind == SchedulerKind::kTaskSharing) return acquire_sharing();
  return acquire_random();
}

void Worker::mark_occupied() {
  if (!engine->mask_active) return;
  if (squad->occupancy.set(squad_slot)) ++stats.mask_sets;
}

TaskFrame* Worker::acquire_cab(bool desperate) {
  // Step 1: own intra-socket pool (publication buffer first, then deque).
  if (TaskFrame* t = pop_local()) {
    ++stats.intra_pop_hits;
    return t;
  }
  if (engine->mask_active) {
    // Own deque drained: withdraw this worker's occupancy hint so
    // weighted thieves stop picking it (usually a no-op load — the bit
    // only flips on the nonempty->empty transition).
    if (squad->occupancy.clear(squad_slot)) ++stats.mask_clears_own;
  }
  // Steps 2–6: the gate decision is protocol::plan_acquire (model-checked
  // in tests/test_model_check.cpp). Squad busy => intra-socket stealing
  // within the squad only; squad free => the head reaches the
  // inter-socket pools while non-heads loop back to Step 1.
  //
  // Starvation escape (`desperate`): a head that has failed
  // kStarvationEscapeFails times in a row falls through to the
  // inter-socket pools despite the busy gate — the only acquire path that
  // unsticks a squad whose busy-holder is itself waiting on pooled
  // inter-socket descendants (see kStarvationEscapeFails). Deviation from
  // the paper's policy is confined to runs that would otherwise livelock
  // or starve.
  const protocol::AcquirePaths paths =
      protocol::plan_acquire(is_head, squad->busy(), desperate);
  if (paths.steal_intra_in_squad) {
    // Step 3 + 6(a): random in-squad victim, single attempt per call.
    TaskFrame* t = steal_intra_in_squad();
    if (t != nullptr || !paths.inter_pools) return t;
  }
  if (!paths.inter_pools) return nullptr;
  // Step 4: own squad's inter-socket pool (FIFO end: oldest task = the
  // subtree closest to the root, which parent-first expansion wants
  // distributed first).
  if (TaskFrame* t = take_inter_from_own_squad()) {
    ++stats.inter_acquires;
    return t;
  }
  // Step 5 + 6(b): steal an inter-socket task from a random other squad.
  if (TaskFrame* t = steal_inter_from_other_squads()) {
    ++stats.inter_steals;
    return t;
  }
  return nullptr;
}

TaskFrame* Worker::acquire_random() {
  if (TaskFrame* t = pop_local()) {
    ++stats.intra_pop_hits;
    return t;
  }
  if (TaskFrame* t = steal_intra_global()) return t;
  return ctx->inject.steal_top();  // root injection
}

TaskFrame* Worker::acquire_sharing() {
  return ctx->inject.pop_bottom();
}

TaskFrame* Worker::steal_intra_in_squad() {
  const int n = squad->worker_count;
  if (n <= 1) {
    ++stats.failed_steal_attempts;
    return nullptr;
  }
  const bool tr = tl.enabled;
  const std::uint64_t t0 = tr ? obs::now_ns() : 0;
  const StealPolicy pol = engine->steal;
  int victim = -1;
  if (pol != StealPolicy::kUniform &&
      n <= protocol::OccupancyMask<>::kWidth) {
    // Occupancy-weighted stochastic pick: candidates from the squad's
    // occupancy mask, weighted by their deques' size estimates so longer
    // deques are proportionally likelier victims (and steal-half then
    // moves the most work per claim).
    const int first = squad->first_worker;
    const int slot = pick_weighted_victim(
        squad->occupancy.load(), squad_slot, n,
        [&](int s) {
          return static_cast<std::uint64_t>(
              engine->workers[static_cast<std::size_t>(first + s)]
                  ->intra.size_estimate());
        },
        rng);
    if (slot != kNoVictim) {
      victim = first + slot;
      ++stats.weighted_picks;
    }
  }
  if (victim < 0) {
    // Uniform fallback: --steal=uniform, a squad wider than the mask, or
    // no live candidate (empty/stale mask) — the unconditional probe is
    // what keeps stale hearsay-clears from ever starving a thief.
    auto pick =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n - 1)));
    victim = squad->first_worker + pick;
    if (victim >= id) ++victim;  // skip self
  }
  std::size_t taken = 0;
  TaskFrame* t = steal_intra_from(victim, taken);
  if (tr) {
    tl.record(obs::EventKind::kStealIntra, t0, obs::now_ns(), victim,
              static_cast<std::int32_t>(taken));
  }
  return t;
}

TaskFrame* Worker::steal_intra_from(int victim, std::size_t& taken) {
  Worker& v = *engine->workers[static_cast<std::size_t>(victim)];
  taken = 0;
  TaskFrame* t = nullptr;
  if (engine->steal == StealPolicy::kWeightedHalf) {
    TaskFrame* buf[kStealBatchMax];
    taken = v.intra.steal_batch(buf, kStealBatchMax);
    if (taken > 0) {
      // Promote every lazy element — including the surplus re-pushed
      // below: a foreign stack frame must never enter this worker's
      // deque, or a later own-pop would execute it in place and bump the
      // victim-side completed_local from the wrong thread.
      for (std::size_t i = 0; i < taken; ++i) {
        if (buf[i]->lazy) buf[i] = promote_lazy(buf[i]);
      }
      t = buf[0];  // oldest claimed task runs now (victim FIFO order)
      // Surplus onto own deque newest-first, so this worker's LIFO pops
      // replay the batch in the victim's FIFO order.
      for (std::size_t i = taken; i-- > 1;) intra.push_bottom(buf[i]);
      if (taken > 1) mark_occupied();
      ++stats.steal_batches;
      stats.steal_batch_tasks += taken;
      if (engine->steal_batch_hist != nullptr) {
        engine->steal_batch_hist->observe(id,
                                          static_cast<std::int64_t>(taken));
      }
    }
  } else {
    t = v.intra.steal_top();
    if (t != nullptr && t->lazy) t = promote_lazy(t);
    taken = t != nullptr ? 1 : 0;
  }
  if (t != nullptr) {
    ++stats.intra_steals;
  } else {
    ++stats.failed_steal_attempts;
    if (engine->mask_active) {
      // Hearsay clear: the probe found the victim empty, so withdraw its
      // hint on the owner's behalf — a crowd of thieves converges off a
      // drained victim without each paying a probe.
      if (squad->occupancy.clear(victim - squad->first_worker)) {
        ++stats.mask_clears_hearsay;
      }
    }
  }
  return t;
}

TaskFrame* Worker::steal_intra_global() {
  // "Global" = partition-wide: the baselines (and degenerate CAB) steal
  // uniformly across this epoch's workers, never across a partition
  // boundary.
  const int n = static_cast<int>(ctx->workers.size());
  if (n <= 1) {
    ++stats.failed_steal_attempts;
    return nullptr;
  }
  const bool tr = tl.enabled;
  const std::uint64_t t0 = tr ? obs::now_ns() : 0;
  auto pick = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n - 1)));
  int victim = pick;
  if (victim >= ctx_slot) ++victim;  // skip self (partition-local index)
  Worker& v = *ctx->workers[static_cast<std::size_t>(victim)];
  TaskFrame* t = v.intra.steal_top();
  if (t != nullptr && t->lazy) t = promote_lazy(t);
  if (t) {
    ++stats.intra_steals;
  } else {
    ++stats.failed_steal_attempts;
  }
  if (tr) {
    tl.record(obs::EventKind::kStealIntra, t0, obs::now_ns(), v.id,
              t != nullptr ? 1 : 0);
  }
  return t;
}

TaskFrame* Worker::take_inter_from_own_squad() {
  const bool tr = tl.enabled;
  const std::uint64_t t0 = tr ? obs::now_ns() : 0;
  TaskFrame* t = squad->inter_pool.steal_top();
  if (!t) t = ctx->inject.steal_top();  // root injection
  if (t) {
    const std::int32_t now = protocol::bind_inter(squad->busy_state, t, squad);
    if (tr) tl.mark(obs::EventKind::kActiveInter, squad->id, now);
  }
  if (tr) {
    tl.record(obs::EventKind::kInterAcquire, t0, obs::now_ns(), squad->id,
              t != nullptr ? 1 : 0);
  }
  return t;
}

TaskFrame* Worker::steal_inter_from_other_squads() {
  // Confined to the epoch's partition: a squad only ever raids pools of
  // squads running the *same* job, so tasks never cross partitions.
  const int m = static_cast<int>(ctx->squads.size());
  if (m <= 1) return nullptr;
  const bool tr = tl.enabled;
  const std::uint64_t t0 = tr ? obs::now_ns() : 0;
  // One randomized round over the other squads.
  auto start = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(m)));
  for (int i = 0; i < m; ++i) {
    Squad* victim = ctx->squads[static_cast<std::size_t>((start + i) % m)];
    if (victim == squad) continue;
    if (TaskFrame* t = victim->inter_pool.steal_top()) {
      const std::int32_t now =
          protocol::bind_inter(squad->busy_state, t, squad);
      if (tr) {
        tl.mark(obs::EventKind::kActiveInter, squad->id, now);
        tl.record(obs::EventKind::kStealInter, t0, obs::now_ns(), victim->id,
                  1);
      }
      return t;
    }
    ++stats.failed_steal_attempts;
  }
  if (tr) tl.record(obs::EventKind::kStealInter, t0, obs::now_ns(), -1, 0);
  return nullptr;
}

void Engine::worker_main(Worker& w) {
  tls_worker = &w;
  if (pin_threads) hw::bind_current_thread(w.core);
  // perf_event_open counts the calling thread, so the group must be
  // opened here, on the worker's own thread. Fails quietly (and leaves
  // every perf call a no-op) when the syscall is blocked or CAB_PERF=off.
  if (hw_counters) w.perf.open();

  std::uint64_t seen_epoch = 0;
  for (;;) {
    std::uint64_t epoch_t0 = 0;
    EpochContext* ctx = nullptr;
    {
      std::unique_lock<std::mutex> lk(lifecycle_mu);
      // blocking-ok: parked between epochs — this worker's squad is not
      // bound to any running partition, so there is nothing to steal and
      // nothing this wait can delay. The predicate reads only the own
      // squad's binding: concurrent partitions wake only their own
      // workers (modulo harmless spurious wakes that re-park here).
      lifecycle_cv.wait(lk, [&] {
        return shutdown ||
               (w.squad->ctx != nullptr && w.squad->ctx_epoch != seen_epoch);
      });
      if (shutdown) break;
      ctx = w.squad->ctx;
      seen_epoch = w.squad->ctx_epoch;
      epoch_t0 = ctx->start_ns;
      ++ctx->joined;
      ++ctx->working;
    }
    w.ctx = ctx;
    // Per-epoch constant fold for the lazy spawn path: only a
    // non-degenerate CAB epoch ever routes a child to the inter tier, so
    // everything but the level comparison is decided here, once per wake,
    // instead of per spawn.
    w.lazy_tier_check = lazy && kind == SchedulerKind::kCab &&
                        !ctx->cab_degenerate(kind);
    // Partition-local self index for the baselines' steal victim pick
    // (partition membership is fixed for the epoch, so once per wake).
    for (std::size_t i = 0; i < ctx->workers.size(); ++i) {
      if (ctx->workers[i] == &w) {
        w.ctx_slot = static_cast<int>(i);
        break;
      }
    }
    // Counters run only inside epochs: enabled here, disabled below, so
    // hw.* totals cover run() execution rather than parked time.
    w.perf.enable();
    const bool tr = w.tl.enabled;
    int fails = 0;
    // The lead-in stretch — epoch publication to this worker's first
    // acquired task — is idle time too (the thread was parked or waking),
    // so it opens at run()'s own stamp; without it a worker that wakes
    // into an already-drained DAG would leave the whole epoch untracked.
    bool lead_in = tr;
    std::uint64_t idle_start = epoch_t0;
    // One kIdle span per streak of failed acquires, not one event per
    // attempt: idle spins are the highest-frequency state a worker has,
    // and a span per streak keeps the buffer proportional to schedule
    // structure instead of spin speed.
    auto close_idle = [&] {
      if (tr && (fails > 0 || lead_in)) {
        const std::uint64_t now = obs::now_ns();
        if (now > idle_start) {
          w.tl.record(obs::EventKind::kIdle, idle_start, now, fails, 0);
        }
      }
      lead_in = false;
    };
    while (!ctx->root_done.load(std::memory_order_acquire)) {
      if (TaskFrame* t = w.acquire(fails >= kStarvationEscapeFails)) {
        close_idle();
        fails = 0;
        w.execute(t);
      } else {
        if (tr && fails == 0 && !lead_in) idle_start = obs::now_ns();
        backoff(fails, w.stats);
      }
    }
    close_idle();
    w.perf.disable();
    if (w.perf.is_open()) {
      // Cumulative totals (counters stay live across epochs) stored into
      // this worker's own registry slots — still single-writer.
      const obs::metrics::HwSample s = w.perf.read();
      for (int i = 0; i < obs::metrics::kHwCounterCount; ++i) {
        hw_total[static_cast<std::size_t>(i)]->store(
            w.id, static_cast<std::int64_t>(
                      s.value[static_cast<std::size_t>(i)]));
      }
    }
    w.ctx = nullptr;
    {
      std::lock_guard<std::mutex> lk(lifecycle_mu);
      if (--ctx->working == 0) done_cv.notify_all();
    }
  }
  tls_worker = nullptr;
}

void Engine::notify_if_done() {
  std::lock_guard<std::mutex> lk(lifecycle_mu);
  done_cv.notify_all();
}

}  // namespace cab::runtime
