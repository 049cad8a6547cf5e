#include "simsched/sim_scheduler.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace cab::simsched {

namespace protocol = runtime::protocol;

const char* to_string(SimPolicy p) {
  switch (p) {
    case SimPolicy::kCab: return "CAB";
    case SimPolicy::kRandomStealing: return "random-stealing";
  }
  return "?";
}

const char* to_string(VictimSelection v) {
  switch (v) {
    case VictimSelection::kRoundRobin: return "round-robin";
    case VictimSelection::kUniformRandom: return "uniform-random";
  }
  return "?";
}

Simulator::Simulator(SimOptions opts) : opts_(opts) {
  tier_.bl =
      opts_.policy == SimPolicy::kCab ? opts_.boundary_level : 0;
  caches_ =
      std::make_unique<cachesim::CacheHierarchy>(opts_.topo, opts_.hierarchy);
}

bool Simulator::is_inter_node(dag::NodeId n) const {
  if (opts_.policy != SimPolicy::kCab) return false;
  if (opts_.flexible_tiers != nullptr) return opts_.flexible_tiers->inter(n);
  return tier_.is_inter(graph_->node(n).level);
}

bool Simulator::has_intra_children(dag::NodeId n) const {
  const std::vector<dag::NodeId>& children = graph_->node(n).children;
  return std::any_of(children.begin(), children.end(),
                     [&](dag::NodeId c) { return !is_inter_node(c); });
}

bool Simulator::cab_tiers() const {
  return opts_.policy == SimPolicy::kCab &&
         (tier_.bl > 0 || opts_.flexible_tiers != nullptr);
}

SimResult Simulator::run(const dag::TaskGraph& graph,
                         const cachesim::TraceStore& store) {
  CAB_CHECK(!graph.empty(), "cannot simulate an empty graph");
  CAB_CHECK(graph.validate(), "task graph failed validation");
  graph_ = &graph;
  store_ = &store;

  const int total = opts_.topo.total_cores();
  const int per_socket = opts_.topo.cores_per_socket();

  workers_.assign(static_cast<std::size_t>(total), SimWorker{});
  std::uint64_t seed_state = opts_.seed;
  for (int i = 0; i < total; ++i) {
    SimWorker& w = workers_[static_cast<std::size_t>(i)];
    w.id = i;
    w.socket = opts_.topo.socket_of(i);
    w.is_head = (i == opts_.topo.first_core_of(w.socket));
    w.rng = util::Xorshift64(util::splitmix64(seed_state));
  }
  // Built in place: a squad's BusyState is an atomic, so not copyable.
  squads_ =
      std::vector<SimSquad>(static_cast<std::size_t>(opts_.topo.sockets()));
  for (int s = 0; s < opts_.topo.sockets(); ++s) {
    SimSquad& sq = squads_[static_cast<std::size_t>(s)];
    sq.id = s;
    sq.first_worker = opts_.topo.first_core_of(s);
    sq.worker_count = per_socket;
  }
  states_.assign(graph.size(), NodeState{});
  mem_free_at_.assign(static_cast<std::size_t>(opts_.topo.sockets()), 0.0);
  events_ = EventQueue<Event>{};
  finish_time_ = 0;
  total_busy_ = 0;
  inter_tier_busy_ = 0;
  root_complete_ = false;

  if (opts_.cold_caches) caches_->invalidate_all();
  caches_->reset_stats();

  // Inject the root (Algorithm II step 3: worker 0 begins the initial
  // task): route it through worker 0's spawn path so the policy decides
  // the pool, then wake everyone.
  push_child(graph.root(), /*spawner=*/0, /*now=*/0);
  wake_all(0, /*home_socket=*/0);

  while (!events_.empty()) {
    SimTime now = 0;
    Event e = events_.pop(now);
    SimWorker& w = workers_[static_cast<std::size_t>(e.worker)];
    switch (e.kind) {
      case Event::Kind::kTryAcquire:
        handle_try_acquire(w, now);
        break;
      case Event::Kind::kPieceDone:
        handle_piece_done(w, e.node, e.piece, now);
        break;
    }
  }
  CAB_CHECK(root_complete_, "simulation stalled before the root completed");

  SimResult r;
  r.makespan = finish_time_;
  r.cache = caches_->totals();
  for (int s = 0; s < opts_.topo.sockets(); ++s)
    r.socket_cache.push_back(caches_->socket_stats(s));
  for (const SimWorker& w : workers_) r.workers.push_back(w.report);
  r.total_busy = total_busy_;
  r.inter_tier_busy = inter_tier_busy_;
  r.tasks = graph.size();
  return r;
}

// --------------------------------------------------------------------------
// Event handling

void Simulator::handle_try_acquire(SimWorker& w, SimTime now) {
  if (w.free_at > now) return;  // stale wake; completion will re-acquire
  Acquired a = acquire(w);
  if (a.node == dag::kNoNode) {
    w.idle = true;
    return;
  }
  start_piece(w, a, now);
}

void Simulator::handle_piece_done(SimWorker& w, dag::NodeId n, Piece piece,
                                  SimTime now) {
  const dag::TaskGraph::Node& node = graph_->node(n);
  NodeState& s = states_[static_cast<std::size_t>(n)];

  if (piece == Piece::kPre) {
    // The body has run to its sync. A *non-leaf* inter-socket task is now
    // suspended and no longer executing on the squad, so it releases the
    // busy-state (Algorithm II(c) semantics; see DESIGN.md). Leaf
    // inter-socket tasks keep it until their whole intra-socket subtree
    // completes — that subtree is the shared-cache residency unit CAB
    // protects.
    if (s.inter_acquired_by != nullptr &&
        !protocol::holds_busy_through_sync(has_intra_children(n))) {
      release_inter(s, now);
    }
    const bool has_post = node.post_work > 0 || node.post_trace >= 0;
    if (node.children.empty()) {
      if (has_post) {
        // Body continues straight into the merge part.
        w.continuations.push_back(n);
      } else {
        node_subtree_complete(n, w.id, now);
      }
    } else {
      s.remaining_children = static_cast<std::int32_t>(node.children.size());
      if (node.sequential) {
        s.next_child = 1;
        push_child(node.children[0], w.id, now);
      } else {
        for (dag::NodeId c : node.children) push_child(c, w.id, now);
      }
    }
  } else {
    node_subtree_complete(n, w.id, now);
  }

  // The worker is free at `now`. It may take *local* work (continuations,
  // its own deque, its own squad's inter pool) with only pop latency, but
  // reaching a remote pool costs the same probe round-trip every other
  // idle thief pays — finishing a piece grants no priority on remote
  // work. Without this, the last-completing worker of an iteration would
  // snatch the next iteration's root from the owning squad and placement
  // stability would oscillate.
  w.idle = true;
  const bool tiers_on = cab_tiers();
  const bool has_local =
      !w.continuations.empty() || !w.intra.empty() ||
      (tiers_on && w.is_head &&
       !squads_[static_cast<std::size_t>(w.socket)].inter_pool.empty());
  double delay = 0;
  if (!has_local) {
    // A worker without local work is just another probing thief: it gets
    // no completion-granted priority on remote pools.
    delay = opts_.cost.steal_notice_scale *
            ((tiers_on && w.is_head) ? opts_.cost.inter_steal_cycles
                                     : opts_.cost.intra_steal_cycles);
  }
  wake_worker(w.id, now, delay);
}

void Simulator::node_subtree_complete(dag::NodeId n, std::int32_t worker,
                                      SimTime now) {
  NodeState& s = states_[static_cast<std::size_t>(n)];
  if (s.inter_acquired_by != nullptr) release_inter(s, now);

  const dag::TaskGraph::Node& node = graph_->node(n);
  if (node.parent == dag::kNoNode) {
    root_complete_ = true;
    finish_time_ = now;
    return;
  }

  NodeState& ps = states_[static_cast<std::size_t>(node.parent)];
  const dag::TaskGraph::Node& parent = graph_->node(node.parent);
  CAB_CHECK(ps.remaining_children >= 1, "parent join-counter underflow");
  --ps.remaining_children;
  if (parent.sequential &&
      ps.next_child < static_cast<std::int32_t>(parent.children.size())) {
    // Release the next phase through the worker that ran the parent's
    // body (it is the one spinning at the phase's sync in the runtime).
    dag::NodeId next = parent.children[static_cast<std::size_t>(ps.next_child)];
    ++ps.next_child;
    push_child(next, ps.ran_pre_on >= 0 ? ps.ran_pre_on : worker, now);
  }
  if (ps.remaining_children == 0) {
    const bool parent_has_post =
        parent.post_work > 0 || parent.post_trace >= 0;
    if (parent_has_post) {
      std::int32_t target = ps.ran_pre_on >= 0 ? ps.ran_pre_on : worker;
      workers_[static_cast<std::size_t>(target)].continuations.push_back(
          node.parent);
      // The continuation binds to the worker that ran the pre piece; if
      // another worker completed the last child, the owner notices at its
      // next probe.
      wake_worker(target, now,
                  target == worker ? 0.0
                                   : opts_.cost.steal_notice_scale *
                                         opts_.cost.intra_steal_cycles);
    } else {
      node_subtree_complete(node.parent,
                            ps.ran_pre_on >= 0 ? ps.ran_pre_on : worker, now);
    }
  }
}

void Simulator::release_inter(NodeState& s, SimTime now) {
  SimSquad* sq = s.inter_acquired_by;
  s.inter_acquired_by = nullptr;
  const std::int32_t left = sq->busy.release();
  CAB_CHECK(left >= 0, "squad busy-state underflow (sim)");
  // The squad's head may now initiate inter-socket work again.
  wake_heads(now, sq->id);
}

void Simulator::push_child(dag::NodeId child, std::int32_t spawner,
                           SimTime now) {
  if (is_inter_node(child)) {
    const int socket = workers_[static_cast<std::size_t>(spawner)].socket;
    squads_[static_cast<std::size_t>(socket)].inter_pool.push_back(child);
    wake_heads(now, socket);
  } else {
    workers_[static_cast<std::size_t>(spawner)].intra.push_back(child);
    if (cab_tiers()) {
      // Intra-socket tasks are only visible within the squad.
      wake_squad(workers_[static_cast<std::size_t>(spawner)].socket, now);
    } else {
      // Classic stealing (and CAB degenerated to BL == 0): any worker may
      // steal the task.
      wake_all(now, workers_[static_cast<std::size_t>(spawner)].socket);
    }
  }
}

// --------------------------------------------------------------------------
// Acquisition policies

Simulator::Acquired Simulator::acquire(SimWorker& w) {
  if (cab_tiers()) return acquire_cab(w);
  return acquire_random(w);
}

Simulator::Acquired Simulator::acquire_cab(SimWorker& w) {
  // Continuations (a task resuming past its sync) bind to this worker.
  if (!w.continuations.empty()) {
    Acquired a{w.continuations.front(), Piece::kPost, opts_.cost.pop_cycles};
    w.continuations.pop_front();
    return a;
  }
  // Step 1: own intra-socket pool (LIFO).
  if (!w.intra.empty()) {
    Acquired a{w.intra.back(), Piece::kPre, opts_.cost.pop_cycles};
    w.intra.pop_back();
    return a;
  }
  SimSquad& sq = squads_[static_cast<std::size_t>(w.socket)];
  // Takes the oldest task of `pool` and binds it to this squad: the
  // busy state closes before the task starts.
  auto take_inter = [&](std::deque<dag::NodeId>& pool, double cost) {
    Acquired a{pool.front(), Piece::kPre, cost};
    pool.pop_front();
    protocol::bind_inter(sq.busy, &states_[static_cast<std::size_t>(a.node)],
                         &sq);
    return a;
  };

  // Steps 2–6: the gate is protocol::plan_acquire, as in the threaded
  // runtime. The two ablations are its inputs: any_worker_inter_steal
  // makes every worker a head, and ignore_busy_state treats the squad as
  // busy (in-squad steals first) while opening the inter pools the way
  // the starvation escape does.
  const protocol::AcquirePaths paths = protocol::plan_acquire(
      w.is_head || opts_.any_worker_inter_steal,
      sq.busy.busy() || opts_.ignore_busy_state,
      /*desperate=*/opts_.ignore_busy_state);
  if (paths.steal_intra_in_squad && sq.worker_count > 1) {
    // Step 3 / 6(a): steal intra-socket within the squad (rotation over
    // squad mates; failed probes cost no virtual time).
    int start = probe_start(w, sq.worker_count);
    for (int i = 0; i < sq.worker_count; ++i) {
      int v = sq.first_worker + (start + i) % sq.worker_count;
      if (v == w.id) continue;
      SimWorker& victim = workers_[static_cast<std::size_t>(v)];
      if (!victim.intra.empty()) {
        Acquired a{victim.intra.front(), Piece::kPre,
                   opts_.cost.intra_steal_cycles};
        victim.intra.pop_front();
        ++w.report.intra_steals;
        return a;
      }
    }
  }
  if (!paths.inter_pools) return {};

  // Step 4: own inter-socket pool.
  if (!sq.inter_pool.empty()) {
    ++w.report.inter_acquires;
    return take_inter(sq.inter_pool, opts_.cost.pop_cycles);
  }
  // Step 5 / 6(b): steal from another squad's inter pool.
  const int m = static_cast<int>(squads_.size());
  if (m > 1) {
    int start = probe_start(w, m);
    for (int i = 0; i < m; ++i) {
      int v = (start + i) % m;
      if (v == sq.id) continue;
      SimSquad& victim = squads_[static_cast<std::size_t>(v)];
      if (!victim.inter_pool.empty()) {
        ++w.report.inter_steals;
        return take_inter(victim.inter_pool, opts_.cost.inter_steal_cycles);
      }
    }
  }
  return {};
}

Simulator::Acquired Simulator::acquire_random(SimWorker& w) {
  if (!w.continuations.empty()) {
    Acquired a{w.continuations.front(), Piece::kPost, opts_.cost.pop_cycles};
    w.continuations.pop_front();
    return a;
  }
  if (!w.intra.empty()) {
    Acquired a{w.intra.back(), Piece::kPre, opts_.cost.pop_cycles};
    w.intra.pop_back();
    return a;
  }
  const int n = static_cast<int>(workers_.size());
  if (n > 1) {
    int start = probe_start(w, n);
    for (int i = 0; i < n; ++i) {
      int v = (start + i) % n;
      if (v == w.id) continue;
      SimWorker& victim = workers_[static_cast<std::size_t>(v)];
      if (!victim.intra.empty()) {
        // Cross-socket steals pay the remote-cache transfer cost.
        double overhead = victim.socket == w.socket
                              ? opts_.cost.intra_steal_cycles
                              : opts_.cost.inter_steal_cycles;
        Acquired a{victim.intra.front(), Piece::kPre, overhead};
        victim.intra.pop_front();
        ++w.report.intra_steals;
        return a;
      }
    }
  }
  return {};
}

int Simulator::probe_start(SimWorker& w, int count) {
  if (opts_.victims == VictimSelection::kRoundRobin)
    return (w.id + 1) % count;
  return static_cast<int>(
      w.rng.next_below(static_cast<std::uint64_t>(count)));
}

// --------------------------------------------------------------------------
// Execution

Simulator::PieceCost Simulator::piece_duration(SimWorker& w, dag::NodeId n,
                                               Piece piece) {
  const dag::TaskGraph::Node& node = graph_->node(n);
  PieceCost cost;
  if (piece == Piece::kPre) {
    cost.cycles +=
        static_cast<double>(node.pre_work) * opts_.cost.cycles_per_work;
    cost.cycles +=
        static_cast<double>(node.children.size()) * opts_.cost.spawn_cycles;
    if (store_->has(node.pre_trace)) {
      cachesim::StreamCost sc =
          caches_->stream(w.id, store_->get(node.pre_trace));
      cost.cycles += opts_.cost.stream_cost(sc);
      cost.memory_fills += sc.memory_fills;
    }
  } else {
    cost.cycles +=
        static_cast<double>(node.post_work) * opts_.cost.cycles_per_work;
    if (store_->has(node.post_trace)) {
      cachesim::StreamCost sc =
          caches_->stream(w.id, store_->get(node.post_trace));
      cost.cycles += opts_.cost.stream_cost(sc);
      cost.memory_fills += sc.memory_fills;
    }
  }
  return cost;
}

void Simulator::start_piece(SimWorker& w, const Acquired& a, SimTime now) {
  if (a.piece == Piece::kPre)
    states_[static_cast<std::size_t>(a.node)].ran_pre_on = w.id;
  if (opts_.on_piece_start)
    opts_.on_piece_start(a.node, w.id, now, a.piece == Piece::kPost);
  PieceCost pc = piece_duration(w, a.node, a.piece);
  double duration = pc.cycles;
  if (opts_.cost.duration_jitter > 0) {
    duration *= 1.0 + opts_.cost.duration_jitter *
                          (2.0 * w.rng.next_double() - 1.0);
  }
  double busy = a.overhead + duration;
  if (opts_.cost.socket_bandwidth_cycles_per_line > 0 &&
      pc.memory_fills > 0) {
    // All of the socket's memory fills serialize on its DRAM channel:
    // the piece cannot retire before the channel has shipped its lines.
    SimTime& channel = mem_free_at_[static_cast<std::size_t>(w.socket)];
    const double ship = static_cast<double>(pc.memory_fills) *
                        opts_.cost.socket_bandwidth_cycles_per_line;
    const SimTime channel_done = std::max(channel, now) + ship;
    channel = channel_done;
    busy = std::max(busy, channel_done - now);
  }
  w.idle = false;
  w.free_at = now + busy;
  w.report.busy += busy;
  ++w.report.pieces;
  total_busy_ += busy;
  if (is_inter_node(a.node)) inter_tier_busy_ += busy;
  events_.push(w.free_at,
               Event{Event::Kind::kPieceDone, w.id, a.node, a.piece});
}

// --------------------------------------------------------------------------
// Wakeups

void Simulator::wake_worker(std::int32_t id, SimTime now, double delay) {
  SimWorker& w = workers_[static_cast<std::size_t>(id)];
  if (!w.idle) return;
  w.idle = false;
  // Simultaneous acquisitions arbitrate *after* all same-time completions
  // have published their pushes (priority >= 1), so the race outcome is a
  // property of the machine model, not of which task happened to finish
  // last. The arbitration order follows the victim-selection mode:
  //  - kRoundRobin: fixed worker-id order — the deterministic fixed point
  //    a real CAB system settles into across iterative phases;
  //  - kUniformRandom: random order — the per-phase scramble of a truly
  //    random-stealing scheduler on a noisy machine.
  std::uint32_t priority;
  if (opts_.victims == VictimSelection::kUniformRandom) {
    priority = 1 + static_cast<std::uint32_t>(w.rng.next_below(
                       1024 * workers_.size()));
  } else {
    priority = 1 + static_cast<std::uint32_t>(id);
  }
  events_.push(now + delay,
               Event{Event::Kind::kTryAcquire, id, dag::kNoNode, Piece::kPre},
               priority);
}

void Simulator::wake_squad(int squad, SimTime now) {
  // Squad mates notice an intra-socket push after a scaled steal
  // round-trip (0 by default: spinning thieves, instant notice).
  const double d = opts_.cost.steal_notice_scale * opts_.cost.intra_steal_cycles;
  const SimSquad& sq = squads_[static_cast<std::size_t>(squad)];
  for (int i = 0; i < sq.worker_count; ++i)
    wake_worker(sq.first_worker + i, now, d);
}

void Simulator::wake_heads(SimTime now, int home_squad) {
  // The home squad's own head is woken first (and with pop latency), so
  // it wins simultaneous races on its own pool; remote heads pay the
  // scaled cross-socket notice delay.
  const double remote =
      opts_.cost.steal_notice_scale * opts_.cost.inter_steal_cycles;
  const SimSquad* home = &squads_[static_cast<std::size_t>(home_squad)];
  wake_worker(home->first_worker, now,
              opts_.cost.steal_notice_scale * opts_.cost.pop_cycles);
  for (const SimSquad& sq : squads_) {
    if (sq.id != home_squad) wake_worker(sq.first_worker, now, remote);
  }
}

void Simulator::wake_all(SimTime now, int home_socket) {
  for (const SimWorker& w : workers_) {
    const double base = w.socket == home_socket
                            ? opts_.cost.intra_steal_cycles
                            : opts_.cost.inter_steal_cycles;
    wake_worker(w.id, now, opts_.cost.steal_notice_scale * base);
  }
}

}  // namespace cab::simsched
