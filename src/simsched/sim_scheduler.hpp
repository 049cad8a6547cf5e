#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "cachesim/trace.hpp"
#include "dag/flexible.hpp"
#include "dag/partition.hpp"
#include "dag/task_graph.hpp"
#include "hw/topology.hpp"
#include "runtime/squad_protocol.hpp"
#include "simsched/cost_model.hpp"
#include "simsched/event_sim.hpp"
#include "simsched/report.hpp"
#include "util/rng.hpp"

namespace cab::simsched {

/// Scheduling policy under simulation. kCab follows Algorithm I/II with
/// the same sync-help refinement as the threaded runtime; kRandomStealing
/// is the classic Cilk-style baseline the paper compares against.
enum class SimPolicy : std::uint8_t { kCab, kRandomStealing };

const char* to_string(SimPolicy p);

/// How a thief picks the probe order over victims.
///
/// kUniformRandom is the letter of both Cilk's and the paper's protocol
/// ("randomly chooses a victim"). kRoundRobin (fixed rotation from the
/// thief's id) is the deterministic-simulation stand-in for the
/// *self-stabilizing* steal pattern a real CAB system settles into across
/// iterative phases: stable placement -> shared-cache hits -> consistent
/// squad timing -> the same heads win the same steals next phase. A
/// virtual-time simulator has no timing jitter, so re-randomizing victims
/// every phase would artificially destroy that fixed point for CAB, while
/// the fine-grained all-worker scramble of the Cilk baseline genuinely
/// behaves like fresh randomness. Defaults: benches use kRoundRobin for
/// CAB and kUniformRandom for the baseline; bench_ablation_victims
/// measures all four combinations. See DESIGN.md "Victim selection".
enum class VictimSelection : std::uint8_t { kRoundRobin, kUniformRandom };

const char* to_string(VictimSelection v);

struct SimOptions {
  hw::Topology topo = hw::Topology::opteron_8380();
  SimPolicy policy = SimPolicy::kCab;
  /// Boundary level for kCab (0 degenerates to random stealing).
  std::int32_t boundary_level = 0;

  /// Optional per-node tier assignment (the flexible partitioner of the
  /// paper's future work, dag::footprint_partition). When set it
  /// overrides boundary_level for tier classification; must outlive the
  /// Simulator run.
  const dag::NodeTiers* flexible_tiers = nullptr;
  CostModel cost;
  /// Cache-hierarchy refinements (optional L1, replacement policy,
  /// prefetcher). The defaults are the paper's base L2+L3 LRU model.
  cachesim::HierarchyOptions hierarchy;
  std::uint64_t seed = 1;
  /// Start with cold caches (true, default) or keep contents from a
  /// previous run() on the same Simulator.
  bool cold_caches = true;
  VictimSelection victims = VictimSelection::kRoundRobin;

  /// Ablation: let every worker (not just squad heads) acquire and steal
  /// inter-socket tasks. The paper restricts this to heads to cut lock
  /// contention on the inter-socket pools (Section III-A).
  bool any_worker_inter_steal = false;

  /// Ablation: ignore the per-squad busy_state, allowing a squad to run
  /// multiple inter-socket tasks simultaneously. The paper forbids it to
  /// keep one leaf inter-socket task's data set resident per socket.
  bool ignore_busy_state = false;

  /// Optional observer invoked when a task piece starts executing
  /// (node, worker, virtual start time, is_post_piece). For tests and
  /// placement diagnostics; adds no virtual-time cost.
  std::function<void(dag::NodeId, int, SimTime, bool)> on_piece_start;
};

/// Deterministic discrete-event executor of a TaskGraph on a virtual MSMC
/// machine.
///
/// Execution model (mirrors the threaded runtime):
///  - every node runs as a `pre` piece (body up to its sync: divide work +
///    memory trace + one push per child), then suspends; when its last
///    child subtree completes, its `post` piece (merge work + trace) runs
///    as a continuation, preferentially on the worker that ran `pre`;
///  - piece duration = work * cycles_per_work + Σ line-access latency,
///    where each line access walks the L2/L3 hierarchy of the executing
///    core — so *where* the scheduler places a task determines its cost,
///    which is exactly the TRICI effect under study;
///  - CAB placement: children at level <= BL go to the spawning squad's
///    inter-socket pool (head workers acquire/steal them, busy_state
///    guarded); deeper children go to the spawning worker's deque (squad
///    mates may steal). The gate, the busy count, the hand-off and the
///    leaf-hold rule are runtime/squad_protocol.hpp, the same code the
///    threaded runtime and the model checker run;
///  - `sequential` nodes release one child phase at a time.
///
/// Runs are bit-reproducible given (graph, store, options).
class Simulator {
 public:
  explicit Simulator(SimOptions opts);

  SimResult run(const dag::TaskGraph& graph,
                const cachesim::TraceStore& store);

  const SimOptions& options() const { return opts_; }

 private:
  struct SimSquad;

  struct NodeState {
    std::int32_t remaining_children = 0;
    std::int32_t next_child = 0;  ///< for sequential release
    std::int32_t ran_pre_on = -1;
    /// Squad whose busy state this inter task holds (protocol::bind_inter).
    SimSquad* inter_acquired_by = nullptr;
  };

  struct SimWorker {
    int id = 0;
    int socket = 0;
    bool is_head = false;
    bool idle = true;
    SimTime free_at = 0;
    std::deque<dag::NodeId> continuations;  ///< highest priority, own only
    std::deque<dag::NodeId> intra;          ///< own deque (LIFO own end)
    util::Xorshift64 rng{1};
    SimWorkerReport report;
  };

  struct SimSquad {
    int id = 0;
    int first_worker = 0;
    int worker_count = 0;
    std::deque<dag::NodeId> inter_pool;  ///< FIFO acquisition
    runtime::protocol::BusyState<> busy;
  };

  enum class Piece : std::uint8_t { kPre, kPost };

  struct Event {
    enum class Kind : std::uint8_t { kTryAcquire, kPieceDone } kind;
    std::int32_t worker;
    dag::NodeId node;   ///< for kPieceDone
    Piece piece;
  };

  // --- event handlers -----------------------------------------------------
  void handle_try_acquire(SimWorker& w, SimTime now);
  void handle_piece_done(SimWorker& w, dag::NodeId n, Piece piece,
                         SimTime now);

  // --- scheduling ----------------------------------------------------------
  struct Acquired {
    dag::NodeId node = dag::kNoNode;
    Piece piece = Piece::kPre;
    double overhead = 0;  ///< pop/steal cost added to the piece start
  };
  Acquired acquire(SimWorker& w);
  Acquired acquire_cab(SimWorker& w);
  Acquired acquire_random(SimWorker& w);

  void start_piece(SimWorker& w, const Acquired& a, SimTime now);
  void push_child(dag::NodeId child, std::int32_t spawner, SimTime now);
  void node_subtree_complete(dag::NodeId n, std::int32_t worker, SimTime now);
  /// Releases the busy state `s` holds and wakes that squad's head.
  void release_inter(NodeState& s, SimTime now);

  /// First victim index to probe in a rotation over `count` candidates.
  int probe_start(SimWorker& w, int count);

  /// `delay` models how long until the woken worker can actually act:
  /// 0 for a worker re-acquiring after its own piece, one steal
  /// round-trip (intra/inter steal cycles) for idle workers reacting to
  /// someone else's push — spinning thieves lose the race to the pool's
  /// owner by exactly that margin.
  void wake_worker(std::int32_t w, SimTime now, double delay);
  void wake_squad(int squad, SimTime now);
  void wake_heads(SimTime now, int home_squad);
  void wake_all(SimTime now, int home_socket);

  bool is_inter_node(dag::NodeId n) const;
  /// The leaf-hold input: some child of `n` is not inter-socket.
  bool has_intra_children(dag::NodeId n) const;
  /// True when the CAB bi-tier machinery is active (BL > 0 or flexible).
  bool cab_tiers() const;

  struct PieceCost {
    double cycles = 0;
    std::uint64_t memory_fills = 0;
  };
  PieceCost piece_duration(SimWorker& w, dag::NodeId n, Piece piece);

  SimOptions opts_;
  dag::TierAssignment tier_;

  // Per-run state.
  const dag::TaskGraph* graph_ = nullptr;
  const cachesim::TraceStore* store_ = nullptr;
  std::unique_ptr<cachesim::CacheHierarchy> caches_;
  std::vector<SimWorker> workers_;
  std::vector<SimSquad> squads_;
  std::vector<NodeState> states_;
  /// Per-socket DRAM channel availability (bandwidth model).
  std::vector<SimTime> mem_free_at_;
  EventQueue<Event> events_;
  SimTime finish_time_ = 0;
  SimTime total_busy_ = 0;
  SimTime inter_tier_busy_ = 0;
  bool root_complete_ = false;
};

}  // namespace cab::simsched
