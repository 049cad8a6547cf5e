#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>

#include "util/layout.hpp"

namespace cab::svc {

/// Lifecycle of a submitted job. Terminal states: kDone, kFailed,
/// kRejected, kCancelled.
///
///   kQueued ──────> kRunning ──> kDone | kFailed
///      │  └───────> kCancelled            (cancel() while still queued)
///      └─ (never admitted) ─> kRejected   (full queue / shutdown)
enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kRejected,
  kCancelled,
};

const char* to_string(JobState s);

inline bool is_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kRejected || s == JobState::kCancelled;
}

/// What a client submits: a root closure plus the scheduling contract.
struct JobDesc {
  /// Root task body, executed as the level-0 task of the job's own DAG
  /// epoch (spawn/sync work inside as under Runtime::run, confined to
  /// the job's squad partition).
  std::function<void()> body;

  /// Declared parallelism, in squads. The service grants
  /// min(squads, free squads) — at least 1 — so a wide job degrades to a
  /// narrower partition under load instead of waiting for full width.
  int squads = 1;

  /// Boundary level for the job's partition, or -1 to derive it from
  /// Eq. 4 with M = granted squads and Sd = input_bytes at dispatch
  /// time. Single-squad partitions always run BL = 0 (degenerate CAB).
  std::int32_t boundary_level = -1;

  /// Input size hint Sd for the Eq. 4 derivation (ignored when
  /// boundary_level >= 0).
  std::uint64_t input_bytes = 0;

  /// Priority tier: 0 is most urgent; higher tiers yield to lower ones.
  /// Clamped to [0, ServiceOptions::max_tier]. Queued jobs are promoted
  /// one tier per promote_cooldown_ns of queue age (scx_cake-style
  /// anti-starvation), so no tier waits forever behind a tier-0 flood.
  int tier = 0;
};

namespace detail {

/// Shared job state behind a JobTicket. The service mutates it (under
/// rec.mu for state/error/timestamps); clients observe through the
/// ticket. Held by shared_ptr from both sides, so a dropped ticket never
/// invalidates a running job and a completed job never dangles a ticket.
struct JobRecord {
  // Immutable after submit().
  std::function<void()> body;
  int want_squads = 1;
  std::int32_t boundary_level = -1;
  std::uint64_t input_bytes = 0;
  int tier = 0;
  std::uint64_t seq = 0;        ///< admission order (FIFO tie-break)
  std::uint64_t submit_ns = 0;  ///< clock at submit()

  // Guarded by mu; cv signaled on every terminal transition.
  std::mutex mu;
  std::condition_variable cv;
  JobState state = JobState::kQueued;
  std::exception_ptr error;
  std::uint64_t start_ns = 0;   ///< clock at dispatch (0 if never ran)
  std::uint64_t finish_ns = 0;  ///< clock at terminal transition
  int granted_squads = 0;       ///< partition width actually granted

  void set_terminal(JobState s, std::exception_ptr e,
                    std::uint64_t now_ns) {
    std::lock_guard<std::mutex> lk(mu);
    state = s;
    error = std::move(e);
    finish_ns = now_ns;
    cv.notify_all();
  }
};

// share-ok: straddle-ok: the ticket wait protocol takes mu around
// every cv wait/notify, so the pair is contended as a unit; records
// are per-job heap objects, not per-core hot state.
static_assert(util::layout::cluster(CAB_SPAN(JobRecord, mu),
                                    CAB_SPAN(JobRecord, cv)).size ==
                  sizeof(std::mutex) + sizeof(std::condition_variable),
              "hot-cohabit: JobRecord's mu/cv pair must stay one "
              "contiguous unit");

}  // namespace detail

/// Client-side handle to a submitted job. Copyable, cheap, and valid for
/// the job's whole lifetime regardless of what the service does with it.
class JobTicket {
 public:
  JobTicket() = default;

  bool valid() const { return rec_ != nullptr; }

  JobState state() const {
    std::lock_guard<std::mutex> lk(rec_->mu);
    return rec_->state;
  }

  /// Blocks until the job reaches a terminal state; returns it. Unlike
  /// Runtime::run, a failed job does NOT rethrow here — inspect error().
  JobState wait() const {
    std::unique_lock<std::mutex> lk(rec_->mu);
    rec_->cv.wait(lk, [&] { return is_terminal(rec_->state); });
    return rec_->state;
  }

  /// First exception thrown by any task of the job (null unless
  /// state() == kFailed).
  std::exception_ptr error() const {
    std::lock_guard<std::mutex> lk(rec_->mu);
    return rec_->error;
  }

  /// Time spent in the admission queue: submit to dispatch (or to the
  /// terminal transition for jobs that never ran). Meaningful once the
  /// job has left the queue.
  std::uint64_t queued_ns() const {
    std::lock_guard<std::mutex> lk(rec_->mu);
    const std::uint64_t out =
        rec_->start_ns != 0 ? rec_->start_ns : rec_->finish_ns;
    return out > rec_->submit_ns ? out - rec_->submit_ns : 0;
  }

  /// Submit-to-completion latency (0 until terminal).
  std::uint64_t latency_ns() const {
    std::lock_guard<std::mutex> lk(rec_->mu);
    return rec_->finish_ns > rec_->submit_ns
               ? rec_->finish_ns - rec_->submit_ns
               : 0;
  }

  /// Clock stamps (obs::now_ns domain) for external latency accounting —
  /// e.g. the open-loop bench measures from *scheduled* arrival to
  /// finish_ns, which is what makes its percentiles immune to
  /// coordinated omission. finish_ns() is 0 until terminal.
  std::uint64_t submit_ns() const { return rec_->submit_ns; }
  std::uint64_t finish_ns() const {
    std::lock_guard<std::mutex> lk(rec_->mu);
    return rec_->finish_ns;
  }

  /// Squads the job actually ran on (0 until dispatched).
  int granted_squads() const {
    std::lock_guard<std::mutex> lk(rec_->mu);
    return rec_->granted_squads;
  }

 private:
  friend class JobService;
  explicit JobTicket(std::shared_ptr<detail::JobRecord> rec)
      : rec_(std::move(rec)) {}

  std::shared_ptr<detail::JobRecord> rec_;
};

}  // namespace cab::svc
