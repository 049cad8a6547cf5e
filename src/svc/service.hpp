#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics/registry.hpp"
#include "runtime/runtime.hpp"
#include "svc/admission.hpp"
#include "svc/job.hpp"
#include "svc/partition.hpp"

namespace cab::svc {

/// What submit() does when the admission queue is full.
enum class Backpressure : std::uint8_t {
  kReject,  ///< fail fast: ticket comes back kRejected
  kBlock,   ///< block the submitter until space frees (or shutdown)
};

const char* to_string(Backpressure b);
/// Parses "reject" | "block". Returns false on unknown input.
bool parse_backpressure(std::string_view s, Backpressure& out);

/// Job service configuration. The embedded runtime::Options decide the
/// machine shape (topology = the squad inventory being partitioned) and
/// runtime features; Options::adapt must stay kStatic (the adaptive
/// controller profiles exclusive whole-machine epochs, which a
/// multi-tenant service never grants).
struct ServiceOptions {
  runtime::Options runtime;

  /// Admission queue bound. 0 is legal: with every slot "taken", all
  /// submits hit the backpressure policy immediately (useful as a
  /// drain-only / reject-everything configuration and in tests).
  std::size_t queue_capacity = 64;

  Backpressure backpressure = Backpressure::kReject;

  /// Queue age per one-tier promotion (see TieredQueue). 0 disables
  /// tiering (FIFO).
  std::uint64_t promote_cooldown_ns = 1'000'000;  // 1 ms

  /// Highest accepted JobDesc::tier (declared tiers clamp here).
  int max_tier = 3;
};

/// Monotonic lifecycle counters plus instantaneous gauges. A coherent
/// copy is returned by JobService::counters() (safe at any time, jobs
/// running or not); the same values back the svc.* metrics.
struct ServiceCounters {
  std::uint64_t submitted = 0;  ///< every submit() call
  std::uint64_t admitted = 0;   ///< accepted into the queue
  std::uint64_t rejected = 0;   ///< full queue (kReject) or shutdown
  std::uint64_t completed = 0;  ///< reached kDone
  std::uint64_t failed = 0;     ///< reached kFailed
  std::uint64_t cancelled = 0;  ///< cancelled while queued
  std::uint64_t promoted = 0;   ///< dispatched below their declared tier
  std::uint64_t queued_ns = 0;  ///< total queue-wait across dispatched jobs
  std::int64_t running_jobs = 0;  ///< gauge: partitions executing now
  std::int64_t queue_depth = 0;   ///< gauge: jobs waiting
};

/// A long-running multi-tenant job service over one CAB runtime: bounded
/// tiered admission (TieredQueue), squad-level space partitioning
/// (SquadAllocator + Runtime::run_on), and one executor thread per squad
/// — the maximum number of concurrently running partitions, since every
/// partition holds at least one squad.
///
/// Jobs on disjoint partitions execute concurrently, each under its own
/// bi-tier protocol instance with BL relative to its partition. The
/// runtime's between-epoch observability contract still applies to the
/// service as a whole: call metrics_snapshot() only while idle (after
/// drain()); counters() is the always-safe view.
class JobService {
 public:
  explicit JobService(ServiceOptions opts);
  /// Graceful: equivalent to shutdown().
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Submits a job. Never throws on load: the returned ticket's state
  /// reports rejection (kRejected) under the kReject policy, after
  /// shutdown, or when a kBlock wait is cut short by shutdown.
  JobTicket submit(JobDesc desc);

  /// Cancels a job that is still queued. Returns true and moves the
  /// ticket to kCancelled on success; false once the job is already
  /// running (or terminal) — running partitions are never interrupted.
  bool cancel(const JobTicket& ticket);

  /// Blocks until the queue is empty and no job is running. New submits
  /// during a drain() extend it.
  void drain();

  /// Stops admission (subsequent submits are rejected), lets every
  /// queued and running job finish, then joins the executors. Idempotent.
  void shutdown();

  /// Coherent snapshot of the service counters; callable at any time.
  ServiceCounters counters() const;

  /// Flushes svc.* counters/gauges into the runtime's metrics registry
  /// and returns the full registry snapshot. Inherits the runtime's
  /// between-epochs contract: call only while no job is running
  /// (typically after drain()); fails loudly otherwise.
  obs::metrics::Snapshot metrics_snapshot();

  /// The underlying runtime (for post-drain stats()/trace() etc.).
  runtime::Runtime& rt() { return *rt_; }

  const ServiceOptions& options() const { return opts_; }
  int executor_count() const { return static_cast<int>(executors_.size()); }

 private:
  void executor_main();
  /// Dispatches `job` on `partition` (outside the service lock), then
  /// returns the partition and settles the ticket.
  void run_job(const std::shared_ptr<detail::JobRecord>& job,
               const std::vector<int>& partition);
  JobTicket reject_locked(const std::shared_ptr<detail::JobRecord>& rec,
                          std::uint64_t now_ns);

  ServiceOptions opts_;
  std::unique_ptr<runtime::Runtime> rt_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< executors: queue or stop state
  std::condition_variable space_cv_;  ///< kBlock submitters: queue space
  std::condition_variable idle_cv_;   ///< drain()/shutdown(): quiescence
  TieredQueue queue_;
  SquadAllocator alloc_;
  ServiceCounters counters_;
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;

  // Pre-registered svc.* metrics (null when Options::metrics is off).
  // Written in slot 0 only, and only from metrics_snapshot() while the
  // service is idle — the registry's single-writer rule holds trivially.
  obs::metrics::Counter* m_submitted_ = nullptr;
  obs::metrics::Counter* m_admitted_ = nullptr;
  obs::metrics::Counter* m_rejected_ = nullptr;
  obs::metrics::Counter* m_completed_ = nullptr;
  obs::metrics::Counter* m_failed_ = nullptr;
  obs::metrics::Counter* m_cancelled_ = nullptr;
  obs::metrics::Counter* m_promoted_ = nullptr;
  obs::metrics::Counter* m_queued_ns_ = nullptr;
  obs::metrics::Gauge* m_running_jobs_ = nullptr;
  obs::metrics::Gauge* m_queue_depth_ = nullptr;

  std::vector<std::thread> executors_;

  friend struct JobServiceLayout;
};

struct JobServiceLayout {
  using S = JobService;
  // share-ok: straddle-ok: every cv wait/notify in the service holds
  // mu_, so the mutex and its three cvs are contended as one unit; the
  // service-global lock, not the layout, is the scalability boundary.
  static_assert(util::layout::cluster(CAB_SPAN(S, mu_),
                                      CAB_SPAN(S, idle_cv_)).size ==
                    sizeof(std::mutex) + 3 * sizeof(std::condition_variable),
                "hot-cohabit: JobService's mu_/cv cluster must stay one "
                "contiguous unit");
};

}  // namespace cab::svc
