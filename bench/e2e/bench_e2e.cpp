// bench_e2e — end-to-end benchmark of the threaded runtime, broken down
// by layer. See README.md in this directory for the workloads, the
// layer -> metric -> workload map, and the measured table.
//
// One process runs one workload on a fixed virtual topology of 2 sockets
// x 2 cores (4 workers). Topology::detect() is not used: on a
// single-socket host it reports one socket, the bi-tier protocol then
// degenerates to BL = 0, and the inter tier this runtime is about would
// never run.
//
//   --trace=0  end-to-end metrics from an untraced run: wall time of one
//              epoch (one job for svc), its tail, speedup over the serial
//              elision, set-up time and peak RSS.
//   --trace=1  per-layer metrics: Runtime::stats() counts from an
//              untraced phase, spawn overhead and work inflation from a
//              1-worker phase, and attribution, steal latency, squad
//              occupancy and tracing overhead from a traced phase.
//
// Every parallel epoch is checked against the serial elision, and every
// job that does not end kDone with the right value counts as failed and
// as +inf latency. The last stdout line is the result object
// {correct, attempted, failed, metrics}; the line before it is the full
// cab-bench-v1 record (quartiles, host fingerprint), which --record also
// appends to a JSON-lines file for --compare.
//
// Usage:
//   bench_e2e --workload=fib|heat|queens|svc [--seed=1] [--seconds=20]
//             [--trace=0|1] [--record=<set.jsonl>]
//   bench_e2e --smoke
//   bench_e2e --compare=<setA.jsonl>,<setB.jsonl>
//   common:   [--benchmark-json=<file>]   (default ./BENCHMARK.json)

#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/heat.hpp"
#include "apps/queens.hpp"
#include "obs/attrib/attrib.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"
#include "runtime/runtime.hpp"
#include "svc/service.hpp"
#include "util/args.hpp"

#ifndef CAB_E2E_BUILD_TYPE
#define CAB_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using cab::obs::now_ns;
using cab::runtime::Options;
using cab::runtime::Runtime;
using cab::runtime::WorkerStats;

constexpr int kSockets = 2;
constexpr int kCoresPerSocket = 2;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Receives results that are timed but not otherwise used, so the
/// compiler cannot drop the calls.
volatile std::uint64_t g_sink = 0;

/// Per-worker timeline bound. Buffers grow only as events arrive, so this
/// caps memory without reserving it; the traced run asserts no drops.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 24;

/// Set-up time is the median of this many constructions. A fixed count,
/// not a time budget: every construction leaves allocator state behind,
/// so a varying count would move peak RSS.
constexpr int kSetupRepeats = 5;
/// Floor on measured pairs per phase, so that very short runs still
/// produce a sample.
constexpr int kMinPairs = 3;

/// Share of --seconds each --trace=1 phase measures for. The service's
/// trace keeps every job (~80 KiB of events each), so its traced phase
/// is short and its count phase takes the rest.
constexpr double kCountPhase = 0.4;
constexpr double kOneWorkerPhase = 0.2;
constexpr double kTracedPhase = 0.4;
constexpr double kSvcTracedPhase = 0.05;
constexpr double kSvcCountPhase = 1 - kOneWorkerPhase - kSvcTracedPhase;

cab::hw::Topology bench_topology() {
  return cab::hw::Topology::synthetic(kSockets, kCoresPerSocket);
}

/// Designated initializers keep Options' default Topology::detect() (a
/// sysfs read) from running.
Options runtime_options(const cab::hw::Topology& topo, std::int32_t bl,
                        std::uint64_t seed, bool trace = false,
                        bool hw_counters = false) {
  return Options{.topo = topo,
                 .boundary_level = bl,
                 .seed = seed,
                 .trace = trace,
                 .trace_capacity = kTraceCapacity,
                 .hw_counters = hw_counters,
                 .adapt = {}};
}

double ms_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

std::uint64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
}

// ---------------------------------------------------------------------------
// Statistics and the result record
// ---------------------------------------------------------------------------

/// Linear-interpolation quantile of a sorted sample; +inf entries (failed
/// jobs) propagate instead of turning into NaN.
double quantile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  if (frac == 0 || sorted[hi] == sorted[lo]) return sorted[lo];
  if (std::isinf(sorted[hi])) return sorted[hi];
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

struct Dist {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  std::size_t n = 0;
};

Dist dist_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Dist{quantile(v, 0.5), quantile(v, 0.25), quantile(v, 0.75),
              v.size()};
}

Dist scalar(double v) { return Dist{v, v, v, 1}; }

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return quantile(v, p);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Which result line carries a metric. kExtra metrics (host-dependent,
/// e.g. hardware counters) appear only in the record.
enum class Kind { kEndToEnd, kPerLayer, kExtra };

struct Metric {
  std::string name;
  std::string unit;
  Kind kind = Kind::kEndToEnd;
  Dist d;
};

struct RunResult {
  std::string workload;
  std::string params;  ///< input sizes and BL
  std::uint64_t seed = 1;
  bool traced = false;
  double seconds = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t epochs = 0;  ///< measured parallel epochs (jobs for svc)
  std::vector<Metric> metrics;

  bool correct() const { return failed == 0; }

  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  void add(const std::string& name, const std::string& unit, Kind kind,
           Dist d) {
    metrics.push_back(Metric{name, unit, kind, d});
  }

  const Metric* find(const std::string& name) const {
    for (const Metric& m : metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
};

/// JSON number with all its digits. +inf (a failed job's latency) prints
/// as 1e999: valid JSON syntax that parsers read back as infinity.
std::string num(double v) {
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  if (std::isnan(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {0};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {0};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const std::size_t b = s.find_first_not_of(' ');
    const std::size_t e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

/// Build identity from CAB_GIT_REV (the benchmark does not run git: the
/// checkout it measures need not be a repository).
std::string git_rev() {
  const char* v = std::getenv("CAB_GIT_REV");
  return v != nullptr && *v != '\0' ? v : "unknown";
}

/// This process image's peak RSS (VmHWM). Not getrusage: Linux carries
/// ru_maxrss across execve, so it would report the launcher's peak when
/// that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// The cab-bench-v1 record: envelope fields cab_bench_report merge needs,
/// host fingerprint, and every metric's median with its quartiles.
std::string record_json(const RunResult& r) {
  const cab::hw::Topology topo = bench_topology();
  std::string j = "{\"schema\":\"cab-bench-v1\",\"bench\":\"e2e\"";
  j += ",\"git_rev\":";
  append_escaped(j, git_rev());
  j += ",\"generated_unix\":" +
       std::to_string(static_cast<long long>(std::time(nullptr)));
  j += ",\"topology\":{\"sockets\":" + std::to_string(topo.sockets());
  j += ",\"cores_per_socket\":" + std::to_string(topo.cores_per_socket());
  j += ",\"shared_cache_bytes\":" + std::to_string(topo.shared_cache_bytes());
  j += ",\"describe\":";
  append_escaped(j, topo.describe());
  j += "},\"host\":{\"nproc\":" +
       std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  j += ",\"cpu_model\":";
  append_escaped(j, cpu_model());
  j += ",\"build_type\":";
  append_escaped(j, CAB_E2E_BUILD_TYPE);
  j += "},\"workload\":";
  append_escaped(j, r.workload);
  j += ",\"params\":";
  append_escaped(j, r.params);
  j += ",\"seed\":" + std::to_string(r.seed);
  j += ",\"trace\":" + std::string(r.traced ? "1" : "0");
  j += ",\"seconds\":" + num(r.seconds);
  j += ",\"epochs\":" + std::to_string(r.epochs);
  j += ",\"correct\":" + std::string(r.correct() ? "true" : "false");
  j += ",\"attempted\":" + std::to_string(r.attempted);
  j += ",\"failed\":" + std::to_string(r.failed);
  j += ",\"metrics\":{";
  std::string medians;
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i) j += ',';
    append_escaped(j, m.name);
    j += ":{\"value\":" + num(m.d.median) + ",\"unit\":";
    append_escaped(j, m.unit);
    j += ",\"q1\":" + num(m.d.q1) + ",\"q3\":" + num(m.d.q3) +
         ",\"n\":" + std::to_string(m.d.n) + "}";
    medians += ",";
    append_escaped(medians, m.name);
    medians += ":" + num(m.d.median);
  }
  // configs[] is the per-config view cab_bench_report diff flattens.
  j += "},\"configs\":[{\"name\":";
  append_escaped(j, r.workload);
  j += medians + "}]}";
  return j;
}

/// The contract line: every metric of the run's kind, value and unit.
std::string result_json(const RunResult& r) {
  const Kind want = r.traced ? Kind::kPerLayer : Kind::kEndToEnd;
  std::string j = "{\"correct\": ";
  j += r.correct() ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(r.attempted);
  j += ", \"failed\": " + std::to_string(r.failed);
  j += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    if (m.kind != want) continue;
    if (!first) j += ", ";
    first = false;
    append_escaped(j, m.name);
    j += ": {\"value\": " + num(m.d.median) + ", \"unit\": ";
    append_escaped(j, m.unit);
    j += "}";
  }
  j += "}}";
  return j;
}

void print_table(const RunResult& r) {
  std::printf("bench_e2e %s seed=%llu trace=%d: %s\n", r.workload.c_str(),
              static_cast<unsigned long long>(r.seed), r.traced ? 1 : 0,
              r.params.c_str());
  std::printf("  %llu measured epoch(s)/job(s); %llu checked, %llu failed\n",
              static_cast<unsigned long long>(r.epochs),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const Metric& m : r.metrics) {
    std::printf("  %-36s %14.6g %-6s [q1 %.6g, q3 %.6g] n=%zu\n",
                m.name.c_str(), m.d.median, m.unit.c_str(), m.d.q1, m.d.q3,
                m.d.n);
  }
}

// ---------------------------------------------------------------------------
// Application workloads
// ---------------------------------------------------------------------------

long fib_task(int n) {
  if (n < 2) return n;
  long a = 0;
  long b = 0;
  Runtime::spawn([n, &a] { a = fib_task(n - 1); });
  Runtime::spawn([n, &b] { b = fib_task(n - 2); });
  Runtime::sync();
  return a + b;
}

long fib_serial(int n) {
  if (n < 2) return n;
  return fib_serial(n - 1) + fib_serial(n - 2);
}

/// One fork-join program: its parallel run on a Runtime and its serial
/// elision, each returning a result compared for exact equality (fib
/// value, queens count, the bits of the heat checksum — Jacobi, so
/// parallel and serial are bit-identical).
struct App {
  std::string params;
  std::uint64_t input_bytes = 0;  ///< Eq. 4's Sd; 0 = CPU-bound, BL = 0
  std::function<std::uint64_t(Runtime&)> parallel;
  std::function<std::uint64_t()> serial;

  std::int32_t bl() const {
    return input_bytes == 0
               ? 0
               : cab::runtime::auto_boundary_level(bench_topology(),
                                                   input_bytes);
  }
};

App make_app(const std::string& workload, bool smoke) {
  App a;
  if (workload == "fib") {
    // ~1M spawns per epoch: enough epochs for a p90 in a 20 s run, and
    // the traced epoch (two events per task) stays near 50 MiB.
    const int n = smoke ? 20 : 28;
    a.params = "fib(" + std::to_string(n) + ")";
    a.parallel = [n](Runtime& rt) {
      long v = 0;
      rt.run([&] { v = fib_task(n); });
      return static_cast<std::uint64_t>(v);
    };
    a.serial = [n] { return static_cast<std::uint64_t>(fib_serial(n)); };
  } else if (workload == "heat") {
    cab::apps::HeatParams p;
    if (smoke) {
      p.rows = p.cols = 128;
      p.steps = 4;
    } else {
      p.rows = p.cols = 1024;
      p.steps = 100;
    }
    p.leaf_rows = 16;
    a.params = "heat " + std::to_string(p.rows) + "x" +
               std::to_string(p.cols) + ", " + std::to_string(p.steps) +
               " steps, leaf_rows=16";
    a.input_bytes = p.input_bytes();
    a.parallel = [p](Runtime& rt) {
      return std::bit_cast<std::uint64_t>(cab::apps::run_heat(rt, p));
    };
    a.serial = [p] {
      return std::bit_cast<std::uint64_t>(cab::apps::run_heat_serial(p));
    };
  } else {
    cab::apps::QueensParams p;
    p.n = smoke ? 8 : 13;
    p.spawn_depth = smoke ? 3 : 5;
    a.params = "queens n=" + std::to_string(p.n) +
               ", spawn_depth=" + std::to_string(p.spawn_depth);
    a.parallel = [p](Runtime& rt) { return cab::apps::run_queens(rt, p); };
    a.serial = [p] { return cab::apps::run_queens_serial(p); };
  }
  a.params += ", BL=" + std::to_string(a.bl());
  return a;
}

/// Times `make` (construction plus the first, cold epoch or job), reports
/// the median as setup_s, and returns the last object made for the
/// measured run. Earlier ones are destroyed before the next is made.
template <typename Make>
auto timed_setups(const Make& make, RunResult& r) {
  std::vector<double> setup_s;
  decltype(make()) made;
  for (int i = 0; i < kSetupRepeats; ++i) {
    made.reset();
    const std::uint64_t t0 = now_ns();
    made = make();
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  }
  r.add("setup_s", "s", Kind::kEndToEnd, dist_of(setup_s));
  return made;
}

/// Wall times of measured epochs plus each parallel epoch's stats()
/// counts (taken between reset_stats() and the next epoch).
struct Epochs {
  std::vector<double> par_ms;
  std::vector<double> ser_ms;
  std::vector<WorkerStats> counts;
  std::int64_t peak_live_frames = 0;
};

/// Parallel epochs until the deadline, each followed by a serial-elision
/// epoch when `serial` is set: the 1:1 interleave cancels host drift in
/// the speedup ratio. `after` sees the runtime after each parallel epoch
/// (the traced phase reads the trace there).
Epochs run_epochs(Runtime& rt, const App& app, std::uint64_t expected,
                  std::uint64_t deadline, bool serial, RunResult& r,
                  const std::function<void(Runtime&)>& after = {}) {
  Epochs e;
  for (int pairs = 0; pairs < kMinPairs || now_ns() < deadline; ++pairs) {
    rt.reset_stats();
    const std::uint64_t t0 = now_ns();
    const std::uint64_t v = app.parallel(rt);
    e.par_ms.push_back(ms_between(t0, now_ns()));
    r.check(v == expected);
    e.counts.push_back(rt.stats().total);
    e.peak_live_frames = std::max(e.peak_live_frames, rt.peak_live_frames());
    if (after) after(rt);
    if (serial) {
      const std::uint64_t s0 = now_ns();
      const std::uint64_t sv = app.serial();
      e.ser_ms.push_back(ms_between(s0, now_ns()));
      r.check(sv == expected);
    }
  }
  return e;
}

// ---------------------------------------------------------------------------
// Per-layer metrics shared by every workload
// ---------------------------------------------------------------------------

/// Runtime counter metrics. `per_epoch` ones are divided by the number of
/// epochs each WorkerStats covers (1 per app epoch; the job count for the
/// service, whose counts are totals over the phase).
struct CountMetric {
  const char* name;
  const char* unit;
  bool per_epoch;
  double (*value)(const WorkerStats&);
};

double spawns_of(const WorkerStats& s) {
  return static_cast<double>(s.spawns_intra + s.spawns_inter);
}

double acquired_of(const WorkerStats& s) {
  return static_cast<double>(s.intra_pop_hits + s.intra_steals +
                             s.inter_acquires + s.inter_steals);
}

const CountMetric kCountMetrics[] = {
    {"runtime.spawns_per_epoch", "count", true, spawns_of},
    {"runtime.lazy_ratio", "ratio", false,
     [](const WorkerStats& s) {
       return ratio(static_cast<double>(s.alloc_lazy_spawns), spawns_of(s));
     }},
    {"runtime.promotion_ratio", "ratio", false,
     [](const WorkerStats& s) {
       return ratio(static_cast<double>(s.alloc_promotions),
                    static_cast<double>(s.alloc_lazy_spawns));
     }},
    {"runtime.help_iterations_per_epoch", "count", true,
     [](const WorkerStats& s) {
       return static_cast<double>(s.help_iterations);
     }},
    {"deque.pop_hit_ratio", "ratio", false,
     [](const WorkerStats& s) {
       return ratio(static_cast<double>(s.intra_pop_hits), acquired_of(s));
     }},
    {"steal.intra_per_epoch", "count", true,
     [](const WorkerStats& s) { return static_cast<double>(s.intra_steals); }},
    {"steal.failed_per_epoch", "count", true,
     [](const WorkerStats& s) {
       return static_cast<double>(s.failed_steal_attempts);
     }},
    {"steal.success_ratio", "ratio", false,
     [](const WorkerStats& s) {
       const double ok = static_cast<double>(s.intra_steals + s.inter_steals);
       return ratio(ok, ok + static_cast<double>(s.failed_steal_attempts));
     }},
    {"steal.batch_mean", "count", false,
     [](const WorkerStats& s) {
       return ratio(static_cast<double>(s.steal_batch_tasks),
                    static_cast<double>(s.steal_batches));
     }},
    {"protocol.inter_acquires_per_epoch", "count", true,
     [](const WorkerStats& s) {
       return static_cast<double>(s.inter_acquires);
     }},
    {"protocol.inter_steals_per_epoch", "count", true,
     [](const WorkerStats& s) { return static_cast<double>(s.inter_steals); }},
    {"idle.backoff_sleeps_per_epoch", "count", true,
     [](const WorkerStats& s) {
       return static_cast<double>(s.idle_backoff_sleeps);
     }},
    {"alloc.freelist_hits_per_epoch", "count", true,
     [](const WorkerStats& s) {
       return static_cast<double>(s.alloc_freelist_hits);
     }},
    {"alloc.remote_frees_per_epoch", "count", true,
     [](const WorkerStats& s) {
       return static_cast<double>(s.alloc_remote_frees);
     }},
};

void add_count_metrics(RunResult& r, const std::vector<WorkerStats>& counts,
                       double epochs_each, std::int64_t peak_live_frames) {
  for (const CountMetric& m : kCountMetrics) {
    std::vector<double> v;
    v.reserve(counts.size());
    for (const WorkerStats& s : counts) {
      v.push_back(m.per_epoch ? m.value(s) / epochs_each : m.value(s));
    }
    r.add(m.name, m.unit, Kind::kPerLayer, dist_of(std::move(v)));
  }
  // Counted over the whole phase, after the cold epoch: flat after
  // warm-up means this stays near 0.
  double refills = 0;
  for (const WorkerStats& s : counts) {
    refills += static_cast<double>(s.alloc_slab_refills);
  }
  r.add("alloc.slab_refills", "count", Kind::kPerLayer, scalar(refills));
  r.add("alloc.peak_live_frames", "count", Kind::kPerLayer,
        scalar(static_cast<double>(peak_live_frames)));
}

/// LLC miss rates where perf_event_open works (record only: absent on
/// hosts that block the syscall).
void add_hw_metrics(RunResult& r, Runtime& rt) {
  if (!rt.hw_counters_active()) return;
  const cab::obs::metrics::Snapshot s = rt.metrics_snapshot();
  const auto rate = [&](const char* tier) {
    const auto* loads = s.find("hw.llc_loads", {{"tier", tier}});
    const auto* misses = s.find("hw.llc_load_misses", {{"tier", tier}});
    return loads != nullptr && misses != nullptr
               ? ratio(static_cast<double>(misses->total),
                       static_cast<double>(loads->total))
               : 0.0;
  };
  r.add("hw.llc_miss_rate", "ratio", Kind::kExtra, scalar(rate("total")));
  r.add("hw.llc_miss_rate_inter", "ratio", Kind::kExtra,
        scalar(rate("inter")));
}

/// Spawn overhead and work inflation: a 1-worker runtime's T1 against the
/// serial elision, medians of interleaved epochs.
void one_worker_phase(const App& app, std::uint64_t expected, double seconds,
                      std::uint64_t seed, RunResult& r) {
  Runtime rt(runtime_options(cab::hw::Topology::synthetic(1, 1), 0, seed));
  r.check(app.parallel(rt) == expected);  // cold epoch
  const Epochs e = run_epochs(rt, app, expected,
                              deadline_after(seconds * kOneWorkerPhase),
                              /*serial=*/true, r);
  std::vector<double> spawns;
  for (const WorkerStats& s : e.counts) spawns.push_back(spawns_of(s));
  const double t1_ms = dist_of(e.par_ms).median;
  const double serial_ms = dist_of(e.ser_ms).median;
  r.add("runtime.spawn_overhead_ns", "ns", Kind::kPerLayer,
        scalar(ratio((t1_ms - serial_ms) * 1e6, dist_of(spawns).median)));
  r.add("runtime.work_inflation", "x", Kind::kPerLayer,
        scalar(ratio(t1_ms, serial_ms)));
}

/// Worker time inside epochs, for a trace of many service jobs: the
/// per-job analogue of an app epoch's attribution window, leaving out
/// parked time between jobs. Each epoch opens on every worker of its
/// partition with a lead-in kIdle span stamped at the epoch start, so the
/// same t0 on two or more workers marks an epoch boundary; a worker's
/// epoch ends with its last span before the next boundary.
double epoch_worker_ns(const cab::obs::Trace& t) {
  using cab::obs::EventKind;
  std::map<std::uint64_t, int> idle_starts;
  for (const cab::obs::WorkerTimeline& w : t.workers) {
    for (const cab::obs::TraceEvent& e : w.events) {
      if (e.kind == EventKind::kIdle) ++idle_starts[e.t0];
    }
  }
  double total = 0;
  for (const cab::obs::WorkerTimeline& w : t.workers) {
    std::vector<cab::obs::TraceEvent> spans;
    for (const cab::obs::TraceEvent& e : w.events) {
      if (cab::obs::is_span(e.kind)) spans.push_back(e);
    }
    std::sort(spans.begin(), spans.end(),
              [](const auto& x, const auto& y) { return x.t0 < y.t0; });
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const cab::obs::TraceEvent& s = spans[i];
      const bool opens = i == 0 || (s.kind == EventKind::kIdle &&
                                    idle_starts[s.t0] >= 2);
      if (opens) {
        total += static_cast<double>(end - begin);
        begin = s.t0;
        end = s.t1;
      } else {
        end = std::max(end, s.t1);
      }
    }
    total += static_cast<double>(end - begin);
  }
  return total;
}

/// Per-epoch (apps) or per-phase (svc) readings of a traced run.
struct TraceLayers {
  std::vector<double> exec, exec_inter, steal, protocol, idle, untracked;
  std::vector<double> intra_hit_p50, intra_hit_p99, intra_miss_p50;
  std::vector<double> inter_acquire_hit_p50, squad_busy;
  std::uint64_t dropped = 0;

  /// Time shares are of `worker_ns` when given (the service: worker time
  /// inside job epochs), else of the attribution window times the workers
  /// (an app epoch).
  void add(const cab::obs::Trace& t, double worker_ns = 0) {
    dropped += t.dropped_count();
    const cab::obs::attrib::Buckets b = cab::obs::attrib::attribute(t).total;
    const double whole =
        worker_ns > 0 ? worker_ns : static_cast<double>(b.wall);
    const auto share = [&](std::uint64_t ns) {
      return ratio(static_cast<double>(ns), whole);
    };
    exec.push_back(share(b.exec()));
    exec_inter.push_back(share(b.exec_inter));
    steal.push_back(share(b.steal_intra + b.steal_inter));
    protocol.push_back(share(b.protocol));
    idle.push_back(share(b.idle));
    untracked.push_back(std::max(0.0, 1.0 - share(b.explained())));

    const cab::obs::StealLatencyReport lat = cab::obs::steal_latency(t);
    const auto ns = [](std::uint64_t v) { return static_cast<double>(v); };
    if (lat.intra_hit.count > 0) {
      intra_hit_p50.push_back(ns(lat.intra_hit.p50_ns));
      intra_hit_p99.push_back(ns(lat.intra_hit.p99_ns));
    }
    if (lat.intra_miss.count > 0) {
      intra_miss_p50.push_back(ns(lat.intra_miss.p50_ns));
    }
    if (lat.inter_acquire_hit.count > 0) {
      inter_acquire_hit_p50.push_back(ns(lat.inter_acquire_hit.p50_ns));
    }
    const cab::obs::OccupancyReport occ = cab::obs::squad_occupancy(t);
    double busy = 0;
    for (const cab::obs::SquadOccupancy& s : occ.squads) {
      busy += s.busy_fraction;
    }
    squad_busy.push_back(ratio(busy, static_cast<double>(occ.squads.size())));
  }

  void report(RunResult& r) const {
    const auto d = [](const std::vector<double>& v) {
      return v.empty() ? scalar(0) : dist_of(v);
    };
    const Kind k = Kind::kPerLayer;
    r.add("steal.intra_hit_p50_ns", "ns", k, d(intra_hit_p50));
    r.add("steal.intra_hit_p99_ns", "ns", k, d(intra_hit_p99));
    r.add("steal.intra_miss_p50_ns", "ns", k, d(intra_miss_p50));
    r.add("protocol.inter_acquire_hit_p50_ns", "ns", k,
          d(inter_acquire_hit_p50));
    r.add("protocol.share", "ratio", k, d(protocol));
    r.add("protocol.squad_busy_fraction", "ratio", k, d(squad_busy));
    r.add("attrib.exec_share", "ratio", k, d(exec));
    r.add("attrib.exec_inter_share", "ratio", k, d(exec_inter));
    r.add("attrib.steal_share", "ratio", k, d(steal));
    r.add("attrib.idle_share", "ratio", k, d(idle));
    r.add("attrib.untracked_share", "ratio", k, d(untracked));
    r.add("obs.dropped_events", "count", k,
          scalar(static_cast<double>(dropped)));
    r.check(dropped == 0);  // a truncated trace under-reports every share
  }
};

struct SvcLayers {
  std::vector<double> submit_us, queue_ms, run_ms, late_ms;
  std::uint64_t promoted = 0;

  void report(RunResult& r) const {
    const Kind k = Kind::kPerLayer;
    r.add("svc.submit_p50_us", "us", k, scalar(percentile(submit_us, 0.5)));
    r.add("svc.submit_p99_us", "us", k, scalar(percentile(submit_us, 0.99)));
    r.add("svc.queue_wait_p50_ms", "ms", k,
          scalar(percentile(queue_ms, 0.5)));
    r.add("svc.queue_wait_p99_ms", "ms", k,
          scalar(percentile(queue_ms, 0.99)));
    r.add("svc.run_p50_ms", "ms", k, scalar(percentile(run_ms, 0.5)));
    r.add("svc.promoted", "count", k,
          scalar(static_cast<double>(promoted)));
    r.add("gen.late_p99_ms", "ms", k, scalar(percentile(late_ms, 0.99)));
  }
};

// ---------------------------------------------------------------------------
// App workloads: fib, heat, queens
// ---------------------------------------------------------------------------

RunResult run_app(const std::string& workload, std::uint64_t seed,
                  double seconds, bool traced, bool smoke) {
  const App app = make_app(workload, smoke);
  RunResult r;
  r.workload = workload;
  r.params = app.params;
  r.seed = seed;
  r.traced = traced;
  r.seconds = seconds;
  const std::uint64_t expected = app.serial();  // also warms the code
  const std::int32_t bl = app.bl();

  if (!traced) {
    const std::unique_ptr<Runtime> rt = timed_setups(
        [&] {
          auto made = std::make_unique<Runtime>(
              runtime_options(bench_topology(), bl, seed));
          r.check(app.parallel(*made) == expected);
          return made;
        },
        r);
    const Epochs e = run_epochs(*rt, app, expected, deadline_after(seconds),
                                /*serial=*/true, r);
    r.epochs = e.par_ms.size();
    // Speedup per adjacent (parallel, serial) pair, so drift slower than
    // one pair cancels.
    std::vector<double> speedups;
    for (std::size_t i = 0; i < e.par_ms.size(); ++i) {
      speedups.push_back(ratio(e.ser_ms[i], e.par_ms[i]));
    }
    r.add("wall_ms", "ms", Kind::kEndToEnd, dist_of(e.par_ms));
    r.add("wall_tail_ms", "ms", Kind::kEndToEnd,
          scalar(percentile(e.par_ms, 0.9)));
    r.add("speedup", "x", Kind::kEndToEnd, dist_of(speedups));
    r.add("peak_rss_mb", "MiB", Kind::kEndToEnd, scalar(peak_rss_mb()));
    r.add("serial_ms", "ms", Kind::kExtra, dist_of(e.ser_ms));
    return r;
  }

  // Phase A: untraced — the stats() counts. Its epochs, like the traced
  // phase's, run back to back, so the two compare for the trace overhead.
  std::vector<double> untraced_ms;
  {
    Runtime rt(runtime_options(bench_topology(), bl, seed, false, true));
    r.check(app.parallel(rt) == expected);  // cold epoch
    const Epochs e = run_epochs(rt, app, expected,
                                deadline_after(seconds * kCountPhase),
                                /*serial=*/false, r);
    r.epochs = e.par_ms.size();
    add_count_metrics(r, e.counts, 1.0, e.peak_live_frames);
    add_hw_metrics(r, rt);
    untraced_ms = e.par_ms;
  }

  // Phase C: one worker — T1 against the serial elision.
  one_worker_phase(app, expected, seconds, seed, r);

  // Phase B: traced.
  TraceLayers layers;
  std::vector<double> traced_ms;
  {
    Runtime rt(runtime_options(bench_topology(), bl, seed, true));
    r.check(app.parallel(rt) == expected);
    traced_ms = run_epochs(rt, app, expected,
                           deadline_after(seconds * kTracedPhase),
                           /*serial=*/false, r,
                           [&](Runtime& traced_rt) {
                             layers.add(traced_rt.trace());
                           })
                    .par_ms;
  }
  layers.report(r);
  r.add("obs.trace_overhead", "x", Kind::kPerLayer,
        scalar(ratio(dist_of(traced_ms).median, dist_of(untraced_ms).median)));
  SvcLayers{}.report(r);  // no service on this workload: all zero
  r.add("peak_rss_mb", "MiB", Kind::kExtra, scalar(peak_rss_mb()));
  return r;
}

// ---------------------------------------------------------------------------
// Service workload: open loop against JobService
// ---------------------------------------------------------------------------

/// Moderate load on the 2x2 service: p50 stays within ~2x the job's run
/// time and nothing is rejected.
constexpr double kSvcRatePerSec = 400;
constexpr int kSvcLeafIters = 2000;
/// Distinct job inputs; each one's expected value is computed serially
/// before the run.
constexpr int kSvcVariants = 16;
constexpr std::uint64_t kSvcTailWindowNs = 5'000'000'000;
/// Serial-elision timings of each variant, before and after the loop.
constexpr int kSvcSerialRounds = 6;

std::uint64_t leaf_chain(std::uint64_t x, int iters) {
  for (int i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return x;
}

std::uint64_t job_tree(int depth, std::uint64_t x, int iters) {
  if (depth == 0) return leaf_chain(x, iters);
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  Runtime::spawn([&a, depth, x, iters] {
    a = job_tree(depth - 1, 2 * x + 1, iters);
  });
  Runtime::spawn([&b, depth, x, iters] {
    b = job_tree(depth - 1, 2 * x + 2, iters);
  });
  Runtime::sync();
  return a + 3 * b;
}

std::uint64_t job_serial(int depth, std::uint64_t x, int iters) {
  if (depth == 0) return leaf_chain(x, iters);
  return job_serial(depth - 1, 2 * x + 1, iters) +
         3 * job_serial(depth - 1, 2 * x + 2, iters);
}

struct SvcInputs {
  int depth = 9;
  std::vector<std::uint64_t> x;         ///< job input per variant
  std::vector<std::uint64_t> expected;  ///< serial result per variant
};

SvcInputs make_svc_inputs(std::uint64_t seed, bool smoke) {
  SvcInputs in;
  in.depth = smoke ? 5 : 9;
  std::mt19937_64 rng(seed);
  for (int v = 0; v < kSvcVariants; ++v) {
    in.x.push_back(rng());
    in.expected.push_back(job_serial(in.depth, in.x.back(), kSvcLeafIters));
  }
  return in;
}

/// Appends `rounds` serial-elision timings of every job variant.
void time_serial_jobs(const SvcInputs& in, int rounds,
                      std::vector<double>& out_ms) {
  for (int round = 0; round < rounds; ++round) {
    for (int v = 0; v < kSvcVariants; ++v) {
      const std::uint64_t t0 = now_ns();
      g_sink = job_serial(in.depth, in.x[v], kSvcLeafIters);
      out_ms.push_back(ms_between(t0, now_ns()));
    }
  }
}

/// p99 latency of each kSvcTailWindowNs window of scheduled arrivals
/// (~2000 jobs, so 20 beyond it), median over windows: one burst of host
/// interference moves one window, not the result.
double windowed_p99(const std::vector<std::uint64_t>& offsets,
                    const std::vector<double>& latency_ms) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const std::size_t w = offsets[i] / kSvcTailWindowNs;
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(latency_ms[i]);
  }
  std::vector<double> p99s;
  for (std::vector<double>& w : windows) {
    if (!w.empty()) p99s.push_back(percentile(std::move(w), 0.99));
  }
  return dist_of(std::move(p99s)).median;
}

/// Poisson arrival offsets (ns from the start) over [0, seconds).
std::vector<std::uint64_t> poisson_schedule(double seconds,
                                            std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(kSvcRatePerSec / 1e9);
  std::vector<std::uint64_t> out;
  for (double t = gap(rng); t < seconds * 1e9; t += gap(rng)) {
    out.push_back(static_cast<std::uint64_t>(t));
  }
  return out;
}

cab::svc::ServiceOptions service_options(std::uint64_t seed, bool trace) {
  // Two tiers so queued jobs exercise anti-starvation promotion.
  return cab::svc::ServiceOptions{
      .runtime = runtime_options(bench_topology(), 0, seed, trace),
      .queue_capacity = 256,
      .backpressure = cab::svc::Backpressure::kReject,
      .max_tier = 1};
}

/// Job i: variant i % kSvcVariants, 1 or 2 squads, tier 0 or 1.
cab::svc::JobDesc job_desc(const SvcInputs& in, std::size_t i,
                           std::uint64_t* slot) {
  const std::uint64_t x = in.x[i % kSvcVariants];
  const int depth = in.depth;
  cab::svc::JobDesc d;
  d.body = [slot, x, depth] { *slot = job_tree(depth, x, kSvcLeafIters); };
  d.squads = 1 + static_cast<int>(i % 2);
  d.tier = static_cast<int>(i % 2);
  d.input_bytes = 1u << 20;
  return d;
}

struct OpenLoop {
  std::vector<std::uint64_t> offsets_ns;  ///< scheduled arrivals
  std::vector<double> latency_ms;  ///< from scheduled arrival; +inf = failed
  double partition_worker_ns = 0;  ///< sum of job run time x granted workers
};

/// Submits on the precomputed schedule regardless of completions (open
/// loop), then drains. Latency runs from the *scheduled* arrival, so a
/// late generator or a stalled service is charged to the jobs it delayed.
OpenLoop open_loop(cab::svc::JobService& svc, const SvcInputs& in,
                   double seconds, std::uint64_t seed, RunResult& r,
                   SvcLayers* layers) {
  const std::vector<std::uint64_t> offsets = poisson_schedule(seconds, seed);
  std::vector<std::uint64_t> results(offsets.size(), 0);
  std::vector<cab::svc::JobTicket> tickets;
  tickets.reserve(offsets.size());
  const std::uint64_t promoted0 = svc.counters().promoted;

  const std::uint64_t base = now_ns();
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const std::uint64_t target = base + offsets[i];
    std::uint64_t now = now_ns();
    if (target > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(target - now));
      now = now_ns();
    }
    cab::svc::JobDesc d = job_desc(in, i, &results[i]);
    const std::uint64_t t0 = now_ns();
    tickets.push_back(svc.submit(std::move(d)));
    if (layers != nullptr) {
      layers->late_ms.push_back(ms_between(target, std::max(target, now)));
      layers->submit_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
  svc.drain();

  OpenLoop out;
  out.offsets_ns = offsets;
  out.latency_ms.reserve(tickets.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const cab::svc::JobTicket& t = tickets[i];
    const bool ok = t.state() == cab::svc::JobState::kDone &&
                    results[i] == in.expected[i % kSvcVariants];
    r.check(ok);
    const std::uint64_t scheduled = base + offsets[i];
    const std::uint64_t fin = t.finish_ns();
    out.latency_ms.push_back(
        ok ? ms_between(scheduled, std::max(scheduled, fin)) : kInf);
    if (!ok) continue;
    const double run_ns =
        static_cast<double>(t.latency_ns() - t.queued_ns());
    out.partition_worker_ns +=
        run_ns * t.granted_squads() * kCoresPerSocket;
    if (layers != nullptr) {
      layers->queue_ms.push_back(static_cast<double>(t.queued_ns()) / 1e6);
      layers->run_ms.push_back(run_ns / 1e6);
    }
  }
  if (layers != nullptr) layers->promoted += svc.counters().promoted - promoted0;
  return out;
}

/// Constructs a service and runs its first (cold) job to completion.
std::unique_ptr<cab::svc::JobService> start_service(const SvcInputs& in,
                                                    std::uint64_t seed,
                                                    bool trace,
                                                    RunResult& r) {
  auto svc =
      std::make_unique<cab::svc::JobService>(service_options(seed, trace));
  std::uint64_t result = 0;
  const cab::svc::JobTicket t = svc->submit(job_desc(in, 0, &result));
  r.check(t.wait() == cab::svc::JobState::kDone && result == in.expected[0]);
  return svc;
}

RunResult run_svc(std::uint64_t seed, double seconds, bool traced,
                  bool smoke) {
  RunResult r;
  r.workload = "svc";
  r.seed = seed;
  r.traced = traced;
  r.seconds = seconds;
  const SvcInputs in = make_svc_inputs(seed, smoke);
  r.params = "Poisson " + std::to_string(static_cast<int>(kSvcRatePerSec)) +
             " jobs/s, depth-" + std::to_string(in.depth) +
             " spawn tree, " + std::to_string(kSvcLeafIters) +
             "-iteration leaves, 1-2 squads/job, 2 tiers";

  if (!traced) {
    // The serial reference is timed on both sides of the loop, which it
    // cannot interleave with without disturbing the service.
    std::vector<double> serial_ms;
    time_serial_jobs(in, kSvcSerialRounds, serial_ms);
    const std::unique_ptr<cab::svc::JobService> svc =
        timed_setups([&] { return start_service(in, seed, false, r); }, r);
    const OpenLoop loop = open_loop(*svc, in, seconds, seed, r, nullptr);
    time_serial_jobs(in, kSvcSerialRounds, serial_ms);
    r.epochs = loop.latency_ms.size();
    const Dist latency = dist_of(loop.latency_ms);
    r.add("wall_ms", "ms", Kind::kEndToEnd, latency);
    r.add("wall_tail_ms", "ms", Kind::kEndToEnd,
          scalar(windowed_p99(loop.offsets_ns, loop.latency_ms)));
    r.add("speedup", "x", Kind::kEndToEnd,
          scalar(ratio(dist_of(serial_ms).median, latency.median)));
    r.add("peak_rss_mb", "MiB", Kind::kEndToEnd, scalar(peak_rss_mb()));
    r.add("serial_ms", "ms", Kind::kExtra, dist_of(serial_ms));
    return r;
  }

  // Phase A: untraced open loop — stats() totals over the phase, per job.
  SvcLayers svc_layers;
  double untraced_p50 = 0;
  {
    auto opts = service_options(seed, false);
    opts.runtime.hw_counters = true;
    cab::svc::JobService svc(opts);
    svc.rt().reset_stats();
    const OpenLoop loop = open_loop(svc, in, seconds * kSvcCountPhase, seed,
                                    r, &svc_layers);
    r.epochs = loop.latency_ms.size();
    untraced_p50 = percentile(loop.latency_ms, 0.5);
    add_count_metrics(r, {svc.rt().stats().total},
                      static_cast<double>(loop.latency_ms.size()),
                      svc.rt().peak_live_frames());
    add_hw_metrics(r, svc.rt());
  }

  // Phase C: one worker running one job's tree directly.
  App job;
  job.parallel = [&in](Runtime& rt) {
    std::uint64_t v = 0;
    rt.run([&] { v = job_tree(in.depth, in.x[0], kSvcLeafIters); });
    return v;
  };
  job.serial = [&in] { return job_serial(in.depth, in.x[0], kSvcLeafIters); };
  one_worker_phase(job, in.expected[0], seconds, seed, r);

  // Phase B: traced open loop. Workers outside any job are parked and
  // leave no spans, so shares are of the worker time inside job epochs.
  // What remains of the time jobs held their partitions is dispatch and
  // completion hand-off in the service (record only).
  OpenLoop loop;
  cab::obs::Trace t;
  {
    auto svc = start_service(in, seed, true, r);
    svc->rt().reset_stats();
    loop = open_loop(*svc, in, seconds * kSvcTracedPhase, seed + 1, r,
                     nullptr);
    t = svc->rt().trace();
  }  // frees the service's own timeline buffers before the analysis
  const double epoch_ns = epoch_worker_ns(t);
  TraceLayers layers;
  layers.add(t, epoch_ns);
  layers.report(r);
  r.add("svc.handoff_share", "ratio", Kind::kExtra,
        scalar(1.0 - ratio(epoch_ns, loop.partition_worker_ns)));
  const double traced_p50 = percentile(loop.latency_ms, 0.5);
  r.add("peak_rss_mb", "MiB", Kind::kExtra, scalar(peak_rss_mb()));
  r.add("obs.trace_overhead", "x", Kind::kPerLayer,
        scalar(ratio(traced_p50, untraced_p50)));
  svc_layers.report(r);
  return r;
}

RunResult run_workload(const std::string& workload, std::uint64_t seed,
                       double seconds, bool traced, bool smoke) {
  return workload == "svc" ? run_svc(seed, seconds, traced, smoke)
                           : run_app(workload, seed, seconds, traced, smoke);
}

// ---------------------------------------------------------------------------
// BENCHMARK.json, --smoke and --compare
// ---------------------------------------------------------------------------

const char* const kWorkloads[] = {"fib", "heat", "queens", "svc"};

bool known_workload(const std::string& w) {
  for (const char* k : kWorkloads) {
    if (w == k) return true;
  }
  return false;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct BenchMetric {
  std::string name;
  bool lower_is_better = true;
  double bound = 0;  ///< end-to-end only
};

struct BenchSpec {
  std::vector<BenchMetric> end_to_end;
  std::vector<BenchMetric> per_layer;
};

BenchSpec read_bench_spec(const std::string& path) {
  const cab::obs::json::Value doc = cab::obs::json::parse(read_file(path));
  BenchSpec spec;
  const auto load = [&](const char* key, std::vector<BenchMetric>& out) {
    for (const cab::obs::json::Value& m : doc[key].as_array()) {
      out.push_back(BenchMetric{m.string_or("name", ""),
                                m.string_or("better", "lower") == "lower",
                                m.number_or("bound", 0)});
    }
  };
  load("end_to_end", spec.end_to_end);
  load("per_layer", spec.per_layer);
  if (spec.end_to_end.empty()) {
    throw std::runtime_error(path + ": no end_to_end metrics");
  }
  return spec;
}

int run_smoke(const BenchSpec& spec) {
  constexpr double kSmokeSeconds = 0.25;
  int problems = 0;
  for (const char* w : kWorkloads) {
    for (const bool traced : {false, true}) {
      const RunResult r = run_workload(w, 1, kSmokeSeconds, traced, true);
      std::printf("%s\n", result_json(r).c_str());
      const auto fail = [&](const std::string& why) {
        std::printf("smoke FAIL %s trace=%d: %s\n", w, traced ? 1 : 0,
                    why.c_str());
        ++problems;
      };
      if (r.failed != 0) {
        fail(std::to_string(r.failed) + " failed operation(s)");
      }
      const Kind want = traced ? Kind::kPerLayer : Kind::kEndToEnd;
      for (const BenchMetric& m : traced ? spec.per_layer : spec.end_to_end) {
        const Metric* got = r.find(m.name);
        if (got == nullptr || got->kind != want) {
          fail("metric " + m.name + " missing");
        }
      }
      if (traced) {
        const Metric* dropped = r.find("obs.dropped_events");
        if (dropped == nullptr || dropped->d.median != 0) {
          fail("trace dropped events");
        }
      }
    }
  }
  std::printf("smoke: %s\n", problems == 0 ? "ok" : "FAILED");
  return problems == 0 ? 0 : 1;
}

/// workload -> metric -> one value per run.
using SetValues = std::map<std::string, std::map<std::string,
                                                 std::vector<double>>>;

SetValues read_set(const std::string& path) {
  SetValues out;
  std::istringstream lines(read_file(path));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const cab::obs::json::Value rec = cab::obs::json::parse(line);
    if (rec.number_or("trace", 0) != 0) continue;  // per-layer records
    const std::string w = rec.string_or("workload", "");
    for (const auto& [name, m] : rec["metrics"].as_object()) {
      out[w][name].push_back(m.number_or("value", 0));
    }
  }
  if (out.empty()) throw std::runtime_error(path + ": no records");
  return out;
}

double rel_iqr(const Dist& d) {
  return d.median != 0 ? (d.q3 - d.q1) / std::fabs(d.median) : 0;
}

/// Each end-to-end metric, per workload: medians and quartiles of both
/// sets, then a verdict against the metric's bound. A set whose spread
/// exceeds the bound cannot resolve the comparison unless every run of
/// one set beats every run of the other.
int run_compare(const BenchSpec& spec, const std::string& path_a,
                const std::string& path_b) {
  const SetValues a = read_set(path_a);
  const SetValues b = read_set(path_b);
  std::set<std::string> workloads;
  for (const auto& [w, m] : a) workloads.insert(w);
  for (const auto& [w, m] : b) workloads.insert(w);

  int regress = 0;
  int unresolved = 0;
  std::printf("%-7s %-14s %26s %26s %7s  %s\n", "load", "metric",
              "A median [q1, q3]", "B median [q1, q3]", "delta", "verdict");
  for (const std::string& w : workloads) {
    for (const BenchMetric& m : spec.end_to_end) {
      const auto find = [&](const SetValues& s) -> std::vector<double> {
        const auto wi = s.find(w);
        if (wi == s.end()) return {};
        const auto mi = wi->second.find(m.name);
        return mi == wi->second.end() ? std::vector<double>{} : mi->second;
      };
      const std::vector<double> va = find(a);
      const std::vector<double> vb = find(b);
      if (va.empty() || vb.empty()) {
        std::printf("%-7s %-14s missing in %s\n", w.c_str(), m.name.c_str(),
                    va.empty() ? "A" : "B");
        ++unresolved;
        continue;
      }
      const Dist da = dist_of(va);
      const Dist db = dist_of(vb);
      // Positive = B is worse than A, as a share of A's median.
      const double worse =
          (m.lower_is_better ? db.median - da.median : da.median - db.median) /
          std::fabs(da.median);
      const auto [a_min, a_max] = std::minmax_element(va.begin(), va.end());
      const auto [b_min, b_max] = std::minmax_element(vb.begin(), vb.end());
      const bool b_all_better =
          m.lower_is_better ? *b_max < *a_min : *b_min > *a_max;
      const char* verdict = "agree";
      if (rel_iqr(da) > m.bound || rel_iqr(db) > m.bound) {
        verdict = b_all_better ? "improve" : "unresolved";
      } else if (worse > m.bound) {
        verdict = "regress";
      } else if (-worse > m.bound) {
        verdict = "improve";
      }
      if (std::strcmp(verdict, "regress") == 0) ++regress;
      if (std::strcmp(verdict, "unresolved") == 0) ++unresolved;
      char qa[64];
      char qb[64];
      std::snprintf(qa, sizeof(qa), "%.4g [%.4g, %.4g]", da.median, da.q1,
                    da.q3);
      std::snprintf(qb, sizeof(qb), "%.4g [%.4g, %.4g]", db.median, db.q1,
                    db.q3);
      std::printf("%-7s %-14s %26s %26s %+6.1f%%  %s (bound %.0f%%)\n",
                  w.c_str(), m.name.c_str(), qa, qb, 100.0 * worse, verdict,
                  100.0 * m.bound);
    }
  }
  std::printf("compare: %d regression(s), %d unresolved\n", regress,
              unresolved);
  return regress > 0 ? 1 : 0;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "bench_e2e: %s\n", why.c_str());
  std::fprintf(
      stderr,
      "usage: bench_e2e --workload=fib|heat|queens|svc [--seed=N]\n"
      "                 [--seconds=S] [--trace=0|1] [--record=<set.jsonl>]\n"
      "       bench_e2e --smoke\n"
      "       bench_e2e --compare=<setA.jsonl>,<setB.jsonl>\n"
      "       common: [--benchmark-json=<file>] (default ./BENCHMARK.json)\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  namespace args = cab::util::args;
  static const std::vector<args::FlagSpec> kKnown = {
      {"workload", true}, {"seed", true},    {"seconds", true},
      {"trace", true},    {"record", true},  {"smoke", false},
      {"compare", true},  {"benchmark-json", true},
  };
  const std::string unknown = args::first_unknown(argc, argv, kKnown);
  if (!unknown.empty()) usage("unknown flag " + unknown);
  if (!args::positionals(argc, argv, kKnown).empty()) {
    usage("unexpected positional argument");
  }

  std::string spec_path = args::value(argc, argv, "benchmark-json");
  if (spec_path.empty()) spec_path = "BENCHMARK.json";

  try {
    if (args::has_flag(argc, argv, "smoke")) {
      return run_smoke(read_bench_spec(spec_path));
    }
    const std::string compare = args::value(argc, argv, "compare");
    if (!compare.empty()) {
      const std::size_t comma = compare.find(',');
      if (comma == std::string::npos) usage("--compare wants A,B");
      return run_compare(read_bench_spec(spec_path), compare.substr(0, comma),
                         compare.substr(comma + 1));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }

  const std::string workload = args::value(argc, argv, "workload");
  if (!known_workload(workload)) usage("--workload must be fib|heat|queens|svc");
  std::uint64_t seed = 1;
  double seconds = 20;
  bool traced = false;
  try {
    std::string v;
    if (!(v = args::value(argc, argv, "seed")).empty()) seed = std::stoull(v);
    if (!(v = args::value(argc, argv, "seconds")).empty()) seconds = std::stod(v);
    if (!(v = args::value(argc, argv, "trace")).empty()) {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      traced = v == "1";
    }
  } catch (const std::exception&) {
    usage("bad --seed or --seconds");
  }
  if (!(seconds > 0 && seconds <= 600)) usage("--seconds must be in (0, 600]");

  const RunResult r = run_workload(workload, seed, seconds, traced, false);
  print_table(r);
  const std::string record = record_json(r);
  std::printf("%s\n", record.c_str());
  const std::string record_path = args::value(argc, argv, "record");
  if (!record_path.empty()) {
    std::FILE* f = std::fopen(record_path.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_e2e: cannot append to %s\n",
                   record_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", record.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result_json(r).c_str());
  return 0;
}
