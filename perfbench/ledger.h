// Measurement plumbing shared by the workloads: the closed-loop timed
// phase, exact percentiles over op samples, process readings (CPU, RSS,
// threads, hypervisor steal) and deltas of the program's own counters.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "trace.h"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Exact percentile (linear interpolation between closest ranks) of
/// `values`, q in [0, 1]. Returns 0 for an empty set.
double percentile(std::vector<double> values, double q);

/// One successful op: when it completed (seconds since the phase began)
/// and how long it took.
struct OpSample {
  double end_s = 0;
  double latency_us = 0;
};

/// Everything a timed phase measured. `ops` holds successful ops only;
/// failed ops are counted and carry no latency.
struct PhaseResult {
  std::vector<OpSample> ops;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  double wall_s = 0;
  double cpu_s = 0;       // user + system time of the whole process
  double steal_ratio = 0; // hypervisor steal / all ticks of the process's CPUs
  int threads = 0;        // process threads at the end of the phase
};

/// A workload: its constructor is the deployment set-up (timed for
/// setup_s), op() is one closed-loop operation.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Closed-loop generator threads.
  virtual std::size_t threads() const = 0;
  /// End-to-end units one op completes (frames per burst; 1 otherwise).
  virtual double units_per_op() const { return 1; }

  /// Run op number `k` of generator thread `thread`. Returns the op's
  /// latency in microseconds once its outputs have been checked, or
  /// nullopt (with `error` set) when an output is wrong. May throw.
  virtual std::optional<double> op(std::size_t thread, std::uint64_t k,
                                   SpanSink* sink, std::string& error) = 0;

  /// Snapshot state the program keeps outside its metrics registry (e.g.
  /// per-enclave ECALL counts); called right before the timed phase.
  virtual void begin_phase() {}
  /// Per-layer metrics of the phase just ended. The program's metrics
  /// registry is reset when a phase starts, so its counters and histograms
  /// cover exactly the phase; span-derived times need `tracer`.
  virtual void layer_metrics(const PhaseResult& phase, const Tracer* tracer,
                             Metrics& out) = 0;
  /// Correctness checks that need the whole run (e.g. flows still present).
  virtual bool final_check(std::string& error) = 0;
};

/// Run `w` closed-loop for `seconds` on w.threads() generator threads,
/// after resetting the program's metrics registry. Each thread gets its own
/// span sink when `tracer` is set.
PhaseResult run_phase(Workload& w, double seconds, Tracer* tracer);

/// Completed units per second, as the median over one-second windows of
/// the phase (a single hypervisor stall then moves one window, not the
/// figure).
double windowed_rate(const PhaseResult& phase, double units_per_op);

/// p50 of the second half of the phase's ops over p50 of the first half.
double drift_ratio(const PhaseResult& phase);

std::vector<double> latencies(const PhaseResult& phase);

double peak_rss_mb();
/// Resident set right now.
double rss_mb();

/// Restrict the calling thread, and every thread it starts afterwards, to
/// the highest-numbered `n` CPUs of the set the process started with (all
/// of them when it has fewer). Returns the CPUs chosen.
std::vector<int> pin_to_cpus(std::size_t n);

/// Runs every thread of the process on one CPU at a time, moving them all
/// together to the next CPU the process started with every `period`. Work
/// handed between threads never waits for another vCPU to be woken, and a
/// run still samples every vCPU's speed instead of one. Restores the
/// process's original CPU set when destroyed.
class CpuRotator {
 public:
  explicit CpuRotator(std::chrono::milliseconds period);
  ~CpuRotator();
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;

 private:
  void run();

  const std::chrono::milliseconds period_;
  std::vector<int> cpus_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;  // guarded by mutex_
  std::thread thread_;  // last: starts after the members it reads
};

/// Sum of every series of counter `name` whose labels include `match`.
double counter_total(const std::vector<vnfsgx::obs::MetricSample>& samples,
                     const std::string& name, const vnfsgx::obs::Labels& match = {});
/// The histogram series of `name` with exactly `labels`, or nullptr.
const vnfsgx::obs::MetricSample* find_histogram(
    const std::vector<vnfsgx::obs::MetricSample>& samples,
    const std::string& name, const vnfsgx::obs::Labels& labels);

/// Percentile of a traced span's durations (or self times).
double span_p50(const Tracer& tracer, const std::string& name,
                bool self_time = false);

}  // namespace perfbench
