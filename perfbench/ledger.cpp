#include "ledger.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <fstream>
#include <filesystem>
#include <span>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// The CPUs the process was started on, ascending.
const std::vector<int>& original_cpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    sched_getaffinity(0, sizeof mask, &mask);
    std::vector<int> out;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) out.push_back(cpu);
    }
    return out;
  }();
  return cpus;
}

cpu_set_t mask_of(std::span<const int> cpus) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int cpu : cpus) CPU_SET(cpu, &mask);
  return mask;
}

/// Apply `mask` to every thread of the process (threads that exit meanwhile
/// are skipped).
void set_process_affinity(const cpu_set_t& mask) {
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(std::stol(task.path().filename().string()));
    sched_setaffinity(tid, sizeof mask, &mask);
  }
}

/// (steal, total) jiffies of the CPUs the process was started on, from
/// their per-CPU /proc/stat lines (the process may move among them).
std::pair<std::uint64_t, std::uint64_t> steal_ticks() {
  const cpu_set_t mask = mask_of(original_cpus());
  std::ifstream stat("/proc/stat");
  std::string line;
  std::uint64_t steal = 0, total = 0;
  while (std::getline(stat, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || !std::isdigit(line[3])) {
      continue;
    }
    std::istringstream fields(line.substr(3));
    int cpu = -1;
    fields >> cpu;
    if (cpu < 0 || cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &mask)) continue;
    // user nice system idle iowait irq softirq steal (guest time is already
    // folded into user/nice).
    std::uint64_t field = 0;
    for (int i = 0; i < 8 && (fields >> field); ++i) {
      total += field;
      if (i == 7) steal += field;
    }
  }
  return {steal, total};
}

int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

}  // namespace

PhaseResult run_phase(Workload& w, double seconds, Tracer* tracer) {
  const std::size_t n = w.threads();
  std::vector<SpanSink*> sinks(n, nullptr);
  if (tracer) {
    for (auto& sink : sinks) sink = &tracer->new_sink();
  }
  struct PerThread {
    std::vector<OpSample> ops;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string first_error;
  };
  std::vector<PerThread> per_thread(n);
  for (auto& t : per_thread) {
    t.ops.reserve(static_cast<std::size_t>(seconds * 1000));
  }

  w.begin_phase();
  vnfsgx::obs::registry().reset();
  std::atomic<bool> go{false};
  SteadyClock::time_point start;
  SteadyClock::time_point deadline;

  auto loop = [&](std::size_t thread) {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    PerThread& mine = per_thread[thread];
    for (std::uint64_t k = 0; SteadyClock::now() < deadline; ++k) {
      ++mine.attempted;
      std::string error;
      std::optional<double> latency;
      try {
        latency = w.op(thread, k, sinks[thread], error);
      } catch (const std::exception& e) {
        error = std::string("exception: ") + e.what();
      }
      if (!latency) {
        ++mine.failed;
        if (mine.first_error.empty()) mine.first_error = error;
        continue;
      }
      const double end_s =
          std::chrono::duration<double>(SteadyClock::now() - start).count();
      mine.ops.push_back(OpSample{end_s, *latency});
    }
  };

  std::vector<std::thread> workers;
  for (std::size_t t = 1; t < n; ++t) workers.emplace_back(loop, t);
  const auto [steal0, total0] = steal_ticks();
  const double cpu0 = cpu_seconds();
  start = SteadyClock::now();
  deadline = start + std::chrono::duration_cast<SteadyClock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  loop(0);
  const int threads = thread_count();
  for (auto& worker : workers) worker.join();
  const SteadyClock::time_point stop = SteadyClock::now();

  PhaseResult result;
  result.wall_s = std::chrono::duration<double>(stop - start).count();
  result.cpu_s = cpu_seconds() - cpu0;
  const auto [steal1, total1] = steal_ticks();
  result.steal_ratio =
      total1 > total0 ? static_cast<double>(steal1 - steal0) /
                            static_cast<double>(total1 - total0)
                      : 0.0;
  result.threads = threads;
  for (auto& t : per_thread) {
    result.attempted += t.attempted;
    result.failed += t.failed;
    if (result.first_error.empty()) result.first_error = t.first_error;
    result.ops.insert(result.ops.end(), t.ops.begin(), t.ops.end());
  }
  std::sort(result.ops.begin(), result.ops.end(),
            [](const OpSample& a, const OpSample& b) {
              return a.end_s < b.end_s;
            });
  return result;
}

double windowed_rate(const PhaseResult& phase, double units_per_op) {
  const auto windows = static_cast<std::size_t>(std::max(1.0, std::floor(phase.wall_s)));
  const double width = phase.wall_s / static_cast<double>(windows);
  std::vector<double> counts(windows, 0.0);
  for (const OpSample& op : phase.ops) {
    const auto i = std::min(windows - 1,
                            static_cast<std::size_t>(op.end_s / width));
    counts[i] += 1;
  }
  return percentile(std::move(counts), 0.5) * units_per_op / width;
}

double drift_ratio(const PhaseResult& phase) {
  const std::size_t half = phase.ops.size() / 2;
  if (half == 0) return 1.0;
  std::vector<double> first, second;
  for (std::size_t i = 0; i < phase.ops.size(); ++i) {
    (i < half ? first : second).push_back(phase.ops[i].latency_us);
  }
  const double p50_first = percentile(std::move(first), 0.5);
  return p50_first > 0 ? percentile(std::move(second), 0.5) / p50_first : 1.0;
}

std::vector<double> latencies(const PhaseResult& phase) {
  std::vector<double> out;
  out.reserve(phase.ops.size());
  for (const OpSample& op : phase.ops) out.push_back(op.latency_us);
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::vector<int> pin_to_cpus(std::size_t n) {
  const std::vector<int>& all = original_cpus();
  const std::vector<int> chosen(all.end() - static_cast<std::ptrdiff_t>(std::min(n, all.size())),
                                all.end());
  const cpu_set_t mask = mask_of(chosen);
  if (chosen.empty() || sched_setaffinity(0, sizeof mask, &mask) != 0) {
    throw std::runtime_error("perfbench: cannot set CPU affinity");
  }
  return chosen;
}

CpuRotator::CpuRotator(std::chrono::milliseconds period)
    : period_(period), cpus_(original_cpus()) {
  set_process_affinity(mask_of(std::span<const int>(cpus_).first(1)));
  thread_ = std::thread([this] { run(); });
}

CpuRotator::~CpuRotator() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
  set_process_affinity(mask_of(cpus_));
}

void CpuRotator::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (std::size_t i = 1;; ++i) {
    if (wake_.wait_for(lock, period_, [this] { return stop_; })) return;
    const int cpu = cpus_[i % cpus_.size()];
    set_process_affinity(mask_of(std::span<const int>(&cpu, 1)));
  }
}

double counter_total(const std::vector<vnfsgx::obs::MetricSample>& samples,
                     const std::string& name,
                     const vnfsgx::obs::Labels& match) {
  double total = 0;
  for (const auto& s : samples) {
    if (s.name != name) continue;
    const bool all = std::all_of(match.begin(), match.end(), [&](const auto& kv) {
      return std::find(s.labels.begin(), s.labels.end(), kv) != s.labels.end();
    });
    if (all) total += s.value;
  }
  return total;
}

const vnfsgx::obs::MetricSample* find_histogram(
    const std::vector<vnfsgx::obs::MetricSample>& samples,
    const std::string& name, const vnfsgx::obs::Labels& labels) {
  for (const auto& s : samples) {
    if (s.name == name && s.labels == labels &&
        s.type == vnfsgx::obs::MetricType::kHistogram) {
      return &s;
    }
  }
  return nullptr;
}

double span_p50(const Tracer& tracer, const std::string& name, bool self_time) {
  SpanTotals totals = tracer.totals(name);
  return percentile(self_time ? std::move(totals.self_us)
                              : std::move(totals.duration_us),
                    0.5);
}

}  // namespace perfbench
