// fig1bench: the end-to-end benchmark program (run it through run.py).
//
//   fig1bench --workload <onboard|rest|inspect-64|inspect-imix> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>] [--rev <id>]
//
// --trace 0 sets the workload up 5-25 times (setup_s is the median), runs
// it untraced for --seconds and prints the end-to-end metrics. --trace 1
// runs the named workload untraced and then traced, --seconds in all, and
// every other workload for one second each way, and prints every per-layer
// metric plus a Chrome trace-event file. The last stdout line is always the
// result object; a line before it records the run's conditions.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"onboard", "rest", "inspect-64", "inspect-imix"};
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 25;
constexpr double kMinSetupTime = 1.0;  // seconds

/// Every per-layer metric BENCHMARK.json declares; a traced run must
/// produce each of them.
const char* const kLayerMetrics[] = {
    "core.attest_host.p50_us", "core.attest_vnf.p50_us", "core.enroll_vnf.p50_us",
    "vnf.tls_open.p50_us", "controller.first_post.p50_us", "ias.reports_per_op",
    "sgx.crossings_per_op", "ias.modelled_wan_us_per_op",
    "sgx.modelled_crossing_us_per_op", "core.appraisal_cache.hit_ratio",
    "pki.validation_cache.hit_ratio", "pki.crl_entries", "rest.get.p50_us",
    "rest.post.p50_us", "net.queue_wait.p50_us", "net.queue_wait.p99_us",
    "net.burst.p50_us", "net.dispatches_per_op", "net.steals_per_op",
    "tls.records_per_op", "vnf.inspect_burst.p50_us",
    "dataplane.process_burst.self_us", "sgx.switchless_jobs_per_frame",
    "sgx.crossings_per_frame", "sgx.ring_steals_per_burst",
    "vnf.matcher_native_us_per_frame", "dataplane.punted_ratio",
    "proc.cpu_us_per_op", "proc.threads", "proc.peak_rss_mb", "onboard.p99_us", "rest.p99_us",
    "inspect-64.p99_us", "inspect-imix.p99_us", "bench.max_us",
    "bench.drift_ratio", "obs.trace_overhead_ratio", "host.steal_ratio",
    "host.nproc"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out = "perfbench-trace.json";
  std::string rev = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "fig1bench: %s\nusage: fig1bench --workload "
               "<onboard|rest|inspect-64|inspect-imix> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--rev <id>]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value);
      else if (flag == "--trace-out") a.trace_out = value;
      else if (flag == "--rev") a.rev = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || a.workload == w;
  if (!known) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds >= 1 && a.seconds <= 60)) usage("--seconds must be 1..60");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

WorkloadFactory prepare_inputs(const std::string& name, std::uint64_t seed) {
  if (name == "onboard") return prepare_onboard(seed);
  if (name == "rest") return prepare_rest(seed);
  return prepare_inspect(seed, name == "inspect-imix");
}

/// CPU placement of one workload, for the lifetime of this object.
///
/// On a KVM guest, waking a thread on another (halted) vCPU waits for the
/// host to schedule that vCPU, and under host contention that wait swamps
/// the work: unpinned, onboarding fell from ~190 to 84-118 VNFs/s in the
/// same minutes a one-CPU run held 173-212. Yet one vCPU alone runs this
/// code up to 1.5x slower for seconds at a time while its neighbours do
/// not. So onboard and rest, whose threads hand work to each other and
/// block, run all their threads on one CPU at a time, moving together to
/// the next CPU every kRotatePeriod. The inspect workloads' generator and
/// two switchless ring workers spin, so each gets a CPU of its own.
struct Placement {
  static constexpr std::chrono::milliseconds kRotatePeriod{250};

  explicit Placement(const std::string& workload) {
    if (workload == "onboard" || workload == "rest") {
      rotator.emplace(kRotatePeriod);
      cpus = 1;
    } else {
      cpus = pin_to_cpus(3).size();
    }
  }

  std::optional<CpuRotator> rotator;
  std::size_t cpus = 0;  // CPUs in use at any one time
};

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// Attempts, failures and the first failure reason across a run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;

  void add(const PhaseResult& p, const std::string& workload) {
    attempted += p.attempted;
    failed += p.failed;
    if (error.empty() && !p.first_error.empty()) {
      error = workload + ": " + p.first_error;
    }
  }
  void fail_check(Workload& w, const std::string& workload) {
    std::string why;
    if (!w.final_check(why)) {
      ++failed;
      if (error.empty()) error = workload + ": " + why;
    }
  }
};

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void print_result(bool correct, const Tally& tally, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
           number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void print_info(const Args& a, const Metrics& extra) {
  std::string out = "{\"info\": {\"workload\": " + json_string(a.workload) +
                    ", \"seed\": " + std::to_string(a.seed) +
                    ", \"seconds\": " + number(a.seconds) +
                    ", \"trace\": " + std::to_string(a.trace) +
                    ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                    ", \"rev\": " + json_string(a.rev);
  for (const auto& [name, m] : extra) {
    out += ", " + json_string(name) + ": " + number(m.value);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Diagnostics every run records: what the phase cost the process and
/// whether the machine or the program drifted while it ran.
void diagnostics(const PhaseResult& p, Metrics& out) {
  const double ops = std::max<double>(1, static_cast<double>(p.ops.size()));
  out["proc.cpu_us_per_op"] = {p.cpu_s * 1e6 / ops, "us"};
  out["proc.threads"] = {static_cast<double>(p.threads), "count"};
  out["proc.peak_rss_mb"] = {peak_rss_mb(), "MB"};
  out["bench.max_us"] = {percentile(latencies(p), 1.0), "us"};
  out["bench.drift_ratio"] = {drift_ratio(p), "ratio"};
  out["host.steal_ratio"] = {p.steal_ratio, "ratio"};
  out["host.nproc"] = {static_cast<double>(std::thread::hardware_concurrency()),
                       "count"};
}

int run_untraced(const Args& a) {
  const Placement place(a.workload);
  const WorkloadFactory factory = prepare_inputs(a.workload, a.seed);
  // Set up at least kMinSetups times and until kMinSetupTime has been spent
  // (a few-millisecond set-up is otherwise at the mercy of one scheduler
  // hiccup), and keep the last deployment. setup_s is the median.
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  for (double spent = 0;
       setups.size() < kMinSetups ||
       (spent < kMinSetupTime && setups.size() < kMaxSetups);
       spent += setups.back()) {
    w.reset();
    const auto t0 = SteadyClock::now();
    w = factory();
    setups.push_back(seconds_since(t0));
  }
  const PhaseResult phase = run_phase(*w, a.seconds, nullptr);
  const double rss = rss_mb();
  Tally tally;
  tally.add(phase, a.workload);
  tally.fail_check(*w, a.workload);
  const std::vector<double> lat = latencies(phase);

  Metrics info;
  diagnostics(phase, info);
  info["p99_us"] = {percentile(lat, 0.99), "us"};
  info["cpus"] = {static_cast<double>(place.cpus), "count"};
  info["ops_total_per_s"] = {static_cast<double>(phase.ops.size()) *
                                 w->units_per_op() / phase.wall_s,
                             "1/s"};
  print_info(a, info);
  if (!tally.error.empty()) std::fprintf(stderr, "fig1bench: %s\n", tally.error.c_str());

  Metrics m;
  m["ops_per_s"] = {windowed_rate(phase, w->units_per_op()), "1/s"};
  m["p50_us"] = {percentile(lat, 0.50), "us"};
  m["p90_us"] = {percentile(lat, 0.90), "us"};
  m["setup_s"] = {percentile(setups, 0.5), "s"};
  m["rss_mb"] = {rss, "MB"};
  const bool correct = tally.failed == 0 && !phase.ops.empty();
  print_result(correct, tally, m);
  return 0;
}

int run_traced(const Args& a) {
  Metrics m;
  Tally tally;
  std::string events;
  bool first_event = true;
  std::uint64_t dropped = 0;

  std::vector<std::string> order{a.workload};
  for (const char* w : kWorkloads) {
    if (a.workload != w) order.emplace_back(w);
  }
  for (const std::string& name : order) {
    const bool selected = name == a.workload;
    // The named workload splits --seconds between its untraced and traced
    // phases; the others get one second each way, enough for their
    // per-layer figures.
    const double seconds = selected ? a.seconds / 2 : 1.0;
    const Placement place(name);
    std::unique_ptr<Workload> w = prepare_inputs(name, a.seed)();
    const PhaseResult plain = run_phase(*w, seconds, nullptr);
    tally.add(plain, name);
    m[name + ".p99_us"] = {percentile(latencies(plain), 0.99), "us"};

    Tracer tracer;
    const PhaseResult traced = run_phase(*w, seconds, &tracer);
    tally.add(traced, name);
    tally.fail_check(*w, name);
    w->layer_metrics(traced, &tracer, m);
    tracer.append_events(name, events, first_event);
    dropped += tracer.dropped();

    if (selected) {
      diagnostics(plain, m);
      const double traced_rate = windowed_rate(traced, w->units_per_op());
      m["obs.trace_overhead_ratio"] = {
          traced_rate > 0 ? windowed_rate(plain, w->units_per_op()) / traced_rate
                          : 0.0,
          "ratio"};
    }
  }

  bool complete = true;
  for (const char* name : kLayerMetrics) {
    if (m.count(name) == 0) {
      std::fprintf(stderr, "fig1bench: traced run did not produce %s\n", name);
      complete = false;
    }
  }
  const bool written = write_chrome_trace(a.trace_out, events);
  if (!written) std::fprintf(stderr, "fig1bench: cannot write %s\n", a.trace_out.c_str());

  Metrics info;
  info["trace_spans_dropped"] = {static_cast<double>(dropped), "count"};
  print_info(a, info);
  std::printf("trace: %s\n", a.trace_out.c_str());
  if (!tally.error.empty()) std::fprintf(stderr, "fig1bench: %s\n", tally.error.c_str());
  print_result(tally.failed == 0 && complete && written, tally, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  vnfsgx::set_log_level(vnfsgx::LogLevel::kError);
  const Args args = parse(argc, argv);
  try {
    return args.trace == 0 ? run_untraced(args) : run_traced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig1bench: %s\n", e.what());
    return 1;
  }
}
