// SERVER-LOAD: the PR-4 scalability experiment. A controller in trusted
// HTTPS mode (§3's strongest REST mode) serves a fleet of keep-alive TLS
// connections — most of them idle — while a smaller set of active clients
// drives a closed-loop request storm. Two server models run the identical
// workload over the in-memory transport (zero kernel noise, so the series
// isolates the server's own dispatch machinery):
//
//   * threaded — the seed model: one blocking thread per accepted
//     connection, so 512 idle + 64 active conns pin ~576 server threads.
//   * pooled   — the ServerRuntime: idle connections park in the readiness
//     source for free; every burst runs on a bounded worker pool
//     (max(2, 2x hardware_concurrency)).
//
// Counters per series: requests/s (items_per_second), server_threads,
// process_threads (from /proc/self/status), workers, idle/active conns.
// The obs registry snapshot (metrics_exit) additionally captures the
// runtime's queue-depth / queue-wait / burst-duration series for the
// CI artifact bench-artifacts/bench_smoke.json.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"
#include "common/sim_clock.h"
#include "controller/controller.h"
#include "crypto/random.h"
#include "http/client.h"
#include "http/runtime.h"
#include "http/server.h"
#include "net/inmemory.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "pki/ca.h"
#include "tls/session.h"

namespace {

using namespace vnfsgx;
using controller::Controller;
using controller::ControllerConfig;
using controller::SecurityMode;

// Sanitizer builds run the same shape at reduced scale: the point there is
// correctness under TSan/ASan, not throughput.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define VNFSGX_BENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define VNFSGX_BENCH_SANITIZED 1
#endif

#if defined(VNFSGX_BENCH_SANITIZED)
constexpr int kIdleConnections = 64;
constexpr int kClientThreads = 4;
constexpr int kConnsPerClient = 2;
#else
constexpr int kIdleConnections = 512;
constexpr int kClientThreads = 16;
constexpr int kConnsPerClient = 4;  // 64 active connections total
#endif
constexpr int kActiveConnections = kClientThreads * kConnsPerClient;

constexpr auto kWindow = std::chrono::milliseconds(200);
constexpr const char* kPath = "/wm/core/controller/summary/json";

enum class Model { kThreadPerConnection, kPooled };

const char* to_string(Model model) {
  return model == Model::kPooled ? "pooled" : "threaded";
}

/// DeterministicRandom is not thread-safe; concurrent TLS handshakes on
/// both ends share a crypto::LockedRandom view of it.
using crypto::LockedRandom;

/// Total threads in this process, from /proc/self/status. Counts client
/// threads too, but those are identical across models, so the delta
/// between series is the server-side thread bill.
std::size_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      std::istringstream field(line.substr(8));
      std::size_t n = 0;
      field >> n;
      return n;
    }
  }
  return 0;
}

struct LoadBed {
  crypto::DeterministicRandom rng{2026};
  LockedRandom locked_rng{rng};
  SimClock clock{1'700'000'000};
  pki::CertificateAuthority ca{pki::DistinguishedName{"vm-ca", "vnfsgx"}, rng,
                               clock};
  pki::TrustStore truststore;
  dataplane::Fabric fabric;
  net::InMemoryNetwork net;
  net::ServerRuntime runtime{{.workers = 0,
                              .burst_read_timeout = std::chrono::seconds(10),
                              .name = "bench-load"}};
  std::unique_ptr<Controller> controller;
  pki::Certificate client_cert;
  crypto::Ed25519Seed client_seed{};
  Model model;

  explicit LoadBed(Model m) : model(m) {
    set_log_level(LogLevel::kOff);
    fabric.add_switch(1);
    truststore.add_root(ca.root_certificate());
    const auto client_kp = crypto::ed25519_generate(rng);
    client_cert =
        ca.issue({"vnf-client", ""}, client_kp.public_key,
                 static_cast<std::uint8_t>(pki::KeyUsage::kClientAuth));
    client_seed = client_kp.seed;

    ControllerConfig config;
    config.mode = SecurityMode::kTrustedHttps;
    const auto kp = crypto::ed25519_generate(rng);
    config.certificate =
        ca.issue({"controller", ""}, kp.public_key,
                 static_cast<std::uint8_t>(pki::KeyUsage::kServerAuth));
    config.signer = tls::Config::software_signer(kp.seed);
    config.clock = &clock;
    config.rng = &locked_rng;
    controller = std::make_unique<Controller>(std::move(config), fabric);
    controller->trust_ca(ca.root_certificate());

    if (model == Model::kPooled) {
      runtime.listen_inmemory(net, "controller:8443",
                              controller->driver_factory());
    } else {
      net.serve("controller:8443", [this](net::StreamPtr stream) {
        controller->serve(std::move(stream));
      });
    }
  }

  net::StreamPtr connect_stream() {
    tls::Config cfg;
    cfg.truststore = &truststore;
    cfg.expected_server_name = "controller";
    cfg.clock = &clock;
    cfg.rng = &locked_rng;
    cfg.certificate = client_cert;
    cfg.signer = tls::Config::software_signer(client_seed);
    return tls::Session::connect(net.connect("controller:8443"), cfg);
  }

  http::Client connect() { return http::Client(connect_stream()); }

  std::size_t server_threads() {
    return model == Model::kPooled ? runtime.worker_count()
                                   : net.live_connection_threads();
  }
};

void BM_ServerLoad(benchmark::State& state) {
  const Model model =
      state.range(0) == 0 ? Model::kThreadPerConnection : Model::kPooled;
  LoadBed bed(model);

  // Fleet of keep-alive connections: handshake + one request each, then
  // idle. In the threaded model each one keeps a dedicated server thread
  // blocked in read(); in the pooled model they park in the readiness
  // source and cost nothing.
  std::vector<http::Client> idle;
  idle.reserve(kIdleConnections);
  for (int i = 0; i < kIdleConnections; ++i) {
    idle.push_back(bed.connect());
    if (idle.back().get(kPath).status != 200) {
      state.SkipWithError("idle connection setup failed");
      return;
    }
  }

  // Active fleet: each client thread owns kConnsPerClient established
  // connections and drives them as a pipelined batch — write a request on
  // every connection, then collect every response. That keeps
  // kActiveConnections requests outstanding (the keep-alive connection-pool
  // shape real REST clients use): the pooled model's workers find the queue
  // non-empty and never sleep, while the threaded model has all 64
  // per-connection server threads runnable and contending.
  struct Pipelined {
    net::StreamPtr stream;
    http::Connection conn;
    explicit Pipelined(net::StreamPtr s) : stream(std::move(s)), conn(*stream) {}
  };
  http::Request probe_request;
  probe_request.target = kPath;
  std::vector<std::vector<std::unique_ptr<Pipelined>>> active(kClientThreads);
  for (auto& pool : active) {
    pool.reserve(kConnsPerClient);
    for (int i = 0; i < kConnsPerClient; ++i) {
      pool.push_back(std::make_unique<Pipelined>(bed.connect_stream()));
      pool.back()->conn.write(probe_request);
      const auto response = pool.back()->conn.read_response();
      if (!response || response->status != 200) {
        state.SkipWithError("active connection setup failed");
        return;
      }
    }
  }

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> inflight{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      auto& pool = active[static_cast<std::size_t>(t)];
      http::Request request;
      request.target = kPath;
      while (!stop.load(std::memory_order_acquire)) {
        if (!go.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        inflight.fetch_add(1, std::memory_order_acq_rel);
        try {
          for (auto& p : pool) p->conn.write(request);
          for (auto& p : pool) {
            const auto response = p->conn.read_response();
            if (response && response->status == 200) {
              requests.fetch_add(1, std::memory_order_relaxed);
            } else {
              errors.fetch_add(1, std::memory_order_relaxed);
            }
          }
        } catch (const Error&) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        inflight.fetch_sub(1, std::memory_order_acq_rel);
      }
    });
  }

  const std::size_t steady_threads = process_threads();
  std::uint64_t total = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t before = requests.load(std::memory_order_relaxed);
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(kWindow);
    go.store(false, std::memory_order_release);
    while (inflight.load(std::memory_order_acquire) != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    total += requests.load(std::memory_order_relaxed) - before;
    state.SetIterationTime(std::chrono::duration<double>(elapsed).count());
  }

  stop.store(true, std::memory_order_release);
  for (auto& thread : clients) thread.join();

  state.SetItemsProcessed(static_cast<std::int64_t>(total));
  state.SetLabel(to_string(model));
  state.counters["idle_conns"] = kIdleConnections;
  state.counters["active_conns"] = kActiveConnections;
  state.counters["server_threads"] = static_cast<double>(bed.server_threads());
  state.counters["process_threads"] = static_cast<double>(steady_threads);
  state.counters["errors"] = static_cast<double>(errors.load());
  if (model == Model::kPooled) {
    state.counters["workers"] = static_cast<double>(bed.runtime.worker_count());
    state.counters["active_parked"] =
        static_cast<double>(bed.runtime.active_connections());
  }

  // Mirror the headline numbers into the obs registry so the atexit
  // snapshot lands them in bench-artifacts/bench_smoke.json.
  obs::registry()
      .gauge("vnfsgx_bench_server_load_threads", {{"model", to_string(model)}},
             "Server-side threads at steady state, by server model")
      .set(static_cast<double>(bed.server_threads()));
  obs::registry()
      .gauge("vnfsgx_bench_server_load_requests",
             {{"model", to_string(model)}},
             "Closed-loop requests completed, by server model")
      .set(static_cast<double>(total));

  // Teardown: close every client end so threaded-model handlers observe
  // EOF and exit before the bed (runtime, network) is destroyed.
  for (auto& pool : active) {
    for (auto& p : pool) p->stream->close();
  }
  for (auto& conn : idle) conn.close();
  bed.runtime.shutdown();
  bed.net.join_all();
}
BENCHMARK(BM_ServerLoad)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();

// ---------------------------------------------------------------------------
// PR-9 sweep: resident-channel scaling. Conns x shards over plain HTTP on
// the in-memory transport: a fleet of `conns` keep-alive connections is
// opened and parked (connection diet), then a fixed 64-connection active
// subset drives a closed-loop storm. The series isolates what sharding the
// dispatch plane buys as the *resident* population grows: per-request p50 /
// p99, requests/s, parked-fleet RSS per connection, steal and pool counters.
//
//   --conns sweep: 512 -> 2048 -> 10240, each at shards=1 and shards=4.
//
// On a single-core host the shards=4 series exercises correctness of the
// sharded path, not a speedup claim (see EXPERIMENTS.md); the worker pool
// is pinned to 4 in both series so the only variable is the shard count.
// ---------------------------------------------------------------------------

/// VmRSS in bytes, from /proc/self/status.
std::size_t process_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream field(line.substr(6));
      std::size_t kb = 0;
      field >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

/// Safety valve for weak CI hosts: VNFSGX_SWEEP_MAX_CONNS caps the fleet.
int sweep_conns_cap() {
  if (const char* env = std::getenv("VNFSGX_SWEEP_MAX_CONNS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
#if defined(VNFSGX_BENCH_SANITIZED)
  return 512;
#else
  return 1 << 20;
#endif
}

constexpr int kSweepThreads = 8;
constexpr int kSweepActive = 64;  // closed-loop subset, fixed across series
constexpr const char* kSweepAddress = "sweep:80";

void BM_ShardedConnSweep(benchmark::State& state) {
  const int conns =
      std::min(static_cast<int>(state.range(0)), sweep_conns_cap());
  const std::size_t shards = static_cast<std::size_t>(state.range(1));
  // Third arg toggles the connection diet: park=0 is the unparked RSS
  // baseline measured in the same run (same process, same allocator state).
  const bool park = state.range(2) != 0;
  set_log_level(LogLevel::kOff);

  http::Router router;
  router.add("GET", "/ping",
             [](const http::Request&, const http::RequestContext&) {
               return http::Response::text(200, "pong");
             });
  net::InMemoryNetwork net;
  net::ServerRuntime runtime({.workers = 4,
                              .shards = shards,
                              .burst_read_timeout = std::chrono::seconds(10),
                              .park_idle_sessions = park,
                              .name = "bench-sweep"});
  runtime.listen_inmemory(net, kSweepAddress,
                          http::make_http_driver_factory(router));

  // Resident fleet: open every connection, serve one request each, park.
  // parked_bytes is the runtime's own accounting of scratch released by
  // the diet — allocator-independent, unlike the RSS delta.
  auto& parked_bytes = obs::registry().counter(
      "vnfsgx_server_parked_bytes_total", {{"runtime", "bench-sweep"}},
      "Scratch bytes released by parking idle connections");
  const std::uint64_t parked_before = parked_bytes.value();
  const std::size_t rss_before = process_rss_bytes();
  std::vector<std::vector<http::Client>> fleet(kSweepThreads);
  {
    std::atomic<int> failures{0};
    std::vector<std::thread> openers;
    for (int t = 0; t < kSweepThreads; ++t) {
      const int share = conns / kSweepThreads + (t < conns % kSweepThreads);
      openers.emplace_back([&, t, share] {
        fleet[t].reserve(share);
        for (int i = 0; i < share; ++i) {
          fleet[t].emplace_back(net.connect(kSweepAddress));
          if (fleet[t].back().get("/ping").status != 200) ++failures;
        }
      });
    }
    for (auto& thread : openers) thread.join();
    if (failures.load() != 0) {
      state.SkipWithError("fleet setup failed");
      return;
    }
  }
  // Let the final bursts finish parking before the RSS sample. The
  // parked-bytes delta is read here too: later bursts park again on every
  // request, so reading after the storm would count churn, not the fleet.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::uint64_t fleet_parked_bytes =
      parked_bytes.value() - parked_before;
  const std::size_t rss_parked = process_rss_bytes();
  const double rss_per_conn =
      conns > 0 && rss_parked > rss_before
          ? static_cast<double>(rss_parked - rss_before) / conns
          : 0.0;

  // Closed-loop storm on a fixed-size active subset (the first connections
  // of each opener thread), with per-request latency sampling for p50/p99.
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> inflight{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::vector<double>> samples(kSweepThreads);
  const int active_per_thread = kSweepActive / kSweepThreads;
  std::vector<std::thread> drivers;
  for (int t = 0; t < kSweepThreads; ++t) {
    drivers.emplace_back([&, t] {
      auto& mine = fleet[t];
      auto& lat = samples[t];
      lat.reserve(1 << 14);
      const int active =
          std::min(active_per_thread, static_cast<int>(mine.size()));
      while (!stop.load(std::memory_order_acquire)) {
        if (!go.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        inflight.fetch_add(1, std::memory_order_acq_rel);
        try {
          for (int i = 0; i < active; ++i) {
            const auto start = std::chrono::steady_clock::now();
            if (mine[i].get("/ping").status == 200) {
              requests.fetch_add(1, std::memory_order_relaxed);
            } else {
              errors.fetch_add(1, std::memory_order_relaxed);
            }
            lat.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
          }
        } catch (const Error&) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        inflight.fetch_sub(1, std::memory_order_acq_rel);
      }
    });
  }

  std::uint64_t total = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t before = requests.load(std::memory_order_relaxed);
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(kWindow);
    go.store(false, std::memory_order_release);
    while (inflight.load(std::memory_order_acquire) != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    total += requests.load(std::memory_order_relaxed) - before;
    state.SetIterationTime(std::chrono::duration<double>(elapsed).count());
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : drivers) thread.join();

  std::vector<double> merged;
  for (auto& lat : samples) {
    merged.insert(merged.end(), lat.begin(), lat.end());
  }
  const auto percentile = [&](double p) {
    if (merged.empty()) return 0.0;
    const auto nth =
        merged.begin() +
        static_cast<std::ptrdiff_t>(p * static_cast<double>(merged.size() - 1));
    std::nth_element(merged.begin(), nth, merged.end());
    return *nth;
  };
  const double p50 = percentile(0.50);
  const double p99 = percentile(0.99);

  state.SetItemsProcessed(static_cast<std::int64_t>(total));
  state.SetLabel(std::string("conns=") + std::to_string(conns) +
                 "/shards=" + std::to_string(shards) +
                 (park ? "" : "/no-park"));
  state.counters["conns"] = static_cast<double>(conns);
  state.counters["shards"] = static_cast<double>(runtime.shard_count());
  state.counters["park"] = park ? 1 : 0;
  state.counters["rss_per_conn_bytes"] = rss_per_conn;
  state.counters["parked_bytes_per_conn"] =
      conns > 0 ? static_cast<double>(fleet_parked_bytes) / conns : 0.0;
  state.counters["p50_ms"] = p50;
  state.counters["p99_ms"] = p99;
  state.counters["errors"] = static_cast<double>(errors.load());
  state.counters["pooled_buffers"] =
      static_cast<double>(runtime.pooled_buffers());
  state.counters["steals"] = static_cast<double>(runtime.steal_count());

  const obs::Labels labels{{"conns", std::to_string(conns)},
                           {"shards", std::to_string(shards)},
                           {"park", park ? "1" : "0"}};
  obs::registry()
      .gauge("vnfsgx_bench_sweep_requests", labels,
             "Closed-loop requests completed, by resident-fleet size x shards")
      .set(static_cast<double>(total));
  obs::registry()
      .gauge("vnfsgx_bench_sweep_p99_us", labels,
             "p99 request latency (us), by resident-fleet size x shards")
      .set(static_cast<std::int64_t>(p99 * 1000.0));
  obs::registry()
      .gauge("vnfsgx_bench_sweep_rss_per_conn_bytes", labels,
             "Parked-fleet RSS per resident connection (bytes)")
      .set(rss_per_conn);

  for (auto& bucket : fleet) {
    for (auto& conn : bucket) conn.close();
  }
  runtime.shutdown();
  net.join_all();
}
// The no-park baseline runs FIRST: RSS deltas are only honest while the
// allocator is cold (later series partly reuse freed high-water pages, so
// their rss_per_conn_bytes underestimates — compare cold-to-cold across
// runs, or first-series-to-first-series; vnfsgx_server_parked_bytes_total
// gives the allocator-independent accounting of what parking releases).
BENCHMARK(BM_ShardedConnSweep)
    ->Args({10240, 1, 0})
    ->Args({512, 1, 1})
    ->Args({512, 4, 1})
    ->Args({2048, 1, 1})
    ->Args({2048, 4, 1})
    ->Args({10240, 1, 1})
    ->Args({10240, 4, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();

}  // namespace

BENCHMARK_MAIN();
