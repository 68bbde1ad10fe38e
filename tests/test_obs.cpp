// Observability tests: histogram bucket/quantile math, registry
// concurrency, exporter golden output, tracer parent/child linkage, the
// metrics-aware logger, and an end-to-end check that one full Figure-1
// run is visible through `GET /vm/metrics`.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/logging.h"
#include "common/sim_clock.h"
#include "controller/controller.h"
#include "core/host_agent.h"
#include "core/verification_manager.h"
#include "core/vm_api.h"
#include "crypto/random.h"
#include "http/client.h"
#include "ias/http_api.h"
#include "json/json.h"
#include "net/inmemory.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "vnf/functions.h"

namespace vnfsgx::obs {
namespace {

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

TEST(CounterTest, AggregatesAcrossShardsAndThreads) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  g.set(5);
  EXPECT_EQ(g.value(), 5);
  g.add(-2);
  EXPECT_EQ(g.value(), 3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketAssignmentInclusiveUpperBound) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // bucket 0 (le=1)
  h.observe(1.0);  // bucket 0: bounds are inclusive upper bounds
  h.observe(1.5);  // bucket 1 (le=2)
  h.observe(4.0);  // bucket 2 (le=4)
  h.observe(5.0);  // bucket 3 (+Inf)
  EXPECT_EQ(h.bucket_counts(),
            (std::vector<std::uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 12.0);
}

TEST(HistogramTest, CountedObserveMatchesRepeatedObserve) {
  // 2.5 and 0.75 are exact in binary, so value * count and repeated adds
  // give the same sum bit for bit.
  Histogram repeated({1.0, 2.0, 4.0});
  Histogram counted({1.0, 2.0, 4.0});
  for (int i = 0; i < 64; ++i) repeated.observe(2.5);
  for (int i = 0; i < 3; ++i) repeated.observe(0.75);
  counted.observe(2.5, 64);
  counted.observe(0.75, 3);
  counted.observe(9.0, 0);  // zero observations change nothing
  EXPECT_EQ(counted.count(), repeated.count());
  EXPECT_EQ(counted.count(), 67u);
  EXPECT_DOUBLE_EQ(counted.sum(), repeated.sum());
  EXPECT_EQ(counted.bucket_counts(), repeated.bucket_counts());
  EXPECT_EQ(counted.bucket_counts(),
            (std::vector<std::uint64_t>{3, 0, 64, 0}));
}

TEST(HistogramTest, QuantileLinearInterpolation) {
  // 10 observations, all in the first bucket [0, 10]: the median lands
  // halfway through the bucket (the histogram_quantile() rule).
  Histogram h({10.0, 20.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);

  // Split across two buckets: ranks past the first bucket interpolate
  // inside the second, between bounds 10 and 20.
  Histogram h2({10.0, 20.0});
  for (int i = 0; i < 5; ++i) h2.observe(5.0);
  for (int i = 0; i < 5; ++i) h2.observe(15.0);
  EXPECT_DOUBLE_EQ(h2.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h2.quantile(0.75), 15.0);
}

TEST(HistogramTest, InfBucketClampsToLastFiniteBound) {
  Histogram h({10.0, 20.0});
  h.observe(1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(h.p99(), 20.0);
}

TEST(HistogramTest, EmptyHistogramQuantileIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(HistogramTest, ExponentialBounds) {
  EXPECT_EQ(Histogram::exponential_bounds(1.0, 2.0, 5),
            (std::vector<double>{1, 2, 4, 8, 16}));
  EXPECT_EQ(Histogram::latency_bounds_us().size(), 24u);
  EXPECT_DOUBLE_EQ(Histogram::latency_bounds_us().front(), 1.0);
}

TEST(HistogramTest, UnsortedBoundsRejected) {
  EXPECT_THROW(Histogram({2.0, 1.0}), Error);
}

TEST(HistogramTest, ResetZeroesInPlace) {
  Histogram h({1.0});
  h.observe(0.5);
  h.observe(2.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{0, 0}));
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(RegistryTest, SameNameAndLabelsReturnSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x_total", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.counter("x_total", {{"b", "2"}, {"a", "1"}});  // reordered
  EXPECT_EQ(&a, &b);
  Counter& c = reg.counter("x_total", {{"a", "1"}, {"b", "3"}});
  EXPECT_NE(&a, &c);
}

TEST(RegistryTest, TypeMismatchRejected) {
  MetricsRegistry reg;
  reg.counter("x_total");
  EXPECT_THROW(reg.gauge("x_total"), Error);
  EXPECT_THROW(reg.histogram("x_total"), Error);
}

TEST(RegistryTest, CollectIsSortedAndDeterministic) {
  MetricsRegistry reg;
  reg.counter("zz_total").add(1);
  reg.counter("aa_total", {{"k", "2"}}).add(2);
  reg.counter("aa_total", {{"k", "1"}}).add(3);
  const auto samples = reg.collect();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "aa_total");
  EXPECT_EQ(samples[0].labels, (Labels{{"k", "1"}}));
  EXPECT_EQ(samples[1].labels, (Labels{{"k", "2"}}));
  EXPECT_EQ(samples[2].name, "zz_total");
}

TEST(RegistryTest, ResetKeepsReferencesValid) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x_total");
  c.add(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);  // reference still live after reset
  EXPECT_EQ(reg.collect()[0].value, 1.0);
}

TEST(RegistryTest, CollectorAppendsExternalSamples) {
  MetricsRegistry reg;
  reg.counter("native_total").add(1);
  reg.add_collector([](std::vector<MetricSample>& out) {
    MetricSample s;
    s.name = "external_total";
    s.type = MetricType::kCounter;
    s.value = 7;
    out.push_back(std::move(s));
  });
  const auto samples = reg.collect();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "external_total");  // sorted with the rest
  EXPECT_EQ(samples[0].value, 7.0);
}

TEST(RegistryTest, ConcurrentWritersAndCollectors) {
  // Writers hammer one counter and one histogram while a reader collects;
  // run under TSan this is the registry's data-race certification.
  MetricsRegistry reg;
  Counter& hits = reg.counter("hits_total");
  Histogram& lat = reg.histogram("lat_us", {}, {1.0, 10.0, 100.0});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  constexpr int kThreads = 4;
  constexpr int kEvents = 20'000;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&hits, &lat] {
      for (int i = 0; i < kEvents; ++i) {
        hits.add();
        lat.observe(static_cast<double>(i % 200));
      }
    });
  }
  std::thread reader([&reg, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto samples = reg.collect();
      ASSERT_FALSE(samples.empty());
    }
  });
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(hits.value(), static_cast<std::uint64_t>(kThreads) * kEvents);
  EXPECT_EQ(lat.count(), static_cast<std::uint64_t>(kThreads) * kEvents);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

MetricsRegistry& golden_registry(MetricsRegistry& reg) {
  reg.counter("test_requests_total", {{"code", "200"}}, "Requests").add(3);
  reg.counter("test_requests_total", {{"code", "500"}}, "Requests").add(1);
  reg.gauge("test_active", {}, "Active").set(2);
  Histogram& h = reg.histogram("test_latency_us", {}, {1.0, 2.0}, "Latency");
  h.observe(0.5);
  h.observe(1.5);
  h.observe(5.0);
  return reg;
}

TEST(PrometheusTest, GoldenOutput) {
  MetricsRegistry reg;
  const std::string got = to_prometheus(golden_registry(reg));
  const std::string want =
      "# HELP test_active Active\n"
      "# TYPE test_active gauge\n"
      "test_active 2\n"
      "# HELP test_latency_us Latency\n"
      "# TYPE test_latency_us histogram\n"
      "test_latency_us_bucket{le=\"1\"} 1\n"
      "test_latency_us_bucket{le=\"2\"} 2\n"
      "test_latency_us_bucket{le=\"+Inf\"} 3\n"
      "test_latency_us_sum 7\n"
      "test_latency_us_count 3\n"
      "# HELP test_requests_total Requests\n"
      "# TYPE test_requests_total counter\n"
      "test_requests_total{code=\"200\"} 3\n"
      "test_requests_total{code=\"500\"} 1\n";
  EXPECT_EQ(got, want);
}

TEST(PrometheusTest, LabelValuesEscaped) {
  MetricSample s;
  s.name = "x_total";
  s.labels = {{"path", "a\"b\\c\nd"}};
  s.type = MetricType::kCounter;
  s.value = 1;
  EXPECT_EQ(to_prometheus({s}),
            "# TYPE x_total counter\n"
            "x_total{path=\"a\\\"b\\\\c\\nd\"} 1\n");
}

TEST(JsonSnapshotTest, StructureAndBenchmarkEntries) {
  MetricsRegistry reg;
  golden_registry(reg);
  Tracer tracer;
  {
    Span parent = tracer.start_span("host_attestation", kStepHostAttestation);
    Span child = parent.child("quote_verification", kStepQuoteVerification);
    child.annotate("status", "OK");
  }
  const json::Value snap =
      snapshot_json(reg.collect(), tracer.spans(), "unit-test");

  EXPECT_EQ(snap.at("context").at("run").as_string(), "unit-test");
  EXPECT_EQ(snap.at("context").at("schema").as_string(), "vnfsgx-obs/1");
  EXPECT_EQ(snap.at("metrics").as_array().size(), 4u);

  // The one non-empty histogram becomes one BENCH-style entry.
  const auto& benches = snap.at("benchmarks").as_array();
  ASSERT_EQ(benches.size(), 1u);
  EXPECT_EQ(benches[0].at("name").as_string(), "test_latency_us");
  EXPECT_EQ(benches[0].at("iterations").as_int(), 3);
  EXPECT_EQ(benches[0].at("time_unit").as_string(), "us");
  EXPECT_DOUBLE_EQ(benches[0].at("real_time").as_number(), 7.0 / 3.0);

  // Spans serialize with Figure-1 step names; the child ended first.
  const auto& spans = snap.at("spans").as_array();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].at("name").as_string(), "quote_verification");
  EXPECT_EQ(spans[0].at("figure1_step").as_int(), 2);
  EXPECT_EQ(spans[0].at("figure1_name").as_string(), "quote_verification");
  EXPECT_EQ(spans[0].at("annotations").at("status").as_string(), "OK");
  EXPECT_EQ(spans[1].at("figure1_name").as_string(), "host_attestation");
  EXPECT_EQ(spans[0].at("parent_id").as_int(), spans[1].at("id").as_int());
}

TEST(SummaryTableTest, SkipsZeroesAndShowsQuantiles) {
  MetricsRegistry reg;
  golden_registry(reg);
  reg.counter("test_untouched_total");  // zero: must not appear
  const std::string table = summary_table(reg);
  EXPECT_NE(table.find("test_requests_total{code=\"200\"}"), std::string::npos);
  EXPECT_NE(table.find("n=3 p50="), std::string::npos);
  EXPECT_EQ(table.find("test_untouched_total"), std::string::npos);
}

TEST(SnapshotFileTest, WritesParseableJson) {
  const std::string path = ::testing::TempDir() + "obs_snapshot_test.json";
  ASSERT_TRUE(write_snapshot_file(path, "file-test"));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text(1 << 20, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  const json::Value snap = json::parse(text);
  EXPECT_EQ(snap.at("context").at("run").as_string(), "file-test");
}

TEST(SnapshotFileTest, UnwritablePathReturnsFalse) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kOff);  // silence the expected warning
  EXPECT_FALSE(write_snapshot_file("/nonexistent-dir/x.json", "file-test"));
  set_log_level(saved);
}

// ---------------------------------------------------------------------------
// Tracer / Span
// ---------------------------------------------------------------------------

TEST(TracerTest, ParentChildLinkage) {
  Tracer tracer;
  Span parent = tracer.start_span("parent", kStepHostAttestation);
  Span child = parent.child("child", kStepQuoteVerification);
  child.end();
  parent.end();
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "child");  // recorded at end(): child first
  EXPECT_EQ(spans[0].parent_id, spans[1].id);
  EXPECT_EQ(spans[0].step, kStepQuoteVerification);
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_EQ(spans[1].step, kStepHostAttestation);
  EXPECT_GE(spans[1].duration_ns, spans[0].duration_ns);
}

TEST(TracerTest, EndIsIdempotent) {
  Tracer tracer;
  Span s = tracer.start_span("once");
  s.end();
  s.end();
  EXPECT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.recorded(), 1u);
}

TEST(TracerTest, RingDropsOldest) {
  Tracer tracer(2);
  tracer.start_span("a").end();
  tracer.start_span("b").end();
  tracer.start_span("c").end();
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "b");
  EXPECT_EQ(spans[1].name, "c");
  EXPECT_EQ(tracer.recorded(), 3u);
  EXPECT_EQ(tracer.dropped(), 1u);
}

TEST(TracerTest, ClearEmptiesBuffer) {
  Tracer tracer;
  tracer.start_span("a").end();
  tracer.clear();
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(SpanTest, InertSpanIsSafe) {
  Span s;  // no tracer
  EXPECT_FALSE(s.active());
  s.annotate("k", "v");
  Span child = s.child("sub");
  EXPECT_FALSE(child.active());
  s.end();  // no-op, no crash
}

TEST(SpanTest, MoveTransfersOwnership) {
  Tracer tracer;
  Span a = tracer.start_span("moved");
  Span b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): tested
  EXPECT_TRUE(b.active());
  b.end();
  a.end();  // moved-from: no double record
  EXPECT_EQ(tracer.recorded(), 1u);
}

TEST(SpanTest, AnnotationsRecordedAndElapsedMonotonic) {
  Tracer tracer;
  Span s = tracer.start_span("annotated");
  s.annotate("key", "value");
  EXPECT_GE(s.elapsed_us(), 0.0);
  s.end();
  const double final_us = s.elapsed_us();
  EXPECT_DOUBLE_EQ(s.elapsed_us(), final_us);  // frozen after end()
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].annotations.size(), 1u);
  EXPECT_EQ(spans[0].annotations[0],
            (std::pair<std::string, std::string>{"key", "value"}));
}

}  // namespace
}  // namespace vnfsgx::obs

// ---------------------------------------------------------------------------
// Metrics-aware logger
// ---------------------------------------------------------------------------

namespace vnfsgx {
namespace {

class LoggingTest : public ::testing::Test {
 protected:
  LoggingTest() : saved_level_(log_level()) {
    set_log_sink(&sink_);
    set_log_level(LogLevel::kDebug);
  }
  ~LoggingTest() override {
    set_log_sink(nullptr);
    set_log_level(saved_level_);
  }

  CapturingLogSink sink_;
  LogLevel saved_level_;
};

TEST_F(LoggingTest, CapturingSinkRecordsFormattedLines) {
  VNFSGX_LOG_INFO("test", "hello ", 42);
  ASSERT_EQ(sink_.count(), 1u);
  const auto lines = sink_.lines();
  EXPECT_EQ(lines[0].level, LogLevel::kInfo);
  EXPECT_EQ(lines[0].component, "test");
  EXPECT_EQ(lines[0].message, "hello 42");
  sink_.clear();
  EXPECT_EQ(sink_.count(), 0u);
}

TEST_F(LoggingTest, LevelFilterSuppressesEmission) {
  const std::uint64_t before = log_message_count(LogLevel::kDebug);
  set_log_level(LogLevel::kWarn);
  VNFSGX_LOG_DEBUG("test", "dropped");
  EXPECT_EQ(sink_.count(), 0u);
  // Filtered lines are not counted either.
  EXPECT_EQ(log_message_count(LogLevel::kDebug), before);
}

TEST_F(LoggingTest, PerLevelCountsAreMonotonic) {
  const std::uint64_t before = log_message_count(LogLevel::kWarn);
  VNFSGX_LOG_WARN("test", "one");
  VNFSGX_LOG_WARN("test", "two");
  EXPECT_EQ(log_message_count(LogLevel::kWarn), before + 2);
  EXPECT_EQ(log_message_count(LogLevel::kOff), 0u);
}

TEST_F(LoggingTest, GlobalRegistryExportsLogCounters) {
  VNFSGX_LOG_ERROR("test", "observable");
  const auto samples = obs::registry().collect();
  bool found = false;
  for (const auto& s : samples) {
    if (s.name == "vnfsgx_log_messages_total" &&
        s.labels == obs::Labels{{"level", "error"}}) {
      found = true;
      EXPECT_GE(s.value, 1.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(LoggingTest, ConcurrentWritersDoNotRace) {
  constexpr int kThreads = 4;
  constexpr int kLines = 1'000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        log(LogLevel::kInfo, "concurrent", "thread ", t, " line ", i);
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(sink_.count(), static_cast<std::size_t>(kThreads) * kLines);
}

}  // namespace
}  // namespace vnfsgx

// ---------------------------------------------------------------------------
// End to end: one Figure-1 run through the global registry and tracer.
// ---------------------------------------------------------------------------

namespace vnfsgx::core {
namespace {

sgx::PlatformOptions fast_sgx() {
  sgx::PlatformOptions o;
  o.crossing_cost = std::chrono::nanoseconds(0);
  return o;
}

class ObsFigure1Testbed : public ::testing::Test {
 protected:
  ObsFigure1Testbed()
      : rng_(61),
        clock_(1'700'000'000),
        ias_(rng_, clock_),
        ias_router_(ias::make_ias_router(ias_)),
        vendor_(crypto::ed25519_generate(rng_)),
        host_("host-1", rng_, fast_sgx()),
        vm_(rng_, clock_,
            ias::IasClient([this] { return net_.connect("ias:443"); },
                           ias_.report_signing_key())),
        agent_(host_),
        vm_router_(make_vm_router(vm_)) {
    net_.serve("ias:443", [this](net::StreamPtr s) {
      http::serve_connection(*s, ias_router_);
    });
    net_.serve("host-1:7000",
               [this](net::StreamPtr s) { agent_.serve(std::move(s)); });
    net_.serve("vm:8081", [this](net::StreamPtr s) {
      http::serve_connection(*s, vm_router_);
    });

    host_.boot();
    host_.load_attestation_enclave(vendor_.seed);
    ias_.register_platform(
        host_.sgx().platform_id(),
        host_.sgx().quoting_enclave().attestation_public_key());
    vm_.appraisal().learn(host_.ima().list());
  }

  ~ObsFigure1Testbed() override { net_.join_all(); }

  crypto::DeterministicRandom rng_;
  SimClock clock_;
  net::InMemoryNetwork net_;
  ias::IasService ias_;
  http::Router ias_router_;
  crypto::Ed25519KeyPair vendor_;
  host::ContainerHost host_;
  VerificationManager vm_;
  HostAgent agent_;
  http::Router vm_router_;
};

std::uint64_t counter_value(const char* name, const obs::Labels& labels) {
  // counter() returns the existing instrument for a known (name, labels).
  return obs::registry().counter(name, labels).value();
}

TEST_F(ObsFigure1Testbed, MetricsEndpointReflectsOneFullRun) {
  // Deploy the VNF and the controller first: setup traffic (controller
  // certificate issuance) must not pollute the per-run numbers.
  vnf::Vnf vnf("vnf-1", host_, vendor_.seed,
               std::make_unique<vnf::FirewallFunction>());
  agent_.register_vnf(vnf);
  vm_.appraisal().learn(host_.ima().list());

  dataplane::Fabric fabric;
  fabric.add_switch(1);
  const auto controller_kp = crypto::ed25519_generate(rng_);
  controller::ControllerConfig cfg;
  cfg.mode = controller::SecurityMode::kTrustedHttps;
  cfg.certificate = vm_.ca().issue(
      {"controller", ""}, controller_kp.public_key,
      static_cast<std::uint8_t>(pki::KeyUsage::kServerAuth));
  cfg.signer = tls::Config::software_signer(controller_kp.seed);
  cfg.clock = &clock_;
  cfg.rng = &rng_;
  controller::Controller controller(cfg, fabric);
  controller.trust_ca(vm_.ca_certificate());
  net_.serve("controller:8443", [&controller](net::StreamPtr s) {
    controller.serve(std::move(s));
  });

  // Zero every instrument and drop setup spans: from here on, the global
  // registry holds exactly one Figure-1 run.
  obs::registry().reset();
  obs::tracer().clear();

  // Steps 1-5.
  auto ch = net_.connect("host-1:7000");
  ASSERT_TRUE(vm_.attest_host(*ch).trustworthy);
  ASSERT_TRUE(vm_.attest_vnf(*ch, "vnf-1").trustworthy);
  ASSERT_TRUE(vm_.enroll_vnf(*ch, "vnf-1", "vnf-1").has_value());

  // Step 6: in-enclave TLS to the controller, one REST request.
  vnf.credentials().tls_open(net_.connect("controller:8443"), clock_.now(),
                             "controller", vm_.ca_certificate());
  vnf::EnclaveTlsStream tunnel(vnf.credentials());
  http::Connection conn(tunnel);
  http::Request push;
  push.method = "POST";
  push.target = "/wm/staticflowpusher/json";
  push.body = to_bytes(
      R"({"name":"fw-1","switch":1,"priority":100,"tcp_dst":23,"actions":"drop"})");
  conn.write(push);
  const auto response = conn.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  vnf.credentials().tls_close();

  // Registry counters: exactly one of everything.
  EXPECT_EQ(counter_value("vnfsgx_attestations_total",
                          {{"kind", "host"}, {"result", "ok"}}),
            1u);
  EXPECT_EQ(counter_value("vnfsgx_attestations_total",
                          {{"kind", "vnf"}, {"result", "ok"}}),
            1u);
  EXPECT_EQ(counter_value("vnfsgx_credentials_provisioned_total",
                          {{"result", "ok"}}),
            1u);
  EXPECT_EQ(counter_value("vnfsgx_ca_certificates_issued_total",
                          {{"kind", "leaf"}}),
            1u);
  EXPECT_EQ(counter_value("vnfsgx_tls_handshakes_total",
                          {{"role", "server"}, {"kind", "full"},
                           {"result", "ok"}}),
            1u);
  EXPECT_EQ(counter_value("vnfsgx_controller_requests_total",
                          {{"mode", "TRUSTED_HTTPS"}, {"method", "POST"}}),
            1u);

  // Tracer: all six Figure-1 steps have at least one timed span.
  std::set<int> steps;
  for (const auto& span : obs::tracer().spans()) {
    if (span.step != obs::kStepNone) steps.insert(span.step);
    EXPECT_GT(span.duration_ns, 0u) << span.name;
  }
  EXPECT_EQ(steps, (std::set<int>{1, 2, 3, 4, 5, 6}));

  // The same numbers through the operator endpoint, Prometheus-formatted.
  http::Client scrape(net_.connect("vm:8081"));
  const auto res = scrape.get("/vm/metrics");
  EXPECT_EQ(res.status, 200);
  const std::string text = vnfsgx::to_string(res.body);
  EXPECT_NE(
      text.find("vnfsgx_attestations_total{kind=\"host\",result=\"ok\"} 1\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("vnfsgx_credentials_provisioned_total{result=\"ok\"} 1\n"),
      std::string::npos);
  EXPECT_NE(text.find("vnfsgx_tls_handshakes_total{kind=\"full\","
                      "result=\"ok\",role=\"server\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("vnfsgx_host_attestation_duration_us_count 1\n"),
            std::string::npos);

  // And the JSON snapshot endpoint, with the six steps in its span list.
  const auto json_res = scrape.get("/vm/metrics/json");
  scrape.close();
  EXPECT_EQ(json_res.status, 200);
  const json::Value snap = json::parse(vnfsgx::to_string(json_res.body));
  EXPECT_EQ(snap.at("context").at("run").as_string(), "verification-manager");
  std::set<int> json_steps;
  for (const auto& span : snap.at("spans").as_array()) {
    if (span.as_object().count("figure1_step") != 0u) {
      json_steps.insert(static_cast<int>(span.at("figure1_step").as_int()));
    }
  }
  EXPECT_EQ(json_steps, (std::set<int>{1, 2, 3, 4, 5, 6}));
}

}  // namespace
}  // namespace vnfsgx::core
