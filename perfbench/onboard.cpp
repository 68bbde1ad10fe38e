// onboard: one operator thread, closed loop. Each op onboards one VNF end
// to end -- a fresh in-enclave key, host attestation, VNF enclave
// attestation, credential enrollment, a mutually authenticated in-enclave
// TLS handshake to the controller, one flow POST through it, close --
// rotating round-robin over a fixed pool of 2 hosts x 8 VNFs.
#include <random>

#include "checks.h"
#include "deployment.h"
#include "http/wire.h"
#include "vnf/credential_client.h"
#include "workloads.h"

namespace perfbench {

using namespace vnfsgx;

namespace {

/// Stated wide-area round trip to the IAS. Links run at zero latency; the
/// WAN share is this constant times the counted IAS reports, reported
/// beside (never added to) the measured time.
constexpr double kModelledIasRttUs = 1000.0;

class Onboard final : public Workload {
 public:
  explicit Onboard(std::uint64_t seed) : d_(DeploymentOptions{.seed = seed}) {
    std::mt19937_64 gen(seed ^ 0x6f6e626f617264ULL);
    for (std::size_t h = 0; h < d_.machines.size(); ++h) {
      channels_.push_back(d_.agent_channel(h));
    }
    // One flow per VNF: re-onboarding replaces it by name, so the flow
    // tables stay the same size however many ops run.
    for (std::size_t i = 0; i < d_.members.size(); ++i) {
      Flow f;
      f.name = "onboard-" + std::to_string(i);
      f.dpid = 1 + i % Deployment::kSwitches;
      f.push.method = "POST";
      f.push.target = "/wm/staticflowpusher/json";
      f.push.body = to_bytes(
          R"({"name":")" + f.name + R"(","switch":)" + std::to_string(f.dpid) +
          R"(,"priority":)" + std::to_string(100 + gen() % 100) +
          R"(,"tcp_dst":)" + std::to_string(1024 + gen() % 60000) +
          R"(,"actions":"drop"})");
      flows_.push_back(std::move(f));
    }
    // Warm-up: onboard every VNF once (caches, handshake paths, flows).
    std::string error;
    for (std::uint64_t k = 0; k < d_.members.size(); ++k) {
      if (!op(0, k, nullptr, error)) throw Error("onboard warm-up: " + error);
    }
  }

  std::size_t threads() const override { return 1; }

  std::optional<double> op(std::size_t, std::uint64_t k, SpanSink* sink,
                           std::string& error) override {
    const std::size_t i = k % d_.members.size();
    VnfMember& m = d_.members[i];
    const Flow& flow = flows_[i];
    vnf::CredentialClient& creds = m.vnf->credentials();
    net::Stream& channel = *channels_[m.host];

    crypto::Ed25519PublicKey key{};
    core::HostAttestation host;
    core::VnfAttestation attested;
    std::optional<pki::Certificate> cert;
    std::optional<http::Response> response;
    const auto t0 = SteadyClock::now();
    {
      ScopedSpan op_span(sink, "onboard.op", k);
      {
        ScopedSpan s(sink, "vnf.rotate_key", k);
        key = creds.rotate_key();
      }
      {
        ScopedSpan s(sink, "core.attest_host", k);
        host = d_.vm.attest_host(channel);
      }
      if (!host.trustworthy) {
        error = "attest_host: " + host.reason;
        return std::nullopt;
      }
      {
        ScopedSpan s(sink, "core.attest_vnf", k);
        attested = d_.vm.attest_vnf(channel, m.name);
      }
      if (!attested.trustworthy) {
        error = "attest_vnf: " + attested.reason;
        return std::nullopt;
      }
      {
        ScopedSpan s(sink, "core.enroll_vnf", k);
        cert = d_.vm.enroll_vnf(channel, m.name, m.common_name);
      }
      if (!cert) {
        error = "enroll_vnf: no credential";
        return std::nullopt;
      }
      {
        ScopedSpan s(sink, "vnf.tls_open", k);
        creds.tls_open(d_.net.connect(Deployment::kControllerAddress),
                       d_.clock.now(), Deployment::kControllerName,
                       d_.vm.ca_certificate());
      }
      try {
        ScopedSpan s(sink, "controller.first_post", k);
        vnf::EnclaveTlsStream tunnel(creds);
        http::Connection conn(tunnel);
        conn.write(flow.push);
        response = conn.read_response();
      } catch (...) {
        creds.tls_close();
        throw;
      }
      {
        ScopedSpan s(sink, "vnf.tls_close", k);
        creds.tls_close();
      }
    }
    const double latency_us =
        std::chrono::duration<double, std::micro>(SteadyClock::now() - t0)
            .count();

    if (attested.public_key != key) {
      error = "attest_vnf: attested key is not the enclave's fresh key";
      return std::nullopt;
    }
    error = check_credential(*cert, d_.vm.ca_certificate(), key, last_serial_,
                             d_.clock.now());
    if (error.empty()) {
      error = response ? check_flow_push(*response)
                       : "flow push: connection closed";
    }
    if (error.empty()) {
      error = check_flow_installed(*d_.fabric.find_switch(flow.dpid), flow.name);
    }
    if (!error.empty()) return std::nullopt;
    last_serial_ = cert->serial;
    return latency_us;
  }

  void begin_phase() override { crossings_before_ = crossings(); }

  void layer_metrics(const PhaseResult& phase, const Tracer* tracer,
                     Metrics& out) override {
    const double ops = std::max<double>(1, static_cast<double>(phase.ops.size()));
    const auto samples = obs::registry().collect();
    const double reports = counter_total(samples, "vnfsgx_ias_reports_total");
    const double crossings_per_op =
        static_cast<double>(crossings() - crossings_before_) / ops;
    const double crossing_us =
        std::chrono::duration<double, std::micro>(
            sgx::PlatformOptions{}.crossing_cost)
            .count();
    out["ias.reports_per_op"] = {reports / ops, "count"};
    out["ias.modelled_wan_us_per_op"] = {reports / ops * kModelledIasRttUs, "us"};
    out["sgx.crossings_per_op"] = {crossings_per_op, "count"};
    out["sgx.modelled_crossing_us_per_op"] = {crossings_per_op * crossing_us,
                                              "us"};
    out["core.appraisal_cache.hit_ratio"] = {hit_ratio(samples, "appraisal"),
                                             "ratio"};
    out["pki.validation_cache.hit_ratio"] = {
        hit_ratio(samples, "cert_validation"), "ratio"};
    out["pki.crl_entries"] = {
        static_cast<double>(d_.vm.ca().current_crl().revoked_serials.size()),
        "count"};
    if (tracer) {
      for (const char* name :
           {"core.attest_host", "core.attest_vnf", "core.enroll_vnf",
            "vnf.tls_open", "controller.first_post"}) {
        out[std::string(name) + ".p50_us"] = {span_p50(*tracer, name), "us"};
      }
    }
  }

  bool final_check(std::string& error) override {
    for (const Flow& flow : flows_) {
      error = check_flow_installed(*d_.fabric.find_switch(flow.dpid), flow.name);
      if (!error.empty()) return false;
    }
    return true;
  }

 private:
  struct Flow {
    std::string name;
    std::uint64_t dpid = 0;
    http::Request push;
  };

  std::vector<const sgx::Enclave*> enclaves() {
    std::vector<const sgx::Enclave*> out;
    for (auto& m : d_.members) out.push_back(m.vnf->enclave().get());
    for (auto& machine : d_.machines) {
      out.push_back(machine->attestation_enclave().get());
    }
    return out;
  }

  /// ECALL crossings so far into every enclave of the deployment.
  std::uint64_t crossings() {
    std::uint64_t total = 0;
    for (const sgx::Enclave* e : enclaves()) total += e->ecall_stats().crossings;
    return total;
  }

  static double hit_ratio(const std::vector<obs::MetricSample>& samples,
                          const std::string& cache) {
    const double hits = counter_total(samples, "vnfsgx_cache_requests_total",
                                      {{"cache", cache}, {"result", "hit"}});
    const double misses = counter_total(samples, "vnfsgx_cache_requests_total",
                                        {{"cache", cache}, {"result", "miss"}});
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  }

  Deployment d_;
  std::vector<net::StreamPtr> channels_;
  std::vector<Flow> flows_;
  std::uint64_t last_serial_ = 0;
  std::uint64_t crossings_before_ = 0;
};

}  // namespace

WorkloadFactory prepare_onboard(std::uint64_t seed) {
  return [seed] { return std::make_unique<Onboard>(seed); };
}

}  // namespace perfbench
