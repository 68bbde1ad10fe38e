// rest: warm trusted-HTTPS REST. Two VNF clients, each on one keep-alive
// in-enclave TLS connection driven by its own thread, closed loop. Every
// four requests are three GETs (summary, switches, one switch's flow list)
// and one flow POST. Flow names come from a bounded seeded set pushed in
// warm-up, so the flow tables and list bodies stay a fixed size.
#include <random>

#include "checks.h"
#include "deployment.h"
#include "http/wire.h"
#include "vnf/credential_client.h"
#include "workloads.h"

namespace perfbench {

using namespace vnfsgx;

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kFlowsPerClient = 32;
constexpr std::size_t kPushSequence = 1024;
constexpr std::uint64_t kWarmupOps = 200;

class Rest final : public Workload {
 public:
  explicit Rest(std::uint64_t seed)
      : d_(DeploymentOptions{.seed = seed, .hosts = kClients, .vnfs_per_host = 1}) {
    std::mt19937_64 gen(seed ^ 0x72657374ULL);
    const std::size_t switches = Deployment::kSwitches;
    expected_by_switch_.resize(switches);
    for (std::size_t c = 0; c < kClients; ++c) {
      VnfMember& m = d_.members[c];
      enroll(m);
      auto client = std::make_unique<Client>(m.vnf->credentials());
      for (std::size_t j = 0; j < kFlowsPerClient; ++j) {
        const std::string name =
            "rest-" + std::to_string(c) + "-" + std::to_string(j);
        const std::uint64_t dpid = 1 + gen() % switches;
        http::Request push;
        push.method = "POST";
        push.target = "/wm/staticflowpusher/json";
        push.body = to_bytes(
            R"({"name":")" + name + R"(","switch":)" + std::to_string(dpid) +
            R"(,"priority":)" + std::to_string(100 + gen() % 100) +
            R"(,"ipv4_src":"10.)" + std::to_string(c) + "." +
            std::to_string(gen() % 256) + "." + std::to_string(gen() % 256) +
            R"(","tcp_dst":)" + std::to_string(1024 + gen() % 60000) +
            R"(,"actions":"output=)" + std::to_string(1 + gen() % 4) + R"("})");
        client->pushes.push_back(std::move(push));
        client->push_dpid.push_back(dpid);
        client->push_name.push_back(name);
        expected_by_switch_[dpid - 1].push_back(name);
      }
      for (std::size_t i = 0; i < kPushSequence; ++i) {
        client->sequence.push_back(gen() % kFlowsPerClient);
      }
      clients_.push_back(std::move(client));
    }
    for (std::size_t s = 0; s < switches; ++s) {
      http::Request list;
      list.target = "/wm/staticflowpusher/list/" + std::to_string(s + 1) + "/json";
      lists_.push_back(std::move(list));
    }
    summary_.target = "/wm/core/controller/summary/json";
    switches_.target = "/wm/core/controller/switches/json";

    // Warm-up: every flow of the bounded set is installed before any GET
    // lists it, then a few hundred mixed requests per client.
    std::string error;
    for (std::size_t c = 0; c < kClients; ++c) {
      Client& client = *clients_[c];
      for (std::size_t j = 0; j < kFlowsPerClient; ++j) {
        const auto res = round_trip(client, client.pushes[j]);
        if (!res || !(error = check_flow_push(*res)).empty()) {
          throw Error("rest warm-up push: " + error);
        }
      }
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      for (std::uint64_t k = 0; k < kWarmupOps; ++k) {
        if (!op(c, k, nullptr, error)) throw Error("rest warm-up: " + error);
      }
    }
  }

  ~Rest() override {
    for (auto& client : clients_) client->creds.tls_close();
  }

  std::size_t threads() const override { return kClients; }

  std::optional<double> op(std::size_t thread, std::uint64_t k, SpanSink* sink,
                           std::string& error) override {
    Client& client = *clients_[thread];
    const std::uint64_t round = k / 4;
    const http::Request* request = nullptr;
    std::size_t push = 0;
    switch (k % 4) {
      case 0: request = &summary_; break;
      case 1: request = &switches_; break;
      case 2: request = &lists_[round % lists_.size()]; break;
      default:
        push = client.sequence[round % client.sequence.size()];
        request = &client.pushes[push];
        break;
    }
    const bool is_post = k % 4 == 3;
    std::optional<http::Response> response;
    const auto t0 = SteadyClock::now();
    {
      ScopedSpan s(sink, is_post ? "rest.post" : "rest.get", k);
      response = round_trip(client, *request);
    }
    const double latency_us =
        std::chrono::duration<double, std::micro>(SteadyClock::now() - t0)
            .count();
    if (!response) {
      error = "rest: connection closed";
      return std::nullopt;
    }
    switch (k % 4) {
      case 0: error = check_summary(*response, Deployment::kSwitches); break;
      case 1: error = check_switches(*response, Deployment::kSwitches); break;
      case 2:
        error = check_flow_list(*response,
                                expected_by_switch_[round % lists_.size()]);
        break;
      default: error = check_flow_push(*response); break;
    }
    if (!error.empty()) return std::nullopt;
    return latency_us;
  }

  void layer_metrics(const PhaseResult& phase, const Tracer* tracer,
                     Metrics& out) override {
    const double ops = std::max<double>(1, static_cast<double>(phase.ops.size()));
    const auto samples = obs::registry().collect();
    const obs::Labels runtime{{"runtime", "perfbench"}};
    if (const auto* h = find_histogram(samples, "vnfsgx_server_queue_wait_us", runtime)) {
      out["net.queue_wait.p50_us"] = {h->p50, "us"};
      out["net.queue_wait.p99_us"] = {h->p99, "us"};
    }
    if (const auto* h = find_histogram(samples, "vnfsgx_server_burst_duration_us", runtime)) {
      out["net.burst.p50_us"] = {h->p50, "us"};
    }
    out["net.dispatches_per_op"] = {
        counter_total(samples, "vnfsgx_server_dispatches_total", runtime) / ops,
        "count"};
    out["net.steals_per_op"] = {
        counter_total(samples, "vnfsgx_server_steals_total", runtime) / ops,
        "count"};
    out["tls.records_per_op"] = {
        counter_total(samples, "vnfsgx_tls_records_total") / ops, "count"};
    if (tracer) {
      out["rest.get.p50_us"] = {span_p50(*tracer, "rest.get"), "us"};
      out["rest.post.p50_us"] = {span_p50(*tracer, "rest.post"), "us"};
    }
  }

  bool final_check(std::string& error) override {
    for (const auto& client : clients_) {
      for (std::size_t j = 0; j < client->pushes.size(); ++j) {
        error = check_flow_installed(*d_.fabric.find_switch(client->push_dpid[j]),
                                     client->push_name[j]);
        if (!error.empty()) return false;
      }
    }
    return true;
  }

 private:
  /// One VNF's keep-alive connection: HTTP over the in-enclave TLS tunnel.
  struct Client {
    explicit Client(vnf::CredentialClient& c) : creds(c), tunnel(c), conn(tunnel) {}
    vnf::CredentialClient& creds;
    vnf::EnclaveTlsStream tunnel;
    http::Connection conn;
    std::vector<http::Request> pushes;
    std::vector<std::uint64_t> push_dpid;
    std::vector<std::string> push_name;
    std::vector<std::size_t> sequence;  // seeded order of flow pushes
  };

  /// Figure-1 steps 1-5 for `m`, then its TLS session to the controller.
  void enroll(VnfMember& m) {
    auto channel = d_.agent_channel(m.host);
    if (!d_.vm.attest_host(*channel).trustworthy ||
        !d_.vm.attest_vnf(*channel, m.name).trustworthy ||
        !d_.vm.enroll_vnf(*channel, m.name, m.common_name)) {
      throw Error("rest: could not onboard " + m.name);
    }
    m.vnf->credentials().tls_open(d_.net.connect(Deployment::kControllerAddress),
                                  d_.clock.now(), Deployment::kControllerName,
                                  d_.vm.ca_certificate());
  }

  static std::optional<http::Response> round_trip(Client& client,
                                                  const http::Request& request) {
    client.conn.write(request);
    return client.conn.read_response();
  }

  Deployment d_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::vector<std::string>> expected_by_switch_;
  std::vector<http::Request> lists_;
  http::Request summary_;
  http::Request switches_;
};

}  // namespace

WorkloadFactory prepare_rest(std::uint64_t seed) {
  return [seed] { return std::make_unique<Rest>(seed); };
}

}  // namespace perfbench
