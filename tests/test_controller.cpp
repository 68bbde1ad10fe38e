// Controller tests: REST resources, the three security modes, CA-based
// client authentication, authorization, audit log.
#include <gtest/gtest.h>

#include <mutex>
#include <thread>

#include "common/sim_clock.h"
#include "controller/controller.h"
#include "controller/learning.h"
#include "crypto/random.h"
#include "http/client.h"
#include "json/json.h"
#include "net/inmemory.h"
#include "obs/metrics.h"
#include "pki/ca.h"

namespace vnfsgx::controller {
namespace {

using crypto::DeterministicRandom;

class ControllerFixture : public ::testing::Test {
 protected:
  ControllerFixture()
      : rng_(31),
        clock_(1'700'000'000),
        ca_(pki::DistinguishedName{"vm-ca", "vnfsgx"}, rng_, clock_) {
    auto& s1 = fabric_.add_switch(1);
    fabric_.add_switch(2);
    fabric_.link({1, 2}, {2, 1});
    (void)s1;
    truststore_.add_root(ca_.root_certificate());
  }

  ControllerConfig config(SecurityMode mode) {
    ControllerConfig c;
    c.mode = mode;
    if (mode != SecurityMode::kHttp) {
      const auto kp = crypto::ed25519_generate(rng_);
      c.certificate = ca_.issue(
          {"controller", ""}, kp.public_key,
          static_cast<std::uint8_t>(pki::KeyUsage::kServerAuth));
      c.signer = tls::Config::software_signer(kp.seed);
    }
    c.clock = &clock_;
    c.rng = &rng_;
    return c;
  }

  struct ClientIdentity {
    pki::Certificate cert;
    crypto::Ed25519Seed seed;
  };

  ClientIdentity make_client(const std::string& cn) {
    const auto kp = crypto::ed25519_generate(rng_);
    return {ca_.issue({cn, ""}, kp.public_key,
                      static_cast<std::uint8_t>(pki::KeyUsage::kClientAuth)),
            kp.seed};
  }

  /// Open an HTTP client to `controller` honoring its mode.
  http::Client connect(Controller& controller,
                       const ClientIdentity* identity = nullptr) {
    auto [client_end, server_end] = net::make_pipe();
    server_threads_.emplace_back(
        [&controller, s = std::move(server_end)]() mutable {
          controller.serve(std::move(s));
        });
    if (controller.mode() == SecurityMode::kHttp) {
      return http::Client(std::move(client_end));
    }
    tls::Config tls_config;
    tls_config.truststore = &truststore_;
    tls_config.expected_server_name = "controller";
    tls_config.clock = &clock_;
    tls_config.rng = &rng_;
    if (identity) {
      tls_config.certificate = identity->cert;
      tls_config.signer = tls::Config::software_signer(identity->seed);
    }
    return http::Client(
        tls::Session::connect(std::move(client_end), tls_config));
  }

  void join_all() {
    for (auto& t : server_threads_) {
      if (t.joinable()) t.join();
    }
    server_threads_.clear();
  }

  ~ControllerFixture() override { join_all(); }

  DeterministicRandom rng_;
  SimClock clock_;
  pki::CertificateAuthority ca_;
  pki::TrustStore truststore_;
  dataplane::Fabric fabric_;
  std::vector<std::thread> server_threads_;
};

TEST_F(ControllerFixture, SummaryAndTopologyEndpoints) {
  Controller controller(config(SecurityMode::kHttp), fabric_);
  auto client = connect(controller);
  const auto summary =
      json::parse(vnfsgx::to_string(client.get("/wm/core/controller/summary/json").body));
  EXPECT_EQ(summary.at("numSwitches").as_int(), 2);
  EXPECT_EQ(summary.at("numLinks").as_int(), 1);
  EXPECT_EQ(summary.at("securityMode").as_string(), "HTTP");

  const auto switches =
      json::parse(vnfsgx::to_string(client.get("/wm/core/controller/switches/json").body));
  EXPECT_EQ(switches.as_array().size(), 2u);

  const auto links =
      json::parse(vnfsgx::to_string(client.get("/wm/topology/links/json").body));
  EXPECT_EQ(links.as_array().size(), 1u);
  client.close();
}

TEST_F(ControllerFixture, StaticFlowPusherLifecycle) {
  Controller controller(config(SecurityMode::kHttp), fabric_);
  auto client = connect(controller);

  const auto push = client.post(
      "/wm/staticflowpusher/json",
      R"({"name":"f1","switch":1,"priority":100,"tcp_dst":443,"actions":"drop"})");
  EXPECT_EQ(push.status, 200);
  ASSERT_EQ(fabric_.find_switch(1)->flows().size(), 1u);

  dataplane::Packet p;
  p.dst_port = 443;
  p.proto = dataplane::IpProto::kTcp;
  EXPECT_EQ(fabric_.find_switch(1)->process(p, 1).kind,
            dataplane::ForwardingResult::Kind::kDropped);

  const auto list = json::parse(
      vnfsgx::to_string(client.get("/wm/staticflowpusher/list/1/json").body));
  ASSERT_EQ(list.as_array().size(), 1u);
  EXPECT_EQ(list.as_array()[0].at("name").as_string(), "f1");
  EXPECT_EQ(list.as_array()[0].at("packetCount").as_int(), 1);

  http::Request del;
  del.method = "DELETE";
  del.target = "/wm/staticflowpusher/json";
  del.body = to_bytes(R"({"name":"f1","switch":1})");
  EXPECT_EQ(client.request(del).status, 200);
  EXPECT_TRUE(fabric_.find_switch(1)->flows().empty());
  client.close();
}

TEST_F(ControllerFixture, FlowPushErrors) {
  Controller controller(config(SecurityMode::kHttp), fabric_);
  auto client = connect(controller);
  EXPECT_EQ(client.post("/wm/staticflowpusher/json", "nonsense").status, 400);
  EXPECT_EQ(client.post("/wm/staticflowpusher/json",
                        R"({"name":"f","switch":99,"actions":"drop"})").status,
            404);
  EXPECT_EQ(client.post("/wm/staticflowpusher/json",
                        R"({"name":"f","switch":1,"actions":"fly"})").status,
            400);
  EXPECT_EQ(client.get("/wm/staticflowpusher/list/99/json").status, 404);
  EXPECT_EQ(client.get("/wm/staticflowpusher/list/banana/json").status, 400);
  client.close();
}

TEST_F(ControllerFixture, HttpsServesWithoutClientCert) {
  Controller controller(config(SecurityMode::kHttps), fabric_);
  auto client = connect(controller);
  EXPECT_EQ(client.get("/wm/core/controller/summary/json").status, 200);
  client.close();
}

TEST_F(ControllerFixture, TrustedHttpsAcceptsCaSignedClient) {
  Controller controller(config(SecurityMode::kTrustedHttps), fabric_);
  controller.trust_ca(ca_.root_certificate());
  const auto identity = make_client("vnf-1");
  auto client = connect(controller, &identity);
  EXPECT_EQ(client.post("/wm/staticflowpusher/json",
                        R"({"name":"f1","switch":1,"actions":"drop"})").status,
            200);
  client.close();
  join_all();
  // The audit log attributes the write to the authenticated CN.
  const auto log = controller.audit_log();
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.back().identity, "vnf-1");
  EXPECT_EQ(log.back().method, "POST");
}

TEST_F(ControllerFixture, AuditLogKeepsMostRecentRecordsOldestFirst) {
  Controller controller(config(SecurityMode::kHttp), fabric_);
  obs::Counter& dropped_total = obs::registry().counter(
      "vnfsgx_controller_audit_records_dropped_total");
  const std::uint64_t dropped_before = dropped_total.value();
  constexpr std::size_t kExtra = 7;
  constexpr std::size_t kRequests = Controller::kAuditLogCapacity + kExtra;
  auto path = [](std::size_t i) {
    return "/wm/staticflowpusher/list/" + std::to_string(i) + "/json";
  };
  auto client = connect(controller);
  for (std::size_t i = 0; i < kRequests; ++i) {
    client.get(path(i));
  }
  client.close();
  join_all();

  const auto log = controller.audit_log();
  ASSERT_EQ(log.size(), Controller::kAuditLogCapacity);
  // The oldest kExtra records are gone; the rest run oldest to newest.
  for (std::size_t i = 0; i < log.size(); ++i) {
    ASSERT_EQ(log[i].path, path(kExtra + i)) << "slot " << i;
  }
  EXPECT_EQ(dropped_total.value() - dropped_before, kExtra);
  EXPECT_EQ(controller.requests_served(), kRequests);
}

TEST_F(ControllerFixture, RequestMetricsCountEveryRequestOnce) {
  // The per-mode REST instruments are registered once and updated through
  // cached references; the readings must still count every request.
  Controller controller(config(SecurityMode::kTrustedHttps), fabric_);
  controller.trust_ca(ca_.root_certificate());
  const auto requests = [](const std::string& method) {
    return obs::registry()
        .counter("vnfsgx_controller_requests_total",
                 {{"mode", "TRUSTED_HTTPS"}, {"method", method}})
        .value();
  };
  obs::Counter& failures = obs::registry().counter(
      "vnfsgx_controller_auth_failures_total", {{"mode", "TRUSTED_HTTPS"}});
  obs::Histogram& duration = obs::registry().histogram(
      "vnfsgx_controller_request_duration_us", {{"mode", "TRUSTED_HTTPS"}});
  const std::uint64_t get0 = requests("GET");
  const std::uint64_t post0 = requests("POST");
  const std::uint64_t delete0 = requests("DELETE");
  const std::uint64_t failures0 = failures.value();
  const std::uint64_t duration0 = duration.count();

  constexpr std::size_t kGets = 5, kPosts = 3, kForbidden = 2;
  const auto vnf = make_client("vnf-1");
  auto client = connect(controller, &vnf);
  for (std::size_t i = 0; i < kGets; ++i) {
    EXPECT_EQ(client.get("/wm/core/controller/summary/json").status, 200);
  }
  for (std::size_t i = 0; i < kPosts; ++i) {
    EXPECT_EQ(client.post("/wm/staticflowpusher/json",
                          R"({"name":"fw-)" + std::to_string(i) +
                              R"(","switch":1,"actions":"drop"})")
                  .status,
              200);
  }
  client.close();
  // A certificate without a common name authenticates the channel but
  // names no client: writes are refused with 403.
  const auto nameless = make_client("");
  auto anon = connect(controller, &nameless);
  for (std::size_t i = 0; i < kForbidden; ++i) {
    EXPECT_EQ(anon.post("/wm/staticflowpusher/json",
                        R"({"name":"evil","switch":1,"actions":"drop"})")
                  .status,
              403);
  }
  anon.close();
  join_all();

  EXPECT_EQ(requests("GET") - get0, kGets);
  EXPECT_EQ(requests("POST") - post0, kPosts + kForbidden);
  EXPECT_EQ(requests("DELETE") - delete0, 0u);
  EXPECT_EQ(failures.value() - failures0, kForbidden);
  EXPECT_EQ(duration.count() - duration0, kGets + kPosts + kForbidden);
  EXPECT_EQ(controller.requests_served(), kGets + kPosts + kForbidden);
}

TEST_F(ControllerFixture, TrustedHttpsRejectsAnonymousClient) {
  Controller controller(config(SecurityMode::kTrustedHttps), fabric_);
  controller.trust_ca(ca_.root_certificate());
  EXPECT_THROW(
      {
        auto client = connect(controller);  // no client certificate
        client.get("/wm/core/controller/summary/json");
      },
      Error);
  join_all();
  EXPECT_EQ(controller.rejected_connections(), 1u);
  EXPECT_EQ(controller.requests_served(), 0u);
}

TEST_F(ControllerFixture, TrustedHttpsRejectsForeignCa) {
  Controller controller(config(SecurityMode::kTrustedHttps), fabric_);
  controller.trust_ca(ca_.root_certificate());

  DeterministicRandom rng2(71);
  pki::CertificateAuthority rogue(pki::DistinguishedName{"rogue", ""}, rng2,
                                  clock_);
  const auto kp = crypto::ed25519_generate(rng2);
  ClientIdentity identity{
      rogue.issue({"vnf-evil", ""}, kp.public_key,
                  static_cast<std::uint8_t>(pki::KeyUsage::kClientAuth)),
      kp.seed};
  EXPECT_THROW(
      {
        auto client = connect(controller, &identity);
        client.get("/wm/core/controller/summary/json");
      },
      Error);
  join_all();
  EXPECT_EQ(controller.rejected_connections(), 1u);
}

TEST_F(ControllerFixture, TrustedHttpsRejectsRevokedClient) {
  Controller controller(config(SecurityMode::kTrustedHttps), fabric_);
  controller.trust_ca(ca_.root_certificate());
  const auto identity = make_client("vnf-revoked");
  controller.update_crl(ca_.revoke(identity.cert.serial));
  EXPECT_THROW(
      {
        auto client = connect(controller, &identity);
        client.get("/wm/core/controller/summary/json");
      },
      Error);
  join_all();
  EXPECT_EQ(controller.rejected_connections(), 1u);
}

TEST_F(ControllerFixture, TrustedModeRequiresTrustedCa) {
  Controller controller(config(SecurityMode::kTrustedHttps), fabric_);
  const auto identity = make_client("vnf-1");
  EXPECT_THROW(
      {
        auto client = connect(controller, &identity);
        client.get("/wm/core/controller/summary/json");
      },
      Error);
  join_all();
}

TEST_F(ControllerFixture, HttpAllowsAnonymousWrites) {
  // The exposure trusted HTTPS closes: any client can program the network.
  Controller controller(config(SecurityMode::kHttp), fabric_);
  auto client = connect(controller);
  EXPECT_EQ(client.post("/wm/staticflowpusher/json",
                        R"({"name":"evil","switch":1,"actions":"drop"})").status,
            200);
  client.close();
}

TEST_F(ControllerFixture, MissingTlsConfigThrows) {
  ControllerConfig bad;
  bad.mode = SecurityMode::kHttps;  // no cert/signer/clock/rng
  EXPECT_THROW(Controller(bad, fabric_), Error);
}

}  // namespace
}  // namespace vnfsgx::controller

// ---------------------------------------------------------------------------
// Session-ticket resumption at the controller.
// ---------------------------------------------------------------------------

namespace vnfsgx::controller {
namespace {

TEST_F(ControllerFixture, SessionTicketsResumeWithIdentity) {
  ControllerConfig cfg = config(SecurityMode::kTrustedHttps);
  cfg.enable_session_tickets = true;
  Controller controller(cfg, fabric_);
  controller.trust_ca(ca_.root_certificate());
  const auto identity = make_client("vnf-7");

  // First connection: full handshake; harvest the ticket.
  tls::SessionTicket ticket;
  {
    auto [client_end, server_end] = net::make_pipe();
    server_threads_.emplace_back(
        [&controller, s = std::move(server_end)]() mutable {
          controller.serve(std::move(s));
        });
    tls::Config tls_config;
    tls_config.truststore = &truststore_;
    tls_config.expected_server_name = "controller";
    tls_config.clock = &clock_;
    tls_config.rng = &rng_;
    tls_config.certificate = identity.cert;
    tls_config.signer = tls::Config::software_signer(identity.seed);
    auto session = tls::Session::connect(std::move(client_end), tls_config);
    http::Client client(std::move(session));
    EXPECT_EQ(client.get("/wm/core/controller/summary/json").status, 200);
    // The ticket was processed during the response read.
    auto* tls_session = static_cast<tls::Session*>(&client.stream());
    ASSERT_TRUE(tls_session->session_ticket().has_value());
    ticket = *tls_session->session_ticket();
    client.close();
  }

  // Second connection: resumption — no client certificate needed, but the
  // audit log still shows the authenticated identity.
  {
    auto [client_end, server_end] = net::make_pipe();
    server_threads_.emplace_back(
        [&controller, s = std::move(server_end)]() mutable {
          controller.serve(std::move(s));
        });
    tls::Config tls_config;
    tls_config.truststore = &truststore_;
    tls_config.clock = &clock_;
    tls_config.rng = &rng_;
    tls_config.resumption = &ticket;
    auto session = tls::Session::connect(std::move(client_end), tls_config);
    EXPECT_TRUE(session->resumed());
    http::Client client(std::move(session));
    EXPECT_EQ(client.post("/wm/staticflowpusher/json",
                          R"({"name":"r1","switch":1,"actions":"drop"})").status,
              200);
    client.close();
  }
  join_all();
  const auto log = controller.audit_log();
  ASSERT_GE(log.size(), 2u);
  EXPECT_EQ(log.back().identity, "vnf-7");
}

TEST_F(ControllerFixture, RevokedClientCannotResume) {
  ControllerConfig cfg = config(SecurityMode::kTrustedHttps);
  cfg.enable_session_tickets = true;
  Controller controller(cfg, fabric_);
  controller.trust_ca(ca_.root_certificate());
  const auto identity = make_client("vnf-8");

  tls::SessionTicket ticket;
  {
    auto [client_end, server_end] = net::make_pipe();
    server_threads_.emplace_back(
        [&controller, s = std::move(server_end)]() mutable {
          controller.serve(std::move(s));
        });
    tls::Config tls_config;
    tls_config.truststore = &truststore_;
    tls_config.clock = &clock_;
    tls_config.rng = &rng_;
    tls_config.certificate = identity.cert;
    tls_config.signer = tls::Config::software_signer(identity.seed);
    auto session = tls::Session::connect(std::move(client_end), tls_config);
    http::Client client(std::move(session));
    EXPECT_EQ(client.get("/wm/core/controller/summary/json").status, 200);
    ticket = *static_cast<tls::Session*>(&client.stream())->session_ticket();
    client.close();
  }

  // Revoke, push the CRL, then attempt resumption: the server must fall
  // back to a full handshake (where the revoked cert also fails).
  controller.update_crl(ca_.revoke(identity.cert.serial));
  {
    auto [client_end, server_end] = net::make_pipe();
    server_threads_.emplace_back(
        [&controller, s = std::move(server_end)]() mutable {
          controller.serve(std::move(s));
        });
    tls::Config tls_config;
    tls_config.truststore = &truststore_;
    tls_config.clock = &clock_;
    tls_config.rng = &rng_;
    tls_config.certificate = identity.cert;
    tls_config.signer = tls::Config::software_signer(identity.seed);
    tls_config.resumption = &ticket;
    bool locked_out = false;
    try {
      auto session = tls::Session::connect(std::move(client_end), tls_config);
      if (session->resumed()) {
        FAIL() << "revoked credential resumed!";
      }
      // Full-handshake fallback: rejection may surface on first exchange.
      http::Client client(std::move(session));
      client.get("/wm/core/controller/summary/json");
    } catch (const Error&) {
      locked_out = true;
    }
    EXPECT_TRUE(locked_out);
  }
  join_all();
}

}  // namespace
}  // namespace vnfsgx::controller

// ---------------------------------------------------------------------------
// Reactive forwarding (learning service).
// ---------------------------------------------------------------------------

namespace vnfsgx::controller {
namespace {

TEST(LearningServiceTest, LearnsAndInstallsFlows) {
  dataplane::Fabric fabric;
  auto& sw = fabric.add_switch(1);
  LearningService learning(fabric);

  // Host A (mac 0xA, port 1) talks to unknown host B: table miss, learn A.
  dataplane::Packet a_to_b;
  a_to_b.src_mac = 0xA;
  a_to_b.dst_mac = 0xB;
  EXPECT_EQ(sw.process(a_to_b, 1).kind,
            dataplane::ForwardingResult::Kind::kTableMiss);
  EXPECT_EQ(learning.process_packet_ins(), 0);  // B unknown: flood
  EXPECT_EQ(learning.mac_table(1).at(0xA), 1);

  // B replies from port 2: learn B and install a flow toward A.
  dataplane::Packet b_to_a;
  b_to_a.src_mac = 0xB;
  b_to_a.dst_mac = 0xA;
  EXPECT_EQ(sw.process(b_to_a, 2).kind,
            dataplane::ForwardingResult::Kind::kTableMiss);
  EXPECT_EQ(learning.process_packet_ins(), 1);
  EXPECT_EQ(learning.mac_table(1).at(0xB), 2);

  // The reply flow is now handled in the data plane.
  const auto result = sw.process(b_to_a, 2);
  EXPECT_EQ(result.kind, dataplane::ForwardingResult::Kind::kForwarded);
  EXPECT_EQ(result.out_port, 1);

  // A second A->B exchange triggers the A->B flow install too.
  sw.process(a_to_b, 1);
  EXPECT_EQ(learning.process_packet_ins(), 1);
  EXPECT_EQ(sw.process(a_to_b, 1).out_port, 2);
  EXPECT_EQ(learning.packet_ins_handled(), 3u);
}

TEST(LearningServiceTest, LearnedFlowsYieldToStaticFlows) {
  dataplane::Fabric fabric;
  auto& sw = fabric.add_switch(1);
  LearningService learning(fabric);

  // Learn both directions.
  dataplane::Packet a_to_b;
  a_to_b.src_mac = 0xA;
  a_to_b.dst_mac = 0xB;
  a_to_b.dst_port = 443;
  dataplane::Packet b_to_a;
  b_to_a.src_mac = 0xB;
  b_to_a.dst_mac = 0xA;
  sw.process(a_to_b, 1);
  sw.process(b_to_a, 2);
  learning.process_packet_ins();
  sw.process(a_to_b, 1);
  learning.process_packet_ins();
  ASSERT_EQ(sw.process(a_to_b, 1).kind,
            dataplane::ForwardingResult::Kind::kForwarded);

  // An operator (VNF) pushes a higher-priority drop: it wins.
  dataplane::FlowEntry block;
  block.name = "fw-block";
  block.priority = 200;
  block.match.dst_port = 443;
  block.action = dataplane::Action::drop();
  sw.add_flow(block);
  EXPECT_EQ(sw.process(a_to_b, 1).kind,
            dataplane::ForwardingResult::Kind::kDropped);
}

TEST(LearningServiceTest, EmptyQueuesNoop) {
  dataplane::Fabric fabric;
  fabric.add_switch(1);
  LearningService learning(fabric);
  EXPECT_EQ(learning.process_packet_ins(), 0);
  EXPECT_TRUE(learning.mac_table(1).empty());
  EXPECT_TRUE(learning.mac_table(99).empty());
}

}  // namespace
}  // namespace vnfsgx::controller

// ---------------------------------------------------------------------------
// Concurrency stress: many simultaneous authenticated connections.
// ---------------------------------------------------------------------------

namespace vnfsgx::controller {
namespace {

/// The fixture's DeterministicRandom is not thread-safe; the concurrency
/// test hands every handshake a crypto::LockedRandom view of it instead.
using crypto::LockedRandom;

TEST_F(ControllerFixture, ConcurrentTrustedClients) {
  LockedRandom locked_rng(rng_);
  ControllerConfig cfg = config(SecurityMode::kTrustedHttps);
  cfg.rng = &locked_rng;
  Controller controller(cfg, fabric_);
  controller.trust_ca(ca_.root_certificate());

  constexpr int kClients = 12;
  std::vector<ClientIdentity> identities;
  identities.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    identities.push_back(make_client("vnf-" + std::to_string(i)));
  }

  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    auto [client_end, server_end] = net::make_pipe();
    server_threads_.emplace_back(
        [&controller, s = std::move(server_end)]() mutable {
          controller.serve(std::move(s));
        });
    clients.emplace_back([this, &controller, &ok, &identities, &locked_rng, i,
                          c = std::move(client_end)]() mutable {
      (void)controller;
      tls::Config tls_config;
      tls_config.truststore = &truststore_;
      tls_config.expected_server_name = "controller";
      tls_config.clock = &clock_;
      tls_config.rng = &locked_rng;
      tls_config.certificate = identities[static_cast<std::size_t>(i)].cert;
      tls_config.signer = tls::Config::software_signer(
          identities[static_cast<std::size_t>(i)].seed);
      try {
        auto session = tls::Session::connect(std::move(c), tls_config);
        http::Client client(std::move(session));
        // Mix reads and writes to exercise fabric locking.
        if (client.get("/wm/core/controller/summary/json").status != 200) return;
        const auto push = client.post(
            "/wm/staticflowpusher/json",
            R"({"name":"c)" + std::to_string(i) +
                R"(","switch":1,"priority":50,"tcp_dst":)" +
                std::to_string(1000 + i) + R"(,"actions":"drop"})");
        if (push.status != 200) return;
        if (client.get("/wm/staticflowpusher/list/1/json").status != 200) return;
        ++ok;
        client.close();
      } catch (const Error&) {
      }
    });
  }
  for (auto& t : clients) t.join();
  join_all();
  EXPECT_EQ(ok.load(), kClients);
  EXPECT_EQ(fabric_.find_switch(1)->flows().size(),
            static_cast<std::size_t>(kClients));
  // Every client appears in the audit log under its own identity.
  std::set<std::string> identities_seen;
  for (const auto& record : controller.audit_log()) {
    identities_seen.insert(record.identity);
  }
  EXPECT_EQ(identities_seen.size(), static_cast<std::size_t>(kClients));
}

}  // namespace
}  // namespace vnfsgx::controller
