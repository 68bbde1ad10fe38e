// Shows that each output check the benchmark relies on rejects a wrong
// answer (and accepts the right one). Run: fig1bench_selftest, or
// `python3 perfbench/run.py --selftest`. Exit code 0 = every case held.
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "common/sim_clock.h"
#include "crypto/random.h"
#include "pki/ca.h"

namespace {

using namespace vnfsgx;
using namespace perfbench;

int failures = 0;

void expect_ok(const std::string& what, const std::string& error) {
  if (!error.empty()) {
    std::printf("FAIL %s: rejected a right answer (%s)\n", what.c_str(), error.c_str());
    ++failures;
  } else {
    std::printf("ok   %s\n", what.c_str());
  }
}

void expect_rejected(const std::string& what, const std::string& error) {
  if (error.empty()) {
    std::printf("FAIL %s: accepted a wrong answer\n", what.c_str());
    ++failures;
  } else {
    std::printf("ok   %s (%s)\n", what.c_str(), error.c_str());
  }
}

http::Response json_response(int status, const std::string& body) {
  return http::Response::json(status, body);
}

void credential_checks() {
  crypto::DeterministicRandom rng(7);
  SimClock clock(1'700'000'000);
  pki::CertificateAuthority ca({"verification-manager", "vnfsgx"}, rng, clock);
  pki::CertificateAuthority rogue({"verification-manager", "vnfsgx"}, rng, clock);
  const auto key = crypto::ed25519_generate(rng).public_key;
  const auto other_key = crypto::ed25519_generate(rng).public_key;
  const auto usage = static_cast<std::uint8_t>(pki::KeyUsage::kClientAuth);
  const pki::Certificate good = ca.issue({"vnf-0", "t"}, key, usage, 3600);
  const pki::Certificate root = ca.root_certificate();

  expect_ok("credential: issued by the VM CA for the enclave key",
            check_credential(good, root, key, 0, clock.now()));
  expect_rejected("credential: signed by another CA with the same name",
                  check_credential(rogue.issue({"vnf-0", "t"}, key, usage, 3600),
                                   root, key, 0, clock.now()));
  expect_rejected("credential: binds a key the enclave did not generate",
                  check_credential(ca.issue({"vnf-0", "t"}, other_key, usage, 3600),
                                   root, key, 0, clock.now()));
  expect_rejected("credential: serial not above the last one seen",
                  check_credential(good, root, key, good.serial, clock.now()));
  pki::Certificate tampered = good;
  tampered.serial += 1000;
  expect_rejected("credential: fields changed after signing",
                  check_credential(tampered, root, key, 0, clock.now()));
  expect_rejected("credential: expired",
                  check_credential(good, root, key, 0, clock.now() + 7200));
}

void rest_checks() {
  expect_ok("flow push: 200 Entry pushed",
            check_flow_push(json_response(200, R"({"status":"Entry pushed"})")));
  expect_rejected("flow push: 403",
                  check_flow_push(http::Response::error(403, "client authentication required")));
  expect_rejected("flow push: 200 with another status text",
                  check_flow_push(json_response(200, R"({"status":"Entry deleted"})")));

  const std::string summary =
      R"({"controller":"c","securityMode":"TRUSTED_HTTPS","numSwitches":4,)"
      R"("numLinks":0,"requestsServed":12})";
  expect_ok("summary: right shape", check_summary(json_response(200, summary), 4));
  expect_rejected("summary: wrong switch count",
                  check_summary(json_response(200, summary), 3));
  expect_rejected("summary: plain HTTPS mode",
                  check_summary(json_response(200, R"({"securityMode":"HTTPS",)"
                                                   R"("numSwitches":4,"requestsServed":1})"),
                                4));
  expect_rejected("summary: an array instead of an object",
                  check_summary(json_response(200, "[]"), 4));
  expect_rejected("summary: truncated body",
                  check_summary(json_response(200, summary.substr(0, 20)), 4));

  const std::string switches =
      R"([{"switchDPID":"00:01","flowCount":3},{"switchDPID":"00:02","flowCount":0}])";
  expect_ok("switches: right shape", check_switches(json_response(200, switches), 2));
  expect_rejected("switches: one switch missing",
                  check_switches(json_response(200, switches), 3));
  expect_rejected("switches: entry without flowCount",
                  check_switches(json_response(200, R"([{"switchDPID":"00:01"}])"), 1));

  const std::vector<std::string> expected{"a", "b"};
  const std::string list =
      R"([{"name":"b","priority":1},{"name":"x","priority":2},{"name":"a","priority":3}])";
  expect_ok("flow list: holds every pushed flow",
            check_flow_list(json_response(200, list), expected));
  expect_rejected("flow list: a pushed flow is missing",
                  check_flow_list(json_response(200, R"([{"name":"a","priority":1}])"),
                                  expected));
  expect_rejected("flow list: 404",
                  check_flow_list(http::Response::error(404, "unknown switch"), expected));

  dataplane::Switch sw(1);
  dataplane::FlowEntry entry;
  entry.name = "present";
  sw.add_flow(entry);
  expect_ok("flow installed: present", check_flow_installed(sw, "present"));
  expect_rejected("flow installed: absent", check_flow_installed(sw, "absent"));
}

void frame_checks() {
  using Kind = dataplane::ForwardingResult::Kind;
  dataplane::ForwardingResult clean;
  clean.kind = Kind::kForwarded;
  clean.out_port = 2;
  clean.inspected = true;
  const ExpectedFrame want_clean{.punted = true, .drop = false, .rule = "", .out_port = 2};
  expect_ok("frame: clean punted frame forwarded", check_frame(clean, want_clean));

  dataplane::ForwardingResult dropped;
  dropped.kind = Kind::kDropped;
  dropped.inspected = true;
  dropped.verdict = dataplane::InspectVerdict::kDrop;
  dropped.inspect_rule = "exploit-shell";
  const ExpectedFrame want_drop{.punted = true, .drop = true, .rule = "exploit-shell",
                                .out_port = 2};
  expect_ok("frame: attack frame dropped by its rule", check_frame(dropped, want_drop));
  expect_rejected("frame: oracle drops, switch forwards", check_frame(clean, want_drop));
  expect_rejected("frame: oracle forwards, switch drops", check_frame(dropped, want_clean));
  dataplane::ForwardingResult failed_closed = dropped;
  failed_closed.inspect_rule = "inspector-error: ring stopped";
  expect_rejected("frame: dropped for the wrong reason (fail-closed error)",
                  check_frame(failed_closed, want_drop));

  dataplane::ForwardingResult fast;
  fast.kind = Kind::kForwarded;
  fast.out_port = 3;
  const ExpectedFrame want_fast{.punted = false, .drop = false, .rule = "", .out_port = 3};
  expect_ok("frame: fast-path frame forwarded uninspected", check_frame(fast, want_fast));
  dataplane::ForwardingResult fast_inspected = fast;
  fast_inspected.inspected = true;
  expect_rejected("frame: fast-path frame was inspected",
                  check_frame(fast_inspected, want_fast));
  dataplane::ForwardingResult wrong_port = fast;
  wrong_port.out_port = 2;
  expect_rejected("frame: forwarded out the wrong port", check_frame(wrong_port, want_fast));
  expect_rejected("frame: punted frame not inspected", check_frame(fast, want_clean));
}

}  // namespace

int main() {
  credential_checks();
  rest_checks();
  frame_checks();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
