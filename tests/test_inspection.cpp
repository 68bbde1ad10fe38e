// In-enclave inspection NF tests: rule table encoding, the Aho-Corasick
// matcher (against a naive per-rule oracle, and its table bound), enclave
// verdicts + flow/verdict-cache state, sealed rule provisioning, and the
// dataplane punt path end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <numeric>
#include <random>

#include "crypto/random.h"
#include "dataplane/fabric.h"
#include "sgx/platform.h"
#include "vnf/inspection_enclave.h"

namespace vnfsgx::vnf {
namespace {

namespace dp = dataplane;
using crypto::DeterministicRandom;

InspectionRule make_rule(const std::string& name, const std::string& pattern,
                         RuleAction action = RuleAction::kDrop) {
  InspectionRule rule;
  rule.name = name;
  rule.pattern = to_bytes(pattern);
  rule.action = action;
  return rule;
}

RuleSet demo_rules() {
  RuleSet rules;
  rules.add(make_rule("exploit-shell", "/bin/sh", RuleAction::kDrop));
  rules.add(make_rule("telnet-probe", "admin admin", RuleAction::kAlert));
  InspectionRule web = make_rule("sqli-web", "' OR 1=1", RuleAction::kDrop);
  web.dst_port = 80;
  web.proto = 6;  // tcp
  rules.add(web);
  return rules;
}

dp::Packet make_packet(const std::string& payload, std::uint16_t dst_port = 80,
                       std::uint32_t src_ip = 0x0a000001) {
  dp::Packet p;
  p.src_ip = src_ip;
  p.dst_ip = 0x0a000064;
  p.src_port = 40000;
  p.dst_port = dst_port;
  p.proto = dp::IpProto::kTcp;
  p.payload = to_bytes(payload);
  return p;
}

class InspectionFixture : public ::testing::Test {
 protected:
  InspectionFixture() : rng_(31), vendor_(crypto::ed25519_generate(rng_)) {
    sgx::PlatformOptions options;
    options.crossing_cost = std::chrono::nanoseconds(0);
    platform_ = std::make_unique<sgx::SgxPlatform>(rng_, "ids-host", options);
  }

  std::shared_ptr<sgx::Enclave> load() {
    const sgx::EnclaveImage image = inspection_enclave_image();
    const sgx::SigStruct sig = sgx::sign_enclave(
        vendor_.seed, sgx::measure_image(image.code, image.attributes), 1, 1);
    return platform_->load_enclave(image, sig);
  }

  DeterministicRandom rng_;
  crypto::Ed25519KeyPair vendor_;
  std::unique_ptr<sgx::SgxPlatform> platform_;
};

// ---------------------------------------------------------------------------
// Rules and matcher (pure, no enclave)
// ---------------------------------------------------------------------------

TEST(InspectionRulesTest, EncodeDecodeRoundTrip) {
  const RuleSet rules = demo_rules();
  const RuleSet decoded = RuleSet::decode(rules.encode());
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded.rules()[0].name, "exploit-shell");
  EXPECT_EQ(decoded.rules()[0].pattern, to_bytes("/bin/sh"));
  EXPECT_EQ(decoded.rules()[0].action, RuleAction::kDrop);
  EXPECT_EQ(decoded.rules()[1].action, RuleAction::kAlert);
  EXPECT_EQ(decoded.rules()[2].dst_port, 80);
  EXPECT_EQ(decoded.rules()[2].proto, 6);
}

TEST(InspectionRulesTest, ValidatesOnAdd) {
  RuleSet rules;
  EXPECT_THROW(rules.add(make_rule("", "x")), Error);
  EXPECT_THROW(rules.add(InspectionRule{"no-pattern", {}, RuleAction::kDrop,
                                        0, 0}),
               Error);
  rules.add(make_rule("a", "one"));
  rules.add(make_rule("a", "two"));  // replaces by name
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules.rules()[0].pattern, to_bytes("two"));
}

TEST(InspectionRulesTest, MatcherFindsPatternsAnywhere) {
  const RuleSet rules = demo_rules();
  const RuleMatcher matcher(rules);
  EXPECT_FALSE(matcher.match(to_bytes("GET /index.html"), 80, 6).has_value());
  const auto hit = matcher.match(to_bytes("run /bin/sh now"), 443, 6);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(rules.rules()[*hit].name, "exploit-shell");
}

TEST(InspectionRulesTest, MatcherHonorsHeaderConstraints) {
  const RuleSet rules = demo_rules();
  const RuleMatcher matcher(rules);
  // sqli-web is constrained to tcp/80.
  EXPECT_TRUE(matcher.match(to_bytes("q=' OR 1=1--"), 80, 6).has_value());
  EXPECT_FALSE(matcher.match(to_bytes("q=' OR 1=1--"), 8080, 6).has_value());
  EXPECT_FALSE(matcher.match(to_bytes("q=' OR 1=1--"), 80, 17).has_value());
}

TEST(InspectionRulesTest, DropOutranksAlert) {
  RuleSet rules;
  rules.add(make_rule("noisy-alert", "attack", RuleAction::kAlert));
  rules.add(make_rule("hard-drop", "attack-now", RuleAction::kDrop));
  const RuleMatcher matcher(rules);
  // Both patterns hit; the drop rule must win even though it was added
  // later and matches later in the payload.
  const auto hit = matcher.match(to_bytes("xx attack-now xx"), 0, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(rules.rules()[*hit].name, "hard-drop");
}

TEST(InspectionRulesTest, OverlappingPatternsAllDetected) {
  RuleSet rules;
  rules.add(make_rule("he", "he", RuleAction::kAlert));
  rules.add(make_rule("she", "she", RuleAction::kAlert));
  rules.add(make_rule("hers", "hers", RuleAction::kDrop));
  const RuleMatcher matcher(rules);
  const auto hit = matcher.match(to_bytes("ushers"), 0, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(rules.rules()[*hit].name, "hers");  // drop wins over the alerts
  const auto she = matcher.match(to_bytes("ushe"), 0, 0);
  ASSERT_TRUE(she.has_value());
  EXPECT_EQ(rules.rules()[*she].name, "he");  // earliest rule among alerts
}

/// Independent oracle: each rule searched on its own with std::search, then
/// the same header constraints and priority as the matcher. Scanning rules
/// in order, the first drop rule wins, else the first alert rule.
std::optional<std::size_t> naive_match(const RuleSet& rules, ByteView payload,
                                        std::uint16_t dst_port,
                                        std::uint8_t proto) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const InspectionRule& rule = rules.rules()[i];
    if (rule.dst_port != 0 && rule.dst_port != dst_port) continue;
    if (rule.proto != 0 && rule.proto != proto) continue;
    if (std::search(payload.begin(), payload.end(), rule.pattern.begin(),
                    rule.pattern.end()) == payload.end()) {
      continue;
    }
    if (!best || (rule.action == RuleAction::kDrop &&
                  rules.rules()[*best].action != RuleAction::kDrop)) {
      best = i;
    }
  }
  return best;
}

/// Uniform-enough draw in [0, n) for the seeded generators below.
std::size_t pick(std::mt19937& gen, std::size_t n) { return gen() % n; }

/// A seeded rule set over a small alphabet, so patterns overlap densely and
/// are often prefixes, suffixes or duplicates of each other. Some sets add
/// one pattern holding all 256 byte values, so no byte is left unused.
RuleSet random_rules(std::mt19937& gen, const Bytes& alphabet) {
  RuleSet rules;
  std::vector<Bytes> patterns;
  bool wide = false;
  const std::size_t count = 1 + pick(gen, 10);
  for (std::size_t i = 0; i < count; ++i) {
    Bytes pattern;
    if (!patterns.empty() && pick(gen, 2) == 0) {
      const Bytes& base = patterns[pick(gen, patterns.size())];
      const auto cut = static_cast<std::ptrdiff_t>(1 + pick(gen, base.size()));
      switch (pick(gen, 4)) {
        case 0:  // prefix
          pattern.assign(base.begin(), base.begin() + cut);
          break;
        case 1:  // suffix
          pattern.assign(base.end() - cut, base.end());
          break;
        case 2:  // extension
          pattern = base;
          pattern.push_back(alphabet[pick(gen, alphabet.size())]);
          break;
        default:  // duplicate: drop/alert and earliest-rule ties
          pattern = base;
      }
    } else if (!wide && pick(gen, 16) == 0) {
      wide = true;  // one per set, never a base: it keeps the table small
      pattern.resize(256);
      std::iota(pattern.begin(), pattern.end(), std::uint8_t{0});
      std::shuffle(pattern.begin(), pattern.end(), gen);
    } else {
      pattern.resize(1 + pick(gen, 5));
      for (auto& b : pattern) b = alphabet[pick(gen, alphabet.size())];
    }
    if (pattern.size() < 256) patterns.push_back(pattern);
    InspectionRule rule;
    rule.name = "r" + std::to_string(i);
    rule.pattern = std::move(pattern);
    rule.action = pick(gen, 2) == 0 ? RuleAction::kDrop : RuleAction::kAlert;
    rule.dst_port = std::array<std::uint16_t, 3>{0, 80, 443}[pick(gen, 3)];
    rule.proto = std::array<std::uint8_t, 3>{0, 6, 17}[pick(gen, 3)];
    rules.add(std::move(rule));
  }
  return rules;
}

/// A seeded payload: empty, alphabet noise, or all 256 byte values, often
/// with a rule pattern planted (sometimes ending on the last byte).
Bytes random_payload(std::mt19937& gen, const Bytes& alphabet,
                     const RuleSet& rules) {
  Bytes payload;
  switch (pick(gen, 8)) {
    case 0:
      return payload;
    case 1:
      payload.resize(256);
      std::iota(payload.begin(), payload.end(), std::uint8_t{0});
      std::shuffle(payload.begin(), payload.end(), gen);
      break;
    default:
      payload.resize(pick(gen, 48));
      for (auto& b : payload) b = alphabet[pick(gen, alphabet.size())];
  }
  if (pick(gen, 2) == 0) {
    const Bytes& pattern = rules.rules()[pick(gen, rules.size())].pattern;
    const std::size_t at = pick(gen, payload.size() + 1);
    payload.insert(payload.begin() + static_cast<std::ptrdiff_t>(at),
                   pattern.begin(), pattern.end());
    if (pick(gen, 2) == 0) append(payload, pattern);  // ends on the last byte
  }
  return payload;
}

TEST(InspectionRulesTest, MatcherAgreesWithNaiveOracle) {
  std::mt19937 gen(20170821);
  std::size_t cases = 0, hits = 0;
  for (int set = 0; set < 400; ++set) {
    // 2-4 symbols; some sets draw 0x00/0xff so the edge bytes get classes.
    Bytes alphabet;
    const std::size_t symbols = 2 + pick(gen, 3);
    for (std::size_t i = 0; i < symbols; ++i) {
      alphabet.push_back(static_cast<std::uint8_t>(
          set % 4 == 0 ? (i == 0 ? 0x00u : 0x100u - i) : 'a' + i));
    }
    const RuleSet rules = random_rules(gen, alphabet);
    const RuleMatcher matcher(rules);
    for (int p = 0; p < 40; ++p) {
      const Bytes payload = random_payload(gen, alphabet, rules);
      const std::uint16_t dst_port =
          std::array<std::uint16_t, 3>{80, 443, 8080}[pick(gen, 3)];
      const std::uint8_t proto = pick(gen, 2) == 0 ? 6 : 17;
      const auto expected = naive_match(rules, payload, dst_port, proto);
      ASSERT_EQ(matcher.match(payload, dst_port, proto), expected)
          << "set " << set << " payload " << p << " of " << payload.size()
          << " bytes";
      ++cases;
      hits += expected.has_value();
    }
  }
  // The generator must exercise both outcomes, not just one.
  EXPECT_GT(hits, cases / 10);
  EXPECT_LT(hits, cases * 9 / 10);
}

TEST(InspectionRulesTest, MatcherEdgeCases) {
  RuleSet rules;
  rules.add(make_rule("tail-alert", "xyz", RuleAction::kAlert));
  rules.add(make_rule("tail-drop", "xyz", RuleAction::kDrop));
  rules.add(make_rule("tail-drop-2", "yz", RuleAction::kDrop));
  InspectionRule nul = make_rule("nul", "", RuleAction::kAlert);
  nul.pattern = Bytes{0x00, 0xff};
  rules.add(nul);
  const RuleMatcher matcher(rules);
  EXPECT_FALSE(matcher.match({}, 80, 6).has_value());
  // Ends on the last byte; same pattern, drop beats the earlier alert, and
  // the earlier of two drops wins.
  EXPECT_EQ(matcher.match(to_bytes("..xyz"), 80, 6), 1u);
  EXPECT_EQ(matcher.match(to_bytes("yz"), 80, 6), 2u);
  EXPECT_EQ(matcher.match(Bytes{'a', 0x00, 0xff}, 80, 6), 3u);
  EXPECT_FALSE(matcher.match(Bytes{0xff, 0x00}, 80, 6).has_value());
}

TEST(InspectionRulesTest, MatcherTableIsStatesTimesClasses) {
  // demo_rules: 26 distinct pattern prefixes + the root = 27 states; 15
  // distinct pattern bytes + the shared class 0 = 16 classes.
  const RuleMatcher matcher(demo_rules());
  EXPECT_EQ(matcher.table_bytes(), 27u * 16u * sizeof(std::uint32_t));
}

/// Patterns over all 256 byte values make 256 classes, so every state
/// costs 1 KiB and kMaxTableBytes holds exactly 1024 states: the root plus
/// four patterns with distinct first bytes and 1023 + `extra` bytes in all.
RuleSet table_bound_rules(std::size_t extra) {
  RuleSet rules;
  InspectionRule all_bytes = make_rule("all-bytes", "");
  all_bytes.pattern.resize(256);
  std::iota(all_bytes.pattern.begin(), all_bytes.pattern.end(),
            std::uint8_t{0});
  rules.add(all_bytes);
  for (std::uint8_t lead = 1; lead <= 3; ++lead) {
    InspectionRule run = make_rule("run-" + std::to_string(lead), "");
    run.pattern.assign(lead == 3 ? 255 + extra : 256, lead);
    rules.add(run);
  }
  return rules;
}

TEST(InspectionRulesTest, MatcherTableBound) {
  static_assert(RuleMatcher::kMaxTableBytes == 1024 * 256 * 4);
  const RuleSet at_bound = table_bound_rules(0);
  const RuleMatcher matcher(at_bound);
  EXPECT_EQ(matcher.table_bytes(), RuleMatcher::kMaxTableBytes);
  Bytes payload(255, 3);
  EXPECT_EQ(matcher.match(payload, 0, 0), 3u);
  payload.pop_back();
  EXPECT_FALSE(matcher.match(payload, 0, 0).has_value());

  EXPECT_THROW(RuleMatcher{table_bound_rules(1)}, Error);
}

// ---------------------------------------------------------------------------
// Enclave verdicts + flow state
// ---------------------------------------------------------------------------

TEST_F(InspectionFixture, VerdictsFromTheEnclave) {
  InspectionClient client(load());
  client.load_rules(demo_rules());

  const auto clean = client.inspect(make_packet("GET / HTTP/1.1"), 1);
  EXPECT_EQ(clean.verdict, dp::InspectVerdict::kForward);
  EXPECT_TRUE(clean.rule.empty());

  const auto dropped = client.inspect(make_packet("exec /bin/sh -c id"), 1);
  EXPECT_EQ(dropped.verdict, dp::InspectVerdict::kDrop);
  EXPECT_EQ(dropped.rule, "exploit-shell");

  const auto alerted =
      client.inspect(make_packet("login: admin admin", 23, 0x0a000002), 1);
  EXPECT_EQ(alerted.verdict, dp::InspectVerdict::kAlert);
  EXPECT_EQ(alerted.rule, "telnet-probe");

  const InspectionStats stats = client.flow_stats();
  EXPECT_EQ(stats.inspected, 3u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.alerted, 1u);
  // The first two packets share a 5-tuple; the telnet probe differs.
  EXPECT_EQ(stats.flows, 2u);
}

TEST_F(InspectionFixture, DropVerdictIsStickyPerFlow) {
  InspectionClient client(load());
  client.load_rules(demo_rules());

  // First packet of the flow matches and poisons it.
  const auto first = client.inspect(make_packet("run /bin/sh"), 1);
  EXPECT_EQ(first.verdict, dp::InspectVerdict::kDrop);
  // Second packet of the SAME flow is clean but still dropped, from cache.
  const auto second = client.inspect(make_packet("totally harmless"), 1);
  EXPECT_EQ(second.verdict, dp::InspectVerdict::kDrop);
  EXPECT_EQ(second.rule, "exploit-shell");
  // A different flow with the same clean payload sails through.
  const auto other =
      client.inspect(make_packet("totally harmless", 80, 0x0a0000ff), 1);
  EXPECT_EQ(other.verdict, dp::InspectVerdict::kForward);

  const InspectionStats stats = client.flow_stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.dropped, 2u);

  client.reset_flows();
  const InspectionStats cleared = client.flow_stats();
  EXPECT_EQ(cleared.flows, 0u);
  // Rules survive a flow reset: the poisoned flow is re-matched fresh.
  EXPECT_EQ(client.inspect(make_packet("totally harmless"), 1).verdict,
            dp::InspectVerdict::kForward);
}

TEST_F(InspectionFixture, InspectionRequiresRules) {
  InspectionClient client(load());
  EXPECT_THROW(client.inspect(make_packet("anything"), 1), Error);
  RuleSet empty;
  EXPECT_THROW(client.load_rules(empty), Error);  // refuse fail-open tables
}

TEST_F(InspectionFixture, OverBoundRuleSetKeepsTheOldMatcher) {
  InspectionClient client(load());
  client.load_rules(demo_rules());
  // The over-bound table is refused inside the enclave before it is built;
  // the installed rules keep enforcing.
  EXPECT_THROW(client.load_rules(table_bound_rules(1)), Error);
  EXPECT_EQ(client.inspect(make_packet("run /bin/sh"), 1).verdict,
            dp::InspectVerdict::kDrop);
  client.load_rules(table_bound_rules(0));
  EXPECT_EQ(client.inspect(make_packet("run /bin/sh", 80, 0x0a000002), 1)
                .verdict,
            dp::InspectVerdict::kForward);
}

TEST_F(InspectionFixture, SealedRuleProvisioning) {
  auto enclave = load();
  Bytes sealed;
  {
    InspectionClient client(enclave);
    client.load_rules(demo_rules());
    sealed = client.seal_rules();
  }
  // A fresh enclave with the same measurement unseals and enforces them.
  InspectionClient restored(load());
  restored.restore_rules(sealed);
  EXPECT_EQ(restored.inspect(make_packet("run /bin/sh"), 1).verdict,
            dp::InspectVerdict::kDrop);

  // A tampered blob is rejected wholesale.
  Bytes tampered = sealed;
  tampered.back() ^= 1;
  InspectionClient victim(load());
  EXPECT_THROW(victim.restore_rules(tampered), SecurityViolation);
  // ... and the victim still refuses to inspect (no rules installed).
  EXPECT_THROW(victim.inspect(make_packet("x"), 1), Error);
}

TEST_F(InspectionFixture, BurstModesAgree) {
  auto enclave = load();
  std::vector<dp::Packet> burst;
  for (int i = 0; i < 24; ++i) {
    burst.push_back(make_packet(i % 3 == 1 ? "payload /bin/sh inside"
                                           : "clean payload " +
                                                 std::to_string(i),
                                80, 0x0a000100 + i));
  }

  InspectionClient sync_client(enclave, InspectionClient::Mode::kSync);
  sync_client.load_rules(demo_rules());
  const auto sync_out = sync_client.inspect_burst(burst, 1);

  const sgx::EcallStats before = enclave->ecall_stats();
  InspectionClient batched(enclave, InspectionClient::Mode::kBatched);
  batched.reset_flows();
  const auto batched_out = batched.inspect_burst(burst, 1);
  const sgx::EcallStats after = enclave->ecall_stats();
  // 24 frames, 1 reset, 1 crossing for the whole inspection batch.
  EXPECT_EQ(after.crossings - before.crossings, 2u);

  InspectionClient switchless(enclave, InspectionClient::Mode::kSwitchless);
  switchless.reset_flows();
  const auto switchless_out = switchless.inspect_burst(burst, 1);

  ASSERT_EQ(sync_out.size(), burst.size());
  ASSERT_EQ(batched_out.size(), burst.size());
  ASSERT_EQ(switchless_out.size(), burst.size());
  for (std::size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(sync_out[i].verdict, batched_out[i].verdict) << i;
    EXPECT_EQ(sync_out[i].verdict, switchless_out[i].verdict) << i;
    const auto expected = i % 3 == 1 ? dp::InspectVerdict::kDrop
                                     : dp::InspectVerdict::kForward;
    EXPECT_EQ(sync_out[i].verdict, expected) << i;
  }
  EXPECT_GT(enclave->ecall_stats().switchless_jobs, 0u);
}

TEST_F(InspectionFixture, SwitchlessFailedBurstsDoNotLeakRingSlots) {
  InspectionClient client(load(), InspectionClient::Mode::kSwitchless);
  std::vector<dp::Packet> burst;
  for (int i = 0; i < 96; ++i) {
    burst.push_back(
        make_packet("frame " + std::to_string(i), 80, 0x0a000200 + i));
  }
  // No rules are loaded, so every in-enclave inspect job fails and every
  // wait() rethrows. A burst that abandons its in-flight tickets on the
  // first error pins their ring slots forever (kDone, never collected);
  // with a 128-slot ring and 64-frame windows, the third such burst
  // deadlocks in submit backpressure. Four rounds cross that threshold
  // with margin — this test hangs if the error path stops draining.
  for (int round = 0; round < 4; ++round) {
    EXPECT_THROW(client.inspect_burst(burst, 1), Error);
  }
  // The ring is still fully usable: provision rules and inspect cleanly.
  client.load_rules(demo_rules());
  const auto outcomes = client.inspect_burst(burst, 1);
  ASSERT_EQ(outcomes.size(), burst.size());
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.verdict, dp::InspectVerdict::kForward);
  }
}

// ---------------------------------------------------------------------------
// Dataplane punt path
// ---------------------------------------------------------------------------

TEST_F(InspectionFixture, SwitchFailsClosedWithoutInspector) {
  dp::Switch sw(1);
  dp::FlowEntry punt;
  punt.name = "punt";
  punt.action = dp::Action::inspect(2);
  sw.add_flow(punt);

  const auto result = sw.process(make_packet("anything"), 1);
  EXPECT_EQ(result.kind, dp::ForwardingResult::Kind::kDropped);
  EXPECT_TRUE(result.inspected);
  EXPECT_EQ(result.verdict, dp::InspectVerdict::kDrop);
  EXPECT_EQ(result.inspect_rule, "no-inspector");
}

TEST_F(InspectionFixture, SwitchFailsClosedOnInspectorError) {
  InspectionClient client(load());  // no rules loaded: inspect() throws
  dp::Switch sw(1);
  sw.set_inspector(client.as_inspector());
  dp::FlowEntry punt;
  punt.name = "punt";
  punt.action = dp::Action::inspect(2);
  sw.add_flow(punt);

  const auto result = sw.process(make_packet("anything"), 1);
  EXPECT_EQ(result.kind, dp::ForwardingResult::Kind::kDropped);
  EXPECT_NE(result.inspect_rule.find("inspector-error"), std::string::npos);
}

TEST_F(InspectionFixture, PuntPathThroughFabric) {
  InspectionClient client(load());
  client.load_rules(demo_rules());

  dp::Fabric fabric;
  auto& edge = fabric.add_switch(1);
  auto& core = fabric.add_switch(2);
  fabric.link({1, 2}, {2, 1});
  edge.set_inspector(client.as_inspector());

  dp::FlowEntry punt;
  punt.name = "inspect-then-core";
  punt.action = dp::Action::inspect(2);
  edge.add_flow(punt);
  dp::FlowEntry egress;
  egress.name = "egress";
  egress.action = dp::Action::forward(9);  // unlinked: leaves the fabric
  core.add_flow(egress);

  // Clean traffic traverses the enclave-inspected hop and is delivered.
  const auto clean = fabric.inject(1, 7, make_packet("GET / HTTP/1.1"));
  EXPECT_EQ(clean.outcome, dp::PathOutcome::kDelivered);
  ASSERT_EQ(clean.hops.size(), 2u);
  EXPECT_TRUE(clean.hops[0].result.inspected);
  EXPECT_EQ(clean.hops[0].result.verdict, dp::InspectVerdict::kForward);

  // Malicious traffic dies at the inspected hop.
  const auto bad = fabric.inject(1, 7, make_packet("run /bin/sh now"));
  EXPECT_EQ(bad.outcome, dp::PathOutcome::kDropped);
  ASSERT_EQ(bad.hops.size(), 1u);
  EXPECT_EQ(bad.hops[0].result.inspect_rule, "exploit-shell");

  // Alert traffic is delivered AND surfaces a packet-in at the edge.
  const std::size_t before = edge.packet_in_queue().size();
  const auto alert = fabric.inject(
      1, 7, make_packet("login: admin admin", 23, 0x0a000005));
  EXPECT_EQ(alert.outcome, dp::PathOutcome::kDelivered);
  EXPECT_EQ(alert.hops[0].result.verdict, dp::InspectVerdict::kAlert);
  EXPECT_EQ(edge.packet_in_queue().size(), before + 1);
}

TEST_F(InspectionFixture, SwitchlessInspectorOnThePuntPath) {
  InspectionClient client(load(), InspectionClient::Mode::kSwitchless);
  client.load_rules(demo_rules());

  dp::Switch sw(1);
  sw.set_inspector(client.as_inspector());
  dp::FlowEntry punt;
  punt.name = "punt";
  punt.action = dp::Action::inspect(4);
  sw.add_flow(punt);

  const auto clean = sw.process(make_packet("hello"), 1);
  EXPECT_EQ(clean.kind, dp::ForwardingResult::Kind::kForwarded);
  EXPECT_EQ(clean.out_port, 4);
  const auto bad = sw.process(make_packet("run /bin/sh", 80, 0x0a000009), 1);
  EXPECT_EQ(bad.kind, dp::ForwardingResult::Kind::kDropped);
  EXPECT_EQ(bad.inspect_rule, "exploit-shell");
}

// ---------------------------------------------------------------------------
// Zero-copy switchless path (FrameDescriptor codec + RingGroup)
// ---------------------------------------------------------------------------

TEST_F(InspectionFixture, SwitchlessCodecsAgree) {
  auto enclave = load();
  std::vector<dp::Packet> burst;
  for (int i = 0; i < 24; ++i) {
    // Verdicts depend only on the payload, never on inspection order, so
    // multi-ring striping cannot change the expected outcome.
    burst.push_back(make_packet(i % 3 == 1 ? "payload /bin/sh inside"
                                           : "clean payload " +
                                                 std::to_string(i),
                                80, 0x0a000300 + i));
  }

  InspectionClient sync_client(enclave, InspectionClient::Mode::kSync);
  sync_client.load_rules(demo_rules());
  const auto sync_out = sync_client.inspect_burst(burst, 1);

  InspectionClient::Options tlv_options;
  tlv_options.mode = InspectionClient::Mode::kSwitchless;
  tlv_options.codec = InspectionClient::Codec::kTlv;
  InspectionClient tlv(enclave, tlv_options);
  tlv.reset_flows();
  const auto tlv_out = tlv.inspect_burst(burst, 1);

  InspectionClient::Options zc_options;
  zc_options.mode = InspectionClient::Mode::kSwitchless;
  zc_options.codec = InspectionClient::Codec::kZeroCopy;
  zc_options.rings = 2;
  InspectionClient zc(enclave, zc_options);
  ASSERT_EQ(zc.rings(), 2u);
  zc.reset_flows();
  const auto zc_out = zc.inspect_burst(burst, 1);

  ASSERT_EQ(tlv_out.size(), burst.size());
  ASSERT_EQ(zc_out.size(), burst.size());
  for (std::size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(sync_out[i].verdict, tlv_out[i].verdict) << i;
    EXPECT_EQ(sync_out[i].verdict, zc_out[i].verdict) << i;
    EXPECT_EQ(sync_out[i].rule, zc_out[i].rule) << i;
  }
}

TEST_F(InspectionFixture, StickyDropConsistentAcrossRings) {
  auto enclave = load();
  InspectionClient::Options options;
  options.mode = InspectionClient::Mode::kSwitchless;
  options.rings = 2;
  InspectionClient client(enclave, options);
  client.load_rules(demo_rules());

  // Poison the flow, then stripe clean same-flow frames across both rings:
  // both resident workers must see the poisoned entry (the flow shards are
  // shared enclave state, not per-ring state).
  EXPECT_EQ(client.inspect(make_packet("run /bin/sh"), 1).verdict,
            dp::InspectVerdict::kDrop);
  std::vector<dp::Packet> burst(8, make_packet("totally harmless"));
  const auto outcomes = client.inspect_burst(burst, 1);
  ASSERT_EQ(outcomes.size(), burst.size());
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.verdict, dp::InspectVerdict::kDrop);
    EXPECT_EQ(outcome.rule, "exploit-shell");
  }
  EXPECT_GE(client.flow_stats().cache_hits, 8u);
}

TEST_F(InspectionFixture, OversizedFrameFailsClosed) {
  auto enclave = load();
  InspectionClient client(enclave, InspectionClient::Mode::kSwitchless);
  ASSERT_EQ(client.codec(), InspectionClient::Codec::kZeroCopy);
  client.load_rules(demo_rules());

  // One byte past the inline-descriptor limit: rejected at the untrusted
  // gate before any slot is claimed.
  const std::string big(kMaxInlineFramePayload + 1, 'x');
  EXPECT_THROW(client.inspect(make_packet(big, 80, 0x0a00aa01), 1), Error);

  // Through the switch the same rejection fails closed, never open.
  dp::Switch sw(1);
  sw.set_inspector(client.as_inspector());
  dp::FlowEntry punt;
  punt.name = "punt";
  punt.action = dp::Action::inspect(4);
  sw.add_flow(punt);
  const auto result = sw.process(make_packet(big, 80, 0x0a00aa02), 1);
  EXPECT_EQ(result.kind, dp::ForwardingResult::Kind::kDropped);
  EXPECT_NE(result.inspect_rule.find("inspector-error"), std::string::npos);

  // The limit itself is inclusive and the ring was not damaged.
  const std::string max(kMaxInlineFramePayload, 'x');
  EXPECT_EQ(client.inspect(make_packet(max, 80, 0x0a00aa03), 1).verdict,
            dp::InspectVerdict::kForward);
}

// ---------------------------------------------------------------------------
// Dataplane burst punt path
// ---------------------------------------------------------------------------

TEST_F(InspectionFixture, ProcessBurstPuntsOncePerBurst) {
  auto enclave = load();
  InspectionClient::Options options;
  options.mode = InspectionClient::Mode::kSwitchless;
  options.rings = 2;
  options.ring_capacity = 16;
  InspectionClient client(enclave, options);
  client.load_rules(demo_rules());

  dp::Switch sw(1);
  sw.set_inspector(client.as_inspector());
  sw.set_burst_inspector(client.as_burst_inspector());
  ASSERT_TRUE(sw.has_burst_inspector());
  dp::FlowEntry punt;
  punt.name = "punt";
  punt.action = dp::Action::inspect(4);
  sw.add_flow(punt);

  std::vector<dp::Packet> burst;
  for (int i = 0; i < 12; ++i) {
    switch (i % 3) {
      case 0:
        burst.push_back(make_packet("clean " + std::to_string(i), 80,
                                    0x0a000400 + i));
        break;
      case 1:
        burst.push_back(make_packet("run /bin/sh", 80, 0x0a000400 + i));
        break;
      default:
        burst.push_back(
            make_packet("login: admin admin", 23, 0x0a000400 + i));
    }
  }

  const std::size_t alerts_before = sw.packet_in_queue().size();
  const auto results = sw.process_burst(burst, 1);
  ASSERT_EQ(results.size(), burst.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    switch (i % 3) {
      case 0:
        EXPECT_EQ(results[i].kind, dp::ForwardingResult::Kind::kForwarded)
            << i;
        EXPECT_EQ(results[i].out_port, 4) << i;
        EXPECT_EQ(results[i].verdict, dp::InspectVerdict::kForward) << i;
        break;
      case 1:
        EXPECT_EQ(results[i].kind, dp::ForwardingResult::Kind::kDropped) << i;
        EXPECT_EQ(results[i].inspect_rule, "exploit-shell") << i;
        break;
      default:
        EXPECT_EQ(results[i].kind, dp::ForwardingResult::Kind::kForwarded)
            << i;
        EXPECT_EQ(results[i].verdict, dp::InspectVerdict::kAlert) << i;
        EXPECT_EQ(results[i].inspect_rule, "telnet-probe") << i;
    }
    EXPECT_TRUE(results[i].inspected) << i;
  }
  // Every alert verdict surfaced a packet-in, exactly as process() does.
  EXPECT_EQ(sw.packet_in_queue().size(), alerts_before + 4);
}

TEST_F(InspectionFixture, ProcessBurstFallsBackToPerPacketInspector) {
  InspectionClient client(load());
  client.load_rules(demo_rules());

  dp::Switch sw(1);
  sw.set_inspector(client.as_inspector());  // no burst inspector bound
  ASSERT_FALSE(sw.has_burst_inspector());
  dp::FlowEntry punt;
  punt.name = "punt";
  punt.action = dp::Action::inspect(4);
  sw.add_flow(punt);

  std::vector<dp::Packet> burst;
  burst.push_back(make_packet("clean", 80, 0x0a000500));
  burst.push_back(make_packet("run /bin/sh", 80, 0x0a000501));
  const auto results = sw.process_burst(burst, 1);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].kind, dp::ForwardingResult::Kind::kForwarded);
  EXPECT_EQ(results[1].kind, dp::ForwardingResult::Kind::kDropped);
  EXPECT_EQ(results[1].inspect_rule, "exploit-shell");
}

TEST_F(InspectionFixture, ProcessBurstFailsClosedAsAUnit) {
  // No rules loaded: the burst inspector throws, and EVERY punted frame in
  // the burst must drop — a partial result would forward frames that were
  // never inspected.
  auto enclave = load();
  InspectionClient client(enclave, InspectionClient::Mode::kSwitchless);

  dp::Switch sw(1);
  sw.set_burst_inspector(client.as_burst_inspector());
  dp::FlowEntry punt;
  punt.name = "punt";
  punt.action = dp::Action::inspect(4);
  sw.add_flow(punt);

  std::vector<dp::Packet> burst;
  for (int i = 0; i < 6; ++i) {
    burst.push_back(make_packet("frame " + std::to_string(i), 80,
                                0x0a000600 + i));
  }
  const auto results = sw.process_burst(burst, 1);
  ASSERT_EQ(results.size(), burst.size());
  for (const auto& result : results) {
    EXPECT_EQ(result.kind, dp::ForwardingResult::Kind::kDropped);
    EXPECT_NE(result.inspect_rule.find("inspector-error"), std::string::npos);
  }

  // Recovery: provision rules and the same switch forwards clean traffic.
  client.load_rules(demo_rules());
  const auto after = sw.process_burst(burst, 1);
  for (const auto& result : after) {
    EXPECT_EQ(result.kind, dp::ForwardingResult::Kind::kForwarded);
  }
}

}  // namespace
}  // namespace vnfsgx::vnf
