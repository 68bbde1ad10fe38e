// inspect-64 / inspect-imix: one generator thread sends 64-frame bursts
// through dataplane::Switch::process_burst. Three of the four destination
// ports are kInspect flows, punted to the in-enclave IDS over a switchless
// zero-copy InspectionClient with 2 rings; the fourth is a plain forward
// (the fast path). 4,096 flows; every 16th flow is an attack flow that
// always carries a drop-rule signature and is poisoned during warm-up, so
// the enclave's sticky-drop cache keeps one size for the whole timed phase.
#include <random>

#include "checks.h"
#include "crypto/random.h"
#include "sgx/platform.h"
#include "vnf/inspection_enclave.h"
#include "workloads.h"

namespace perfbench {

using namespace vnfsgx;

namespace {

constexpr std::size_t kFlows = 4096;
constexpr std::size_t kAttackEvery = 16;
constexpr std::size_t kBurst = 64;
constexpr std::size_t kPoolBursts = 512;
constexpr std::size_t kWarmupPoolBursts = 64;
constexpr std::uint16_t kInspectOutPort = 2;
constexpr std::uint16_t kFastOutPort = 3;
constexpr std::uint16_t kFastPort = 9000;
constexpr std::uint16_t kPorts[4] = {80, 443, 8080, kFastPort};
constexpr const char* kAttackRule = "exploit-shell";
constexpr const char* kAttackSignature = "/bin/sh -c";

vnf::RuleSet rules() {
  vnf::RuleSet set;
  auto add = [&set](const char* name, const char* pattern, vnf::RuleAction action) {
    vnf::InspectionRule rule;
    rule.name = name;
    rule.pattern = to_bytes(pattern);
    rule.action = action;
    set.add(std::move(rule));
  };
  add(kAttackRule, kAttackSignature, vnf::RuleAction::kDrop);
  add("dns-tunnel", "\x07tunnel\x03", vnf::RuleAction::kDrop);
  add("sql-union", "UNION SELECT", vnf::RuleAction::kDrop);
  add("path-traversal", "../../etc/passwd", vnf::RuleAction::kDrop);
  add("telnet-probe", "admin admin", vnf::RuleAction::kAlert);
  add("beacon", "GET /gate.php", vnf::RuleAction::kAlert);
  add("miner", "stratum+tcp://", vnf::RuleAction::kAlert);
  add("log4j", "${jndi:", vnf::RuleAction::kDrop);
  return set;
}

dataplane::Packet flow_frame(std::size_t flow, std::size_t payload,
                             std::mt19937_64& gen) {
  dataplane::Packet p;
  p.src_ip = 0x0a000000u | static_cast<std::uint32_t>(flow);
  p.dst_ip = 0x0a640001u;
  p.src_port = static_cast<std::uint16_t>(20000 + flow);
  p.dst_port = kPorts[flow % 4];
  p.proto = dataplane::IpProto::kTcp;
  p.payload.resize(payload);
  // Bytes below 0x40: no rule pattern (each holds a letter) can occur by
  // chance, so only attack frames hit, yet '/', ' ', '-', '.' and digits
  // still walk the automaton past its root.
  for (auto& b : p.payload) b = static_cast<std::uint8_t>(gen() & 0x3f);
  if (flow % kAttackEvery == 0) {
    const std::string sig = kAttackSignature;
    const std::size_t at = gen() % (payload - sig.size() + 1);
    std::copy(sig.begin(), sig.end(), p.payload.begin() + static_cast<std::ptrdiff_t>(at));
  }
  return p;
}

/// Seeded frames and what the outside-enclave oracle says about each.
struct FramePool {
  std::vector<std::vector<dataplane::Packet>> warmup;  // every flow once
  std::vector<std::vector<dataplane::Packet>> bursts;
  std::vector<std::vector<ExpectedFrame>> expected;
  std::vector<std::size_t> punted_per_burst;
  double native_us_per_frame = 0;  // outside-enclave matcher, punted frames
};

std::shared_ptr<const FramePool> make_pool(std::uint64_t seed, bool imix) {
  auto pool = std::make_shared<FramePool>();
  std::mt19937_64 gen(seed ^ (imix ? 0x696d6978ULL : 0x3634ULL));
  auto payload_size = [&]() -> std::size_t {
    if (!imix) return 64;
    const auto pick = gen() % 12;  // 7:4:1
    return pick < 7 ? 64 : pick < 11 ? 576 : 1500;
  };

  for (std::size_t f = 0; f < kFlows; f += kBurst) {
    std::vector<dataplane::Packet> burst;
    for (std::size_t i = 0; i < kBurst; ++i) {
      burst.push_back(flow_frame(f + i, 64, gen));
    }
    pool->warmup.push_back(std::move(burst));
  }

  const vnf::RuleSet set = rules();
  const vnf::RuleMatcher matcher(set);
  std::vector<const dataplane::Packet*> punted;
  for (std::size_t b = 0; b < kPoolBursts; ++b) {
    std::vector<dataplane::Packet> burst;
    std::vector<ExpectedFrame> expected;
    std::size_t punted_here = 0;
    for (std::size_t i = 0; i < kBurst; ++i) {
      const std::size_t flow = gen() % kFlows;
      dataplane::Packet p = flow_frame(flow, payload_size(), gen);
      ExpectedFrame e;
      e.punted = p.dst_port != kFastPort;
      e.out_port = e.punted ? kInspectOutPort : kFastOutPort;
      if (e.punted) {
        ++punted_here;
        const auto hit = matcher.match(p.payload, p.dst_port,
                                       static_cast<std::uint8_t>(p.proto));
        if (hit) {
          const vnf::InspectionRule& rule = set.rules()[*hit];
          if (rule.action != vnf::RuleAction::kDrop) {
            throw Error("inspect inputs: alert rule hit by a generated frame");
          }
          e.drop = true;
          e.rule = rule.name;
        }
        if (e.drop != (flow % kAttackEvery == 0)) {
          throw Error("inspect inputs: oracle disagrees with the flow class");
        }
      }
      burst.push_back(std::move(p));
      expected.push_back(std::move(e));
    }
    pool->bursts.push_back(std::move(burst));
    pool->expected.push_back(std::move(expected));
    pool->punted_per_burst.push_back(punted_here);
  }

  // The ceiling for the in-enclave path: the same punted frames through the
  // same matcher in untrusted memory, repeated for a stable reading.
  for (std::size_t b = 0; b < kPoolBursts; ++b) {
    for (std::size_t i = 0; i < kBurst; ++i) {
      if (pool->expected[b][i].punted) punted.push_back(&pool->bursts[b][i]);
    }
  }
  std::size_t scanned = 0;
  std::size_t hits = 0;
  const auto t0 = SteadyClock::now();
  const auto budget = std::chrono::milliseconds(200);
  while (SteadyClock::now() - t0 < budget) {
    for (const dataplane::Packet* p : punted) {
      hits += matcher.match(p->payload, p->dst_port,
                            static_cast<std::uint8_t>(p->proto))
                  .has_value();
    }
    scanned += punted.size();
  }
  const double elapsed_us =
      std::chrono::duration<double, std::micro>(SteadyClock::now() - t0).count();
  pool->native_us_per_frame = elapsed_us / static_cast<double>(scanned);
  if (hits == 0) throw Error("inspect inputs: no attack frame in the pool");
  return pool;
}

class Inspect final : public Workload {
 public:
  Inspect(std::uint64_t seed, bool imix, std::shared_ptr<const FramePool> pool)
      : imix_(imix), pool_(std::move(pool)), rng_(seed), sw_(1) {
    platform_ = std::make_unique<sgx::SgxPlatform>(rng_, "inspect-host",
                                                   sgx::PlatformOptions{});
    const auto vendor = crypto::ed25519_generate(rng_);
    const sgx::EnclaveImage image = vnf::inspection_enclave_image();
    const sgx::SigStruct sig = sgx::sign_enclave(
        vendor.seed, sgx::measure_image(image.code, image.attributes), 11, 1);
    enclave_ = platform_->load_enclave(image, sig);
    client_ = std::make_unique<vnf::InspectionClient>(
        enclave_, vnf::InspectionClient::Options{
                      .mode = vnf::InspectionClient::Mode::kSwitchless,
                      .rings = 2,
                      .ring_capacity = 128,
                      .codec = vnf::InspectionClient::Codec::kZeroCopy});
    client_->load_rules(rules());

    for (const std::uint16_t port : kPorts) {
      dataplane::FlowEntry entry;
      entry.name = "port-" + std::to_string(port);
      entry.priority = 100;
      entry.match.dst_port = port;
      entry.match.proto = dataplane::IpProto::kTcp;
      entry.action = port == kFastPort ? dataplane::Action::forward(kFastOutPort)
                                       : dataplane::Action::inspect(kInspectOutPort);
      sw_.add_flow(std::move(entry));
    }
    auto inner = client_->as_burst_inspector();
    sw_.set_burst_inspector(
        [this, inner](std::span<const dataplane::Packet* const> frames,
                      std::uint16_t in_port) {
          ScopedSpan s(sink_, "vnf.inspect_burst", op_);
          return inner(frames, in_port);
        });

    // Warm-up: every flow once (the enclave's flow table reaches its full
    // size and every attack flow is poisoned), then part of the pool.
    for (const auto& burst : pool_->warmup) sw_.process_burst(burst, 1);
    std::string error;
    for (std::uint64_t k = 0; k < kWarmupPoolBursts; ++k) {
      if (!op(0, k, nullptr, error)) throw Error("inspect warm-up: " + error);
    }
  }

  std::size_t threads() const override { return 1; }
  double units_per_op() const override { return kBurst; }

  std::optional<double> op(std::size_t, std::uint64_t k, SpanSink* sink,
                           std::string& error) override {
    const std::size_t b = k % pool_->bursts.size();
    sink_ = sink;
    op_ = k;
    std::vector<dataplane::ForwardingResult> results;
    const auto t0 = SteadyClock::now();
    {
      ScopedSpan s(sink, "dataplane.process_burst", k);
      results = sw_.process_burst(pool_->bursts[b], 1);
    }
    const double latency_us =
        std::chrono::duration<double, std::micro>(SteadyClock::now() - t0)
            .count();
    if (results.size() != kBurst) {
      error = "inspect: short burst result";
      return std::nullopt;
    }
    for (std::size_t i = 0; i < kBurst; ++i) {
      error = check_frame(results[i], pool_->expected[b][i]);
      if (!error.empty()) return std::nullopt;
    }
    punted_ += pool_->punted_per_burst[b];
    return latency_us;
  }

  void begin_phase() override {
    before_ = enclave_->ecall_stats();
    punted_ = 0;
  }

  void layer_metrics(const PhaseResult& phase, const Tracer* tracer,
                     Metrics& out) override {
    const double bursts = std::max<double>(1, static_cast<double>(phase.ops.size()));
    const double frames = bursts * kBurst;
    if (imix_) {
      out["vnf.matcher_native_us_per_frame"] = {pool_->native_us_per_frame, "us"};
      if (tracer) {
        out["vnf.inspect_burst.p50_us"] = {span_p50(*tracer, "vnf.inspect_burst"),
                                           "us"};
      }
      return;
    }
    const sgx::EcallStats after = enclave_->ecall_stats();
    const auto samples = obs::registry().collect();
    out["sgx.switchless_jobs_per_frame"] = {
        static_cast<double>(after.switchless_jobs - before_.switchless_jobs) / frames,
        "count"};
    out["sgx.crossings_per_frame"] = {
        static_cast<double>(after.crossings - before_.crossings) / frames, "count"};
    out["sgx.ring_steals_per_burst"] = {
        counter_total(samples, "vnfsgx_hostcall_steals_total") / bursts, "count"};
    out["dataplane.punted_ratio"] = {static_cast<double>(punted_) / frames, "ratio"};
    if (tracer) {
      out["dataplane.process_burst.self_us"] = {
          span_p50(*tracer, "dataplane.process_burst", /*self_time=*/true), "us"};
    }
  }

  bool final_check(std::string& error) override {
    // The sticky-drop cache holds exactly the attack flows: one poisoned
    // flow per attack 5-tuple, no more, whatever the run length.
    const vnf::InspectionStats stats = client_->flow_stats();
    const std::uint64_t punted_flows = kFlows / 4 * 3;
    if (stats.flows != punted_flows) {
      error = "inspect: enclave flow table holds " + std::to_string(stats.flows) +
              " flows, expected " + std::to_string(punted_flows);
      return false;
    }
    return true;
  }

 private:
  const bool imix_;
  std::shared_ptr<const FramePool> pool_;
  crypto::DeterministicRandom rng_;
  std::unique_ptr<sgx::SgxPlatform> platform_;
  std::shared_ptr<sgx::Enclave> enclave_;
  std::unique_ptr<vnf::InspectionClient> client_;
  dataplane::Switch sw_;  // after client_: its inspector refers to it
  SpanSink* sink_ = nullptr;
  std::uint64_t op_ = 0;
  std::uint64_t punted_ = 0;
  sgx::EcallStats before_;
};

}  // namespace

WorkloadFactory prepare_inspect(std::uint64_t seed, bool imix) {
  auto pool = make_pool(seed, imix);
  return [seed, imix, pool] { return std::make_unique<Inspect>(seed, imix, pool); };
}

}  // namespace perfbench
