#include "vnf/inspection_enclave.h"

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <shared_mutex>

#include "obs/metrics.h"
#include "pki/tlv.h"

namespace vnfsgx::vnf {

namespace {

// kOpFlowStats reply tags.
enum : std::uint8_t {
  kTagFlows = 0x0b,
  kTagInspected = 0x0c,
  kTagDropped = 0x0d,
  kTagAlerted = 0x0e,
  kTagCacheHits = 0x0f,
};

static_assert(kMaxRuleNameBytes ==
                  sgx::kMaxHostCallPayload - wire::kVerdictHeaderSize,
              "a hit's verdict must fit one ring-slot result");

constexpr std::uint8_t kVerdictForward = 0;
constexpr std::uint8_t kVerdictDrop = 1;
constexpr std::uint8_t kVerdictAlert = 2;

Bytes inspection_enclave_code() {
  return to_bytes(
      "vnfsgx inspection enclave v1.1\n"
      "role: in-enclave signature-match IDS\n"
      "guarantee: rules, flow table, and verdict cache never leave\n");
}

// The trusted logic is shared by every worker a RingGroup runs, so all
// state is guarded: the rule table behind a reader/writer lock (installs
// are rare, matches constant), the flow table sharded by key hash so
// same-shard contention is the only serialization on the hot path, and
// the counters plain relaxed atomics.
class InspectionEnclaveLogic final : public sgx::TrustedLogic {
 public:
  Bytes handle_call(std::uint32_t opcode, ByteView input,
                    sgx::EnclaveServices& services) override {
    switch (static_cast<InspectionOp>(opcode)) {
      case kOpLoadRules:
        return load_rules(input);
      case kOpSealRules:
        return seal_rules(services);
      case kOpRestoreRules:
        return restore_rules(input, services);
      case kOpFlowStats:
        return flow_stats();
      case kOpResetFlows:
        clear_flows();
        return {};
      case kOpInspectFrame: {
        // A frame arriving over a copying path (sync/batched): run the
        // fixed-buffer handler into a local scratch.
        std::array<std::uint8_t, sgx::kMaxHostCallPayload> scratch;
        const std::size_t n = inspect_frame(input, scratch);
        return Bytes(scratch.begin(), scratch.begin() + n);
      }
    }
    throw Error("inspection enclave: unknown opcode " + std::to_string(opcode));
  }

  std::optional<std::size_t> handle_call_into(
      std::uint32_t opcode, ByteView input, std::span<std::uint8_t> out,
      sgx::EnclaveServices& services) override {
    (void)services;
    // Only the frame hot path gets the allocation-free treatment; control
    // opcodes are rare and fall back to handle_call.
    if (static_cast<InspectionOp>(opcode) != kOpInspectFrame) {
      return std::nullopt;
    }
    return inspect_frame(input, out);
  }

 private:
  // Packed 5-tuple: src_ip | dst_ip | src_port | dst_port | proto.
  using FlowKey = std::array<std::uint8_t, 13>;

  struct FlowState {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    // Verdict cache: a drop verdict is sticky for the flow's lifetime, so
    // later packets of a poisoned flow skip the matcher entirely. Clean
    // verdicts are NOT cached — a signature may start matching mid-flow.
    bool poisoned = false;
    std::string poison_rule;
  };

  static constexpr std::size_t kFlowShards = 8;
  struct FlowShard {
    std::mutex mutex;
    std::map<FlowKey, FlowState> flows;
  };

  static FlowKey make_flow_key(std::uint32_t src_ip, std::uint32_t dst_ip,
                               std::uint16_t src_port, std::uint16_t dst_port,
                               std::uint8_t proto) {
    FlowKey key{};
    key[0] = static_cast<std::uint8_t>(src_ip >> 24);
    key[1] = static_cast<std::uint8_t>(src_ip >> 16);
    key[2] = static_cast<std::uint8_t>(src_ip >> 8);
    key[3] = static_cast<std::uint8_t>(src_ip);
    key[4] = static_cast<std::uint8_t>(dst_ip >> 24);
    key[5] = static_cast<std::uint8_t>(dst_ip >> 16);
    key[6] = static_cast<std::uint8_t>(dst_ip >> 8);
    key[7] = static_cast<std::uint8_t>(dst_ip);
    key[8] = static_cast<std::uint8_t>(src_port >> 8);
    key[9] = static_cast<std::uint8_t>(src_port);
    key[10] = static_cast<std::uint8_t>(dst_port >> 8);
    key[11] = static_cast<std::uint8_t>(dst_port);
    key[12] = proto;
    return key;
  }

  FlowShard& shard_for(const FlowKey& key) {
    // FNV-1a over the packed tuple; cheap and spreads sequential flows.
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::uint8_t b : key) {
      h = (h ^ b) * 1099511628211ULL;
    }
    return shards_[h % kFlowShards];
  }

  Bytes load_rules(ByteView input) {
    install(RuleSet::decode(input));
    return {};
  }

  Bytes seal_rules(sgx::EnclaveServices& services) {
    std::shared_lock<std::shared_mutex> lk(rules_mutex_);
    return services.seal(sgx::SealPolicy::kMrEnclave, rules_.encode(),
                        to_bytes("inspection-rules"));
  }

  Bytes restore_rules(ByteView input, sgx::EnclaveServices& services) {
    const auto plain = services.unseal(input, to_bytes("inspection-rules"));
    if (!plain) {
      throw SecurityViolation("inspection enclave: sealed rules rejected");
    }
    install(RuleSet::decode(*plain));
    return {};
  }

  void install(RuleSet rules) {
    if (rules.empty()) {
      throw Error("inspection enclave: refusing to install empty rule set");
    }
    auto matcher = std::make_unique<RuleMatcher>(rules);
    std::unique_lock<std::shared_mutex> lk(rules_mutex_);
    matcher_ = std::move(matcher);
    rules_ = std::move(rules);
    // Verdicts cached under the old rules are stale. Clearing them in the
    // same exclusive section (lock order rules -> shard, as inspect_frame)
    // means no worker can serve a sticky drop naming a replaced rule.
    clear_flows();
  }

  void clear_flows() {
    for (FlowShard& shard : shards_) {
      std::lock_guard<std::mutex> lk(shard.mutex);
      shard.flows.clear();
    }
  }

  /// FrameDescriptor in, FrameVerdict out, both through fixed buffers —
  /// no trusted-side allocation for clean frames. Flow accounting and the
  /// sticky-drop cache run under the flow shard's lock; the matcher scan
  /// runs with only the rules reader lock held so concurrent workers scan
  /// in parallel. The verdict is written while the rule name is still
  /// pinned by the locks, so the name is serialized without a copy.
  std::size_t inspect_frame(ByteView input, std::span<std::uint8_t> out) {
    wire::FrameDescriptor header;
    const ByteView payload = wire::decode_frame(input, &header);
    std::shared_lock<std::shared_mutex> rules_lk(rules_mutex_);
    if (!matcher_) {
      throw Error("inspection enclave: no rules loaded");
    }
    const FlowKey key = make_flow_key(header.src_ip, header.dst_ip,
                                      header.src_port, header.dst_port,
                                      header.proto);
    FlowShard& shard = shard_for(key);
    inspected_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(shard.mutex);
      FlowState& flow = shard.flows[key];
      ++flow.packets;
      flow.bytes += payload.size();
      if (flow.poisoned) {
        // Poisoned by an earlier packet: serve the sticky drop from cache.
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return wire::encode_verdict(kVerdictDrop, true, flow.poison_rule, out);
      }
    }
    if (const auto hit = matcher_->match(payload, header.dst_port,
                                         header.proto)) {
      const InspectionRule& rule = rules_.rules()[*hit];
      if (rule.action == RuleAction::kDrop) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lk(shard.mutex);
          // Re-find: a concurrent reset may have pruned the flow while the
          // matcher ran; poisoning a fresh entry would resurrect it.
          const auto it = shard.flows.find(key);
          if (it != shard.flows.end()) {
            it->second.poisoned = true;
            it->second.poison_rule = rule.name;
          }
        }
        return wire::encode_verdict(kVerdictDrop, false, rule.name, out);
      }
      alerted_.fetch_add(1, std::memory_order_relaxed);
      return wire::encode_verdict(kVerdictAlert, false, rule.name, out);
    }
    return wire::encode_verdict(kVerdictForward, false, {}, out);
  }

  Bytes flow_stats() {
    std::uint64_t flow_count = 0;
    for (FlowShard& shard : shards_) {
      std::lock_guard<std::mutex> lk(shard.mutex);
      flow_count += shard.flows.size();
    }
    pki::TlvWriter w;
    w.add_u64(kTagFlows, flow_count);
    w.add_u64(kTagInspected, inspected_.load(std::memory_order_relaxed));
    w.add_u64(kTagDropped, dropped_.load(std::memory_order_relaxed));
    w.add_u64(kTagAlerted, alerted_.load(std::memory_order_relaxed));
    w.add_u64(kTagCacheHits, cache_hits_.load(std::memory_order_relaxed));
    return w.take();
  }

  // Guards rules_/matcher_ (shared: inspect/seal, exclusive: install).
  std::shared_mutex rules_mutex_;
  RuleSet rules_;
  std::unique_ptr<RuleMatcher> matcher_;
  std::array<FlowShard, kFlowShards> shards_;
  std::atomic<std::uint64_t> inspected_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> alerted_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
};

}  // namespace

sgx::EnclaveImage inspection_enclave_image() {
  sgx::EnclaveImage image;
  image.name = "inspection-enclave";
  image.code = inspection_enclave_code();
  image.attributes = 0;
  image.factory = [] { return std::make_unique<InspectionEnclaveLogic>(); };
  return image;
}

sgx::Measurement inspection_enclave_measurement() {
  return sgx::measure_image(inspection_enclave_code(), 0);
}

// ---------------------------------------------------------------------------
// InspectionClient (untrusted side)
// ---------------------------------------------------------------------------

namespace {

dataplane::InspectionOutcome decode_frame_verdict(ByteView response) {
  wire::FrameVerdict header;
  const ByteView rule = wire::decode_verdict(response, &header);
  dataplane::InspectionOutcome outcome;
  switch (header.verdict) {
    case kVerdictForward:
      outcome.verdict = dataplane::InspectVerdict::kForward;
      break;
    case kVerdictDrop:
      outcome.verdict = dataplane::InspectVerdict::kDrop;
      break;
    case kVerdictAlert:
      outcome.verdict = dataplane::InspectVerdict::kAlert;
      break;
    default:
      throw ParseError("inspection: bad verdict byte");
  }
  if (!rule.empty()) {
    outcome.rule.assign(rule.begin(), rule.end());
  }
  return outcome;
}

wire::FrameDescriptor make_descriptor(const dataplane::Packet& packet,
                                      std::uint16_t in_port) {
  wire::FrameDescriptor d;
  d.src_ip = packet.src_ip;
  d.dst_ip = packet.dst_ip;
  d.src_port = packet.src_port;
  d.dst_port = packet.dst_port;
  d.in_port = in_port;
  d.proto = static_cast<std::uint8_t>(packet.proto);
  return d;
}

// The copying paths (sync, batched) carry the frame in a buffer sized to
// it, so they have no inline-payload limit.
Bytes encode_frame_copy(const dataplane::Packet& packet,
                        std::uint16_t in_port) {
  Bytes frame(wire::kFrameHeaderSize + packet.payload.size());
  wire::encode_frame(make_descriptor(packet, in_port), packet.payload, frame);
  return frame;
}

// Rejected at the untrusted gate, before a ring slot is claimed.
void check_inline_capacity(const dataplane::Packet& packet) {
  if (packet.payload.size() > kMaxInlineFramePayload) {
    throw Error("inspection: frame payload of " +
                std::to_string(packet.payload.size()) +
                " bytes exceeds inline descriptor capacity of " +
                std::to_string(kMaxInlineFramePayload));
  }
}

obs::Histogram& inspection_latency(InspectionClient::Mode mode) {
  static const char* const kModeNames[] = {"sync", "batched", "switchless"};
  return obs::registry().histogram(
      "vnfsgx_inspection_latency_us",
      {{"mode", kModeNames[static_cast<int>(mode)]}},
      obs::Histogram::latency_bounds_us(),
      "Per-frame enclave inspection latency in microseconds");
}

}  // namespace

InspectionClient::InspectionClient(std::shared_ptr<sgx::Enclave> enclave,
                                   Mode mode)
    : InspectionClient(std::move(enclave), Options{.mode = mode}) {}

InspectionClient::InspectionClient(std::shared_ptr<sgx::Enclave> enclave,
                                   Options options)
    : enclave_(std::move(enclave)),
      options_(options),
      latency_(inspection_latency(options.mode)) {
  if (!enclave_) throw Error("inspection client: null enclave");
  if (options_.mode == Mode::kSwitchless) {
    sgx::RingGroupOptions group_options;
    group_options.rings = std::max<std::size_t>(options_.rings, 1);
    group_options.ring_capacity = options_.ring_capacity;
    group_options.name = "inspection";
    group_ = std::make_unique<sgx::RingGroup>(enclave_, group_options);
  }
}

InspectionClient::~InspectionClient() = default;

Bytes InspectionClient::dispatch(std::uint32_t opcode, ByteView input) {
  if (group_) return group_->call(opcode, input);
  return enclave_->call(opcode, input);
}

void InspectionClient::load_rules(const RuleSet& rules) {
  dispatch(kOpLoadRules, rules.encode());
}

Bytes InspectionClient::seal_rules() { return dispatch(kOpSealRules, {}); }

void InspectionClient::restore_rules(ByteView sealed) {
  dispatch(kOpRestoreRules, sealed);
}

sgx::RingGroup::Ticket InspectionClient::submit_frame(
    const sgx::RingGroup::SubmitHandle& handle,
    const dataplane::Packet& packet, std::uint16_t in_port) {
  // Serialize once, straight into the claimed ring slot: no intermediate
  // buffer, no heap allocation anywhere on the submit path.
  std::size_t frame_len = 0;
  try {
    frame_len = wire::encode_frame(make_descriptor(packet, in_port),
                                   packet.payload, handle.inner.payload);
  } catch (...) {
    group_->abandon(handle);
    throw;
  }
  group_->publish(handle, frame_len);
  return sgx::RingGroup::Ticket{handle.ring, handle.inner.ticket};
}

dataplane::InspectionOutcome InspectionClient::inspect(
    const dataplane::Packet& packet, std::uint16_t in_port) {
  const auto start = std::chrono::steady_clock::now();
  dataplane::InspectionOutcome outcome;
  if (group_) {
    check_inline_capacity(packet);
    const sgx::RingGroup::Ticket ticket = submit_frame(
        group_->begin_submit(kOpInspectFrame), packet, in_port);
    // The verdict comes back through a stack buffer: no heap either way.
    std::array<std::uint8_t, sgx::kMaxHostCallPayload> result;
    const std::size_t n = group_->wait_into(ticket, result);
    outcome = decode_frame_verdict(ByteView(result.data(), n));
  } else {
    outcome = decode_frame_verdict(
        enclave_->call(kOpInspectFrame, encode_frame_copy(packet, in_port)));
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);
  latency_.observe(static_cast<double>(elapsed.count()) / 1000.0);
  return outcome;
}

std::vector<dataplane::InspectionOutcome>
InspectionClient::inspect_burst_switchless(
    std::span<const dataplane::Packet* const> packets,
    std::uint16_t in_port) {
  // Pipelined windows, one per ring: frames are striped round-robin so all
  // resident workers drain in parallel, with at most half a ring's
  // capacity outstanding per ring — never more than a ring can hold, which
  // would deadlock against our own uncollected results. Tickets are
  // collected FIFO, so `outcomes` stays positional.
  // Error path: every submitted ticket is waited on even after a failure —
  // an uncollected ticket would pin its slot forever and leak ring
  // capacity into permanent backpressure. Once anything fails (a rejected
  // job, or stop() racing the window) the burst stops decoding into
  // `outcomes`, drains the remaining in-flight tickets, and rethrows: a
  // stopped ring can therefore never surface a stale or misaligned verdict
  // for a later-submitted frame.
  std::vector<dataplane::InspectionOutcome> outcomes;
  outcomes.reserve(packets.size());
  const std::size_t ring_count = group_->rings();
  const std::size_t window =
      std::max<std::size_t>(group_->ring(0).capacity() / 2, 1);
  std::vector<sgx::RingGroup::Ticket> tickets;
  tickets.reserve(packets.size());
  std::vector<std::size_t> inflight(ring_count, 0);
  std::size_t collected = 0;
  std::exception_ptr first_error;
  std::array<std::uint8_t, sgx::kMaxHostCallPayload> result;
  auto collect_one = [&] {
    const sgx::RingGroup::Ticket t = tickets[collected++];
    --inflight[t.ring];
    try {
      const std::size_t n = group_->wait_into(t, result);
      if (!first_error) {
        outcomes.push_back(decode_frame_verdict(ByteView(result.data(), n)));
      }
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  };
  std::size_t index = 0;
  for (const dataplane::Packet* packet : packets) {
    const dataplane::Packet& p = *packet;
    const std::size_t target = index++ % ring_count;
    while (inflight[target] >= window && collected < tickets.size() &&
           !first_error) {
      collect_one();
    }
    if (first_error) break;
    try {
      check_inline_capacity(p);
      tickets.push_back(submit_frame(
          group_->begin_submit_on(target, kOpInspectFrame), p, in_port));
      ++inflight[target];
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      break;
    }
  }
  while (collected < tickets.size()) collect_one();
  if (first_error) std::rethrow_exception(first_error);
  return outcomes;
}

std::vector<dataplane::InspectionOutcome> InspectionClient::inspect_burst(
    std::span<const dataplane::Packet> packets, std::uint16_t in_port) {
  std::vector<const dataplane::Packet*> pointers;
  pointers.reserve(packets.size());
  for (const dataplane::Packet& p : packets) pointers.push_back(&p);
  return inspect_burst(std::span<const dataplane::Packet* const>(pointers),
                       in_port);
}

std::vector<dataplane::InspectionOutcome> InspectionClient::inspect_burst(
    std::span<const dataplane::Packet* const> packets,
    std::uint16_t in_port) {
  std::vector<dataplane::InspectionOutcome> outcomes;
  outcomes.reserve(packets.size());
  const auto start = std::chrono::steady_clock::now();
  switch (options_.mode) {
    case Mode::kSync:
      for (const dataplane::Packet* p : packets) {
        outcomes.push_back(inspect(*p, in_port));
      }
      // inspect() observed each frame individually; skip the amortized
      // observation below so sync frames are not double-counted.
      return outcomes;
    case Mode::kBatched: {
      std::vector<sgx::BatchCall> jobs;
      jobs.reserve(packets.size());
      for (const dataplane::Packet* p : packets) {
        jobs.push_back(
            sgx::BatchCall{kOpInspectFrame, encode_frame_copy(*p, in_port)});
      }
      for (const sgx::BatchResult& r : enclave_->call_batch(jobs)) {
        if (!r.ok) throw Error("inspection batch: " + r.error);
        outcomes.push_back(decode_frame_verdict(r.output));
      }
      break;
    }
    case Mode::kSwitchless:
      outcomes = inspect_burst_switchless(packets, in_port);
      break;
  }
  // Batched/switchless frames share the boundary work, so record the
  // amortized per-frame latency: burst wall time divided by frame count.
  if (!packets.empty()) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start);
    const double per_frame_us = static_cast<double>(elapsed.count()) / 1000.0 /
                                static_cast<double>(packets.size());
    latency_.observe(per_frame_us, packets.size());
  }
  return outcomes;
}

InspectionStats InspectionClient::flow_stats() {
  const Bytes blob = dispatch(kOpFlowStats, {});
  pki::TlvReader r(blob);
  InspectionStats stats;
  stats.flows = r.expect_u64(kTagFlows);
  stats.inspected = r.expect_u64(kTagInspected);
  stats.dropped = r.expect_u64(kTagDropped);
  stats.alerted = r.expect_u64(kTagAlerted);
  stats.cache_hits = r.expect_u64(kTagCacheHits);
  return stats;
}

void InspectionClient::reset_flows() { dispatch(kOpResetFlows, {}); }

dataplane::InspectorFn InspectionClient::as_inspector() {
  return [this](const dataplane::Packet& packet, std::uint16_t in_port) {
    return inspect(packet, in_port);
  };
}

dataplane::BurstInspectorFn InspectionClient::as_burst_inspector() {
  return [this](std::span<const dataplane::Packet* const> packets,
                std::uint16_t in_port) {
    return inspect_burst(packets, in_port);
  };
}

}  // namespace vnfsgx::vnf
