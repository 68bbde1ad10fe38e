// Signature rules for the in-enclave inspection NF: a named byte-pattern
// table (Snort-style content rules with optional header constraints) with a
// TLV wire form, plus a compiled Aho-Corasick multi-pattern matcher (a dense
// DFA over byte classes).
//
// This header deliberately stays free of enclave and dataplane types: the
// same code compiles into the trusted logic (where the rules live) and into
// provisioning tools (which only encode them).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace vnfsgx::vnf {

enum class RuleAction : std::uint8_t {
  kDrop = 1,   // discard the packet, poison the flow
  kAlert = 2,  // forward but notify the controller
};

// boundary: wire — rule blobs are provisioned across the enclave boundary
// (decoded + validated once on entry by RuleSet::decode), so only the
// secret-egress rule (boundarycheck B4) applies to these fields.
struct InspectionRule {
  std::string name;
  Bytes pattern;  // byte signature searched anywhere in the payload
  RuleAction action = RuleAction::kDrop;
  // Header constraints; zero means wildcard.
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;  // IpProto numeric value (6 tcp, 17 udp, ...)
};

/// Longest rule name. A hit returns the name in its verdict, and the
/// verdict (4-byte header + name) must fit one 2 KiB ring-slot result, or
/// every matching frame would fail closed. inspection_enclave.cpp checks
/// this against the ring constants.
inline constexpr std::size_t kMaxRuleNameBytes = 2044;

/// Ordered rule table. Drop rules outrank alert rules when several patterns
/// hit the same packet; ties fall to insertion order.
class RuleSet {
 public:
  /// Add or replace (by name). Throws Error on an empty name or pattern
  /// or a name longer than kMaxRuleNameBytes.
  void add(InspectionRule rule);
  const std::vector<InspectionRule>& rules() const { return rules_; }
  std::size_t size() const { return rules_.size(); }
  bool empty() const { return rules_.empty(); }

  Bytes encode() const;
  static RuleSet decode(ByteView blob);

 private:
  std::vector<InspectionRule> rules_;
};

/// Aho-Corasick automaton over a RuleSet, compiled to a dense DFA: one pass
/// over the payload finds every pattern hit regardless of rule count.
///
/// Layout: bytes map to classes (class 0 is every byte that occurs in no
/// pattern). `table_` holds one row of `classes_` entries per state, and
/// each entry is the next state's row offset (state * classes_), so the
/// walk never multiplies. States are numbered so that every state with
/// outputs comes last: offset >= `first_output_` means "a pattern ends
/// here", and only then are the flattened `outputs_` consulted.
///
/// Walk: a lone DFA walk is one chain of dependent loads (each step's
/// table load waits on the one before), so a long payload is cut into
/// kLanes consecutive chunks walked in lock-step, kLanes independent loads
/// in flight per step. This is exact because the DFA state after any byte
/// is the longest suffix of the input so far that is a trie prefix, and
/// that suffix is never longer than the longest pattern. A lane that starts
/// at the root `overlap_` (longest pattern - 1) bytes before its chunk
/// therefore holds the serial walk's state from its chunk's first byte on.
/// Only lane 0 (which starts at byte 0) reports during those warm-up
/// bytes, the last lane finishes the remainder of the division alone, and
/// since `match` picks its hit under a total order, the order in which
/// lanes report cannot change the verdict. Per step there is one test,
/// max(lane states) >= first_output_; the per-lane output walk runs only
/// when it fires. A payload shorter than kLanes x the longest pattern takes
/// the same walk with one lane.
///
/// The walk is data-dependent (which table rows it loads, and when it
/// consults the outputs), so it is not constant-time in the payload.
class RuleMatcher {
 public:
  /// Upper bound on the transition table (states x classes x 4 B). Rule
  /// blobs are decoded on the trusted side, so a rule set whose table
  /// would exceed this is refused before anything is allocated.
  static constexpr std::size_t kMaxTableBytes = std::size_t{1} << 20;

  /// Throws Error when the compiled table would exceed kMaxTableBytes.
  explicit RuleMatcher(const RuleSet& rules);
  RuleMatcher(const RuleMatcher&) = delete;
  RuleMatcher& operator=(const RuleMatcher&) = delete;

  /// Best matching rule index for this payload + headers, or nullopt if
  /// clean. Drop beats alert; earlier rules beat later ones.
  std::optional<std::size_t> match(ByteView payload, std::uint16_t dst_port,
                                   std::uint8_t proto) const;

  /// Lanes interleaved on a payload of at least kLanes x the longest
  /// pattern (BM_RuleMatcherScan: 6 lanes are slower, 8 no better).
  static constexpr std::size_t kLanes = 4;

  /// Bytes held by the transition table (states x classes x 4).
  std::size_t table_bytes() const {
    return table_.size() * sizeof(std::uint32_t);
  }

 private:
  const std::vector<InspectionRule> rules_;
  std::array<std::uint8_t, 256> class_of_{};
  std::uint32_t classes_ = 0;       // table columns
  std::uint32_t first_output_ = 0;  // row offset of the first output state
  std::vector<std::uint32_t> table_;
  // Rule indices of output state k (k-th state from first_output_) are
  // outputs_[output_begin_[k] .. output_begin_[k + 1]).
  std::vector<std::uint32_t> output_begin_;
  std::vector<std::uint32_t> outputs_;
  std::size_t overlap_ = 0;  // longest pattern - 1: a lane's warm-up

  template <std::size_t Lanes, typename Report>
  void walk(ByteView payload, Report&& report) const;
};

}  // namespace vnfsgx::vnf
