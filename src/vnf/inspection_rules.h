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

/// Ordered rule table. Drop rules outrank alert rules when several patterns
/// hit the same packet; ties fall to insertion order.
class RuleSet {
 public:
  /// Add or replace (by name). Throws Error on empty name or pattern.
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
/// over the payload finds every pattern hit regardless of rule count, at one
/// class load, one table load and one compare per byte.
///
/// Layout: bytes map to classes (class 0 is every byte that occurs in no
/// pattern). `table_` holds one row of `classes_` entries per state, and
/// each entry is the next state's row offset (state * classes_), so the
/// walk never multiplies. States are numbered so that every state with
/// outputs comes last: offset >= `first_output_` means "a pattern ends
/// here", and only then are the flattened `outputs_` consulted.
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
};

}  // namespace vnfsgx::vnf
