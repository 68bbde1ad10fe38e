#include "vnf/inspection_rules.h"

#include <algorithm>
#include <array>
#include <string>

#include "common/error.h"
#include "pki/tlv.h"

namespace vnfsgx::vnf {

namespace {

enum : std::uint8_t {
  kTagRule = 0x01,
  kTagName = 0x02,
  kTagPattern = 0x03,
  kTagAction = 0x04,
  kTagDstPort = 0x05,
  kTagProto = 0x06,
};

}  // namespace

void RuleSet::add(InspectionRule rule) {
  if (rule.name.empty()) throw Error("inspection rules: empty rule name");
  if (rule.pattern.empty()) {
    throw Error("inspection rules: rule '" + rule.name + "' has no pattern");
  }
  if (rule.action != RuleAction::kDrop && rule.action != RuleAction::kAlert) {
    throw Error("inspection rules: rule '" + rule.name + "' has bad action");
  }
  for (auto& existing : rules_) {
    if (existing.name == rule.name) {
      existing = std::move(rule);
      return;
    }
  }
  rules_.push_back(std::move(rule));
}

Bytes RuleSet::encode() const {
  pki::TlvWriter out;
  for (const InspectionRule& rule : rules_) {
    pki::TlvWriter w;
    w.add_string(kTagName, rule.name);
    w.add_bytes(kTagPattern, rule.pattern);
    w.add_u8(kTagAction, static_cast<std::uint8_t>(rule.action));
    w.add_u32(kTagDstPort, rule.dst_port);
    w.add_u8(kTagProto, rule.proto);
    out.add_bytes(kTagRule, w.bytes());
  }
  return out.take();
}

RuleSet RuleSet::decode(ByteView blob) {
  RuleSet set;
  pki::TlvReader r(blob);
  while (!r.done()) {
    pki::TlvReader rule_reader(r.expect(kTagRule));
    InspectionRule rule;
    rule.name = rule_reader.expect_string(kTagName);
    rule.pattern = rule_reader.expect_bytes(kTagPattern);
    rule.action = static_cast<RuleAction>(rule_reader.expect_u8(kTagAction));
    const std::uint32_t port = rule_reader.expect_u32(kTagDstPort);
    if (port > 0xffff) throw ParseError("inspection rules: bad dst_port");
    rule.dst_port = static_cast<std::uint16_t>(port);
    rule.proto = rule_reader.expect_u8(kTagProto);
    set.add(std::move(rule));  // re-validates fields on the trusted side
  }
  return set;
}

// ---------------------------------------------------------------------------
// RuleMatcher (Aho-Corasick, dense DFA)
// ---------------------------------------------------------------------------

RuleMatcher::RuleMatcher(const RuleSet& rules) : rules_(rules.rules()) {
  // Byte classes. Bytes that occur in no pattern share class 0; when every
  // byte value occurs there is no such byte and numbering starts at 0, so a
  // class always fits in a byte.
  std::array<bool, 256> used{};
  for (const InspectionRule& rule : rules_) {
    for (const std::uint8_t byte : rule.pattern) used[byte] = true;
  }
  classes_ = std::count(used.begin(), used.end(), true) == 256 ? 0 : 1;
  for (std::size_t byte = 0; byte < used.size(); ++byte) {
    if (used[byte]) class_of_[byte] = static_cast<std::uint8_t>(classes_++);
  }

  // Trie states = root + distinct non-empty pattern prefixes. Counting them
  // from the sorted patterns' common prefixes checks the table bound before
  // any table memory exists.
  std::vector<const Bytes*> sorted;
  sorted.reserve(rules_.size());
  for (const InspectionRule& rule : rules_) sorted.push_back(&rule.pattern);
  // Lexicographic order via mismatch: GCC 12 false-positives
  // (-Wstringop-overread) on the memcmp behind vector's operator<=>.
  std::sort(sorted.begin(), sorted.end(), [](const Bytes* a, const Bytes* b) {
    const auto [ia, ib] =
        std::mismatch(a->begin(), a->end(), b->begin(), b->end());
    return ib != b->end() && (ia == a->end() || *ia < *ib);
  });
  std::size_t states = 1;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    std::size_t common = 0;
    if (i > 0) {
      const Bytes& prev = *sorted[i - 1];
      common = static_cast<std::size_t>(
          std::mismatch(prev.begin(), prev.end(), sorted[i]->begin(),
                        sorted[i]->end())
              .first -
          prev.begin());
    }
    states += sorted[i]->size() - common;
  }
  if (states > kMaxTableBytes / (classes_ * sizeof(std::uint32_t))) {
    throw Error("inspection rules: matcher table of " +
                std::to_string(states) + " states x " +
                std::to_string(classes_) + " classes exceeds " +
                std::to_string(kMaxTableBytes) + " bytes");
  }

  // Trie, in creation order (root = 0): an entry of 0 means "no edge", as
  // no edge leads back to the root.
  std::vector<std::uint32_t> trie(states * classes_, 0);
  std::vector<std::vector<std::uint32_t>> outs(states);
  std::uint32_t created = 1;
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    std::uint32_t state = 0;
    for (const std::uint8_t byte : rules_[r].pattern) {
      std::uint32_t& next = trie[state * classes_ + class_of_[byte]];
      if (next == 0) next = created++;
      state = next;
    }
    outs[state].push_back(static_cast<std::uint32_t>(r));
  }

  // BFS: a missing edge takes the failure state's (already complete) move,
  // so no failure walk survives to match time. A state also reports every
  // pattern ending at its failure state.
  std::vector<std::uint32_t> fail(states, 0);
  std::vector<std::uint32_t> order{0};
  order.reserve(states);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::uint32_t state = order[i];
    std::uint32_t* row = &trie[state * classes_];
    const std::uint32_t* fail_row = &trie[fail[state] * classes_];
    for (std::uint32_t c = 0; c < classes_; ++c) {
      const std::uint32_t via_fail = state == 0 ? 0 : fail_row[c];
      if (row[c] == 0) {
        row[c] = via_fail;
        continue;
      }
      const std::uint32_t child = row[c];
      fail[child] = via_fail;
      outs[child].insert(outs[child].end(), outs[via_fail].begin(),
                         outs[via_fail].end());
      order.push_back(child);
    }
  }

  // Renumber in BFS order with every output state last, and store each
  // entry as the target's pre-multiplied row offset.
  std::vector<std::uint32_t> renumber(states);
  std::uint32_t next_id = 0;
  for (const std::uint32_t state : order) {
    if (outs[state].empty()) renumber[state] = next_id++;
  }
  first_output_ = next_id * classes_;
  for (const std::uint32_t state : order) {
    if (outs[state].empty()) continue;
    renumber[state] = next_id++;
    output_begin_.push_back(static_cast<std::uint32_t>(outputs_.size()));
    outputs_.insert(outputs_.end(), outs[state].begin(), outs[state].end());
  }
  output_begin_.push_back(static_cast<std::uint32_t>(outputs_.size()));
  table_.resize(trie.size());
  for (std::uint32_t state = 0; state < states; ++state) {
    for (std::uint32_t c = 0; c < classes_; ++c) {
      table_[renumber[state] * classes_ + c] =
          renumber[trie[state * classes_ + c]] * classes_;
    }
  }
}

std::optional<std::size_t> RuleMatcher::match(ByteView payload,
                                              std::uint16_t dst_port,
                                              std::uint8_t proto) const {
  std::optional<std::size_t> best;
  const auto consider = [&](std::size_t rule_index) {
    const InspectionRule& rule = rules_[rule_index];
    if (rule.dst_port != 0 && rule.dst_port != dst_port) return;
    if (rule.proto != 0 && rule.proto != proto) return;
    if (!best) {
      best = rule_index;
      return;
    }
    const InspectionRule& current = rules_[*best];
    const bool rule_drops = rule.action == RuleAction::kDrop;
    const bool current_drops = current.action == RuleAction::kDrop;
    if (rule_drops != current_drops) {
      if (rule_drops) best = rule_index;
    } else if (rule_index < *best) {
      best = rule_index;
    }
  };

  const std::uint32_t* const table = table_.data();
  std::uint32_t state = 0;
  for (const std::uint8_t byte : payload) {
    state = table[state + class_of_[byte]];
    if (state >= first_output_) {
      const std::size_t k = (state - first_output_) / classes_;
      for (std::uint32_t i = output_begin_[k]; i < output_begin_[k + 1]; ++i) {
        consider(outputs_[i]);
      }
    }
  }
  return best;
}

}  // namespace vnfsgx::vnf
