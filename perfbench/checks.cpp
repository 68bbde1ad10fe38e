#include "checks.h"

#include <algorithm>
#include <exception>

#include "common/bytes.h"
#include "json/json.h"

namespace perfbench {

using namespace vnfsgx;

std::string check_credential(const pki::Certificate& cert,
                             const pki::Certificate& ca_root,
                             const crypto::Ed25519PublicKey& enclave_key,
                             std::uint64_t last_serial, UnixTime now) {
  if (cert.issuer != ca_root.subject) return "credential: wrong issuer";
  if (!cert.verify_signature(ca_root.public_key)) {
    return "credential: signature does not verify under the VM CA";
  }
  if (!cert.valid_at(now)) return "credential: outside its validity window";
  if (cert.public_key != enclave_key) {
    return "credential: does not bind the enclave's key";
  }
  if (cert.serial <= last_serial) return "credential: serial reused";
  return {};
}

std::string check_flow_push(const http::Response& response) {
  if (response.status != 200) {
    return "flow push: HTTP " + std::to_string(response.status);
  }
  try {
    const json::Value body = json::parse(vnfsgx::to_string(response.body));
    if (body.at("status").as_string() != "Entry pushed") {
      return "flow push: unexpected status text";
    }
  } catch (const std::exception& e) {
    return std::string("flow push: bad body: ") + e.what();
  }
  return {};
}

std::string check_flow_installed(const dataplane::Switch& sw,
                                 const std::string& flow) {
  const auto& flows = sw.flows();
  const bool found = std::any_of(flows.begin(), flows.end(),
                                 [&](const auto& e) { return e.name == flow; });
  return found ? std::string() : "flow '" + flow + "' not installed";
}

namespace {

/// Parse a 200 JSON body, or say why not.
std::string parse_ok(const http::Response& response, const char* what,
                     json::Value& out) {
  if (response.status != 200) {
    return std::string(what) + ": HTTP " + std::to_string(response.status);
  }
  try {
    out = json::parse(vnfsgx::to_string(response.body));
  } catch (const std::exception& e) {
    return std::string(what) + ": body does not parse: " + e.what();
  }
  return {};
}

}  // namespace

std::string check_summary(const http::Response& response,
                          std::size_t switches) {
  json::Value body;
  if (auto err = parse_ok(response, "summary", body); !err.empty()) return err;
  try {
    if (body.at("securityMode").as_string() != "TRUSTED_HTTPS") {
      return "summary: wrong security mode";
    }
    if (body.at("numSwitches").as_int() != static_cast<std::int64_t>(switches)) {
      return "summary: wrong switch count";
    }
    if (!body.at("requestsServed").is_number()) {
      return "summary: requestsServed missing";
    }
  } catch (const std::exception& e) {
    return std::string("summary: wrong shape: ") + e.what();
  }
  return {};
}

std::string check_switches(const http::Response& response,
                           std::size_t switches) {
  json::Value body;
  if (auto err = parse_ok(response, "switches", body); !err.empty()) return err;
  try {
    const json::Array& list = body.as_array();
    if (list.size() != switches) return "switches: wrong switch count";
    for (const json::Value& entry : list) {
      if (entry.at("switchDPID").as_string().empty() ||
          !entry.at("flowCount").is_number()) {
        return "switches: entry missing fields";
      }
    }
  } catch (const std::exception& e) {
    return std::string("switches: wrong shape: ") + e.what();
  }
  return {};
}

std::string check_flow_list(const http::Response& response,
                            std::span<const std::string> expected) {
  json::Value body;
  if (auto err = parse_ok(response, "flow list", body); !err.empty()) return err;
  try {
    const json::Array& list = body.as_array();
    std::vector<std::string> names;
    names.reserve(list.size());
    for (const json::Value& entry : list) {
      if (!entry.at("priority").is_number()) return "flow list: no priority";
      names.push_back(entry.at("name").as_string());
    }
    std::sort(names.begin(), names.end());
    for (const std::string& want : expected) {
      if (!std::binary_search(names.begin(), names.end(), want)) {
        return "flow list: '" + want + "' missing";
      }
    }
  } catch (const std::exception& e) {
    return std::string("flow list: wrong shape: ") + e.what();
  }
  return {};
}

std::string check_frame(const dataplane::ForwardingResult& result,
                        const ExpectedFrame& expected) {
  using Kind = dataplane::ForwardingResult::Kind;
  if (result.inspected != expected.punted) {
    return expected.punted ? "frame: punted flow was not inspected"
                           : "frame: fast-path frame was inspected";
  }
  if (expected.drop) {
    if (result.kind != Kind::kDropped ||
        result.verdict != dataplane::InspectVerdict::kDrop) {
      return "frame: oracle drops, switch did not";
    }
    if (result.inspect_rule != expected.rule) {
      return "frame: dropped by '" + result.inspect_rule + "', oracle says '" +
             expected.rule + "'";
    }
    return {};
  }
  if (result.kind != Kind::kForwarded) return "frame: oracle forwards, switch did not";
  if (result.out_port != expected.out_port) return "frame: wrong out port";
  if (expected.punted && result.verdict != dataplane::InspectVerdict::kForward) {
    return "frame: clean frame got a non-forward verdict";
  }
  return {};
}

}  // namespace perfbench
