// Output checks. Every timed op's outputs go through one of these before
// the op counts as done; a non-empty return is the reason it failed.
// selftest.cpp feeds each a wrong answer to show that it rejects it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/ed25519.h"
#include "dataplane/switch.h"
#include "http/message.h"
#include "pki/certificate.h"

namespace perfbench {

/// A credential issued by onboarding: verifies under the VM's CA root, is
/// within its validity window at `now`, binds `enclave_key` (the key the
/// enclave generated and attested), and has a serial above `last_serial`
/// (serials from one CA stripe rise, so this proves uniqueness without a
/// set that grows with the run).
std::string check_credential(const vnfsgx::pki::Certificate& cert,
                             const vnfsgx::pki::Certificate& ca_root,
                             const vnfsgx::crypto::Ed25519PublicKey& enclave_key,
                             std::uint64_t last_serial, vnfsgx::UnixTime now);

/// A staticflowpusher POST answered 200 "Entry pushed".
std::string check_flow_push(const vnfsgx::http::Response& response);

/// `flow` is installed on `sw`.
std::string check_flow_installed(const vnfsgx::dataplane::Switch& sw,
                                 const std::string& flow);

/// Shape of the three controller GETs the rest workload issues.
std::string check_summary(const vnfsgx::http::Response& response,
                          std::size_t switches);
std::string check_switches(const vnfsgx::http::Response& response,
                           std::size_t switches);
/// Flow list of one switch: an array holding at least every name in
/// `expected` (the workload's bounded flow set), each entry with a name and
/// a priority.
std::string check_flow_list(const vnfsgx::http::Response& response,
                            std::span<const std::string> expected);

/// What the native oracle says one frame must come out as.
struct ExpectedFrame {
  bool punted = false;  // matched a kInspect flow
  bool drop = false;    // the outside-enclave matcher hits a drop rule
  std::string rule;     // that rule's name
  std::uint16_t out_port = 0;
};

/// One frame's forwarding result against the oracle: punted frames carry
/// the oracle's verdict, fast-path frames are forwarded and never inspected.
std::string check_frame(const vnfsgx::dataplane::ForwardingResult& result,
                        const ExpectedFrame& expected);

}  // namespace perfbench
