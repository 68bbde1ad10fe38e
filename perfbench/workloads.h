// The four workloads. prepare_* generates a workload's seeded inputs
// (untimed) and returns the factory whose call builds the deployment and
// warms it up: that call is what setup_s times. README.md says why each
// workload exists and which layer dominates it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "ledger.h"

namespace perfbench {

using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

/// Figure-1 steps 1-6 for one VNF per op, round-robin over 2 hosts x 8 VNFs.
WorkloadFactory prepare_onboard(std::uint64_t seed);

/// Warm trusted-HTTPS REST: two VNF clients, one keep-alive connection each.
WorkloadFactory prepare_rest(std::uint64_t seed);

/// 64-frame bursts through Switch::process_burst with 3/4 of flows punted
/// to the switchless in-enclave inspector; `imix` mixes 64/576/1500-byte
/// payloads 7:4:1, otherwise every payload is 64 bytes.
WorkloadFactory prepare_inspect(std::uint64_t seed, bool imix);

}  // namespace perfbench
