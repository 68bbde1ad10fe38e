// The Figure-1 deployment the onboard and rest workloads drive: an IAS
// endpoint, the Verification Manager, container hosts with their agents and
// VNFs, and a trusted-HTTPS controller, all on the in-memory network and
// served by one explicitly sized ServerRuntime.
//
// Deliberate choices (see README.md): the runtime's worker and shard counts
// are fixed rather than derived from the core count, every link keeps the
// in-memory default of zero latency (the IAS WAN round trip is modelled from
// counted reports, never slept), and every input is drawn from the seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "controller/controller.h"
#include "core/host_agent.h"
#include "core/verification_manager.h"
#include "crypto/random.h"
#include "dataplane/fabric.h"
#include "http/runtime.h"
#include "ias/http_api.h"
#include "net/inmemory.h"
#include "net/server.h"
#include "vnf/vnf.h"

namespace perfbench {

struct DeploymentOptions {
  std::uint64_t seed = 1;
  std::size_t hosts = 2;
  std::size_t vnfs_per_host = 8;
};

struct VnfMember {
  std::size_t host = 0;
  std::string name;         // VNF name the agent knows it by
  std::string common_name;  // subject CN of its credential
  std::unique_ptr<vnfsgx::vnf::Vnf> vnf;
};

class Deployment {
 public:
  static constexpr const char* kControllerAddress = "controller:8443";
  static constexpr const char* kControllerName = "controller";
  /// Measured files added to each host's IML on top of the base OS stack.
  static constexpr std::size_t kExtraImlEntries = 300;
  /// Serials revoked (one CA revoke each) and pushed to the controller.
  static constexpr std::size_t kCrlEntries = 1000;
  static constexpr std::size_t kSwitches = 4;
  static constexpr std::size_t kServerWorkers = 2;
  static constexpr std::size_t kServerShards = 1;

  explicit Deployment(const DeploymentOptions& options);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Open a channel to host `h`'s agent.
  vnfsgx::net::StreamPtr agent_channel(std::size_t h);

  const DeploymentOptions options;
  vnfsgx::crypto::DeterministicRandom base_rng;
  vnfsgx::crypto::LockedRandom rng;
  vnfsgx::SimClock clock;
  vnfsgx::net::InMemoryNetwork net;
  vnfsgx::ias::IasService ias;
  vnfsgx::http::Router ias_router;
  vnfsgx::crypto::Ed25519KeyPair vendor;
  vnfsgx::core::VerificationManager vm;
  vnfsgx::dataplane::Fabric fabric;
  std::vector<std::unique_ptr<vnfsgx::host::ContainerHost>> machines;
  std::vector<std::unique_ptr<vnfsgx::core::HostAgent>> agents;
  std::vector<VnfMember> members;
  std::unique_ptr<vnfsgx::controller::Controller> controller;
  /// Declared last: shut down (workers joined) before everything it serves.
  vnfsgx::net::ServerRuntime runtime;
};

}  // namespace perfbench
