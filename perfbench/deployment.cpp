#include "deployment.h"

#include <algorithm>
#include <chrono>

#include "net/framing.h"
#include "vnf/functions.h"

namespace perfbench {

using namespace vnfsgx;

namespace {

net::ServerOptions server_options() {
  net::ServerOptions s;
  s.workers = Deployment::kServerWorkers;
  s.shards = Deployment::kServerShards;
  s.burst_read_timeout = std::chrono::seconds(5);
  s.name = "perfbench";
  return s;
}

}  // namespace

Deployment::Deployment(const DeploymentOptions& o)
    : options(o),
      base_rng(o.seed),
      rng(base_rng),
      clock(1'700'000'000),
      ias(rng, clock),
      ias_router(ias::make_ias_router(ias)),
      vendor(crypto::ed25519_generate(rng)),
      vm(rng, clock,
         ias::IasClient([this] { return net.connect("ias.intel.example:443"); },
                        ias.report_signing_key())),
      runtime(server_options()) {
  runtime.listen_inmemory(net, "ias.intel.example:443",
                          http::make_http_driver_factory(ias_router));

  // A few hundred measured files beyond the base stack, so appraisal walks
  // a realistically sized IML. Every host installs the same files: the
  // appraisal database expects one digest per path.
  std::vector<Bytes> extra_files;
  for (std::size_t f = 0; f < kExtraImlEntries; ++f) {
    extra_files.push_back(rng.bytes(64));
  }
  for (std::size_t h = 0; h < o.hosts; ++h) {
    const std::string name = "host-" + std::to_string(h);
    auto machine = std::make_unique<host::ContainerHost>(name, rng);
    machine->boot();
    for (std::size_t f = 0; f < extra_files.size(); ++f) {
      const std::string path = "/usr/lib/perfbench/lib" + std::to_string(f) + ".so";
      machine->filesystem().write_file(
          path, extra_files[f], ima::FileMeta{.uid = 0, .executable = true});
      machine->ima().on_exec(path);
    }
    machine->load_attestation_enclave(vendor.seed);
    ias.register_platform(
        machine->sgx().platform_id(),
        machine->sgx().quoting_enclave().attestation_public_key());
    auto agent = std::make_unique<core::HostAgent>(*machine);
    auto* agent_ptr = agent.get();
    runtime.listen_inmemory(
        net, name + ":7000", net::frame_driver([agent_ptr](ByteView request) {
          return agent_ptr->serve_frame(request);
        }));
    machines.push_back(std::move(machine));
    agents.push_back(std::move(agent));
  }

  for (std::size_t h = 0; h < o.hosts; ++h) {
    for (std::size_t v = 0; v < o.vnfs_per_host; ++v) {
      VnfMember m;
      m.host = h;
      m.name = "vnf-" + std::to_string(h) + "-" + std::to_string(v);
      m.common_name = m.name + ".tenant";
      m.vnf = std::make_unique<vnf::Vnf>(m.name, *machines[h], vendor.seed,
                                         std::make_unique<vnf::FirewallFunction>());
      agents[h]->register_vnf(*m.vnf);
      members.push_back(std::move(m));
    }
  }
  // Golden-host enrollment once every container is running: the VNFs'
  // images are part of each host's expected IML.
  for (const auto& machine : machines) vm.appraisal().learn(machine->ima().list());

  for (std::size_t s = 1; s <= kSwitches; ++s) fabric.add_switch(s);

  controller::ControllerConfig cfg;
  cfg.name = kControllerName;
  cfg.mode = controller::SecurityMode::kTrustedHttps;
  const auto kp = crypto::ed25519_generate(rng);
  cfg.certificate = vm.ca().issue(
      {kControllerName, "vnfsgx"}, kp.public_key,
      static_cast<std::uint8_t>(pki::KeyUsage::kServerAuth),
      /*validity=*/365 * 24 * 3600);
  cfg.signer = tls::Config::software_signer(kp.seed);
  cfg.clock = &clock;
  cfg.rng = &rng;
  controller = std::make_unique<controller::Controller>(cfg, fabric);
  controller->trust_ca(vm.ca_certificate());

  // A fixed-size CRL built before any timed op: revocation re-signs the
  // whole list, so revoking inside the timed phase would make every op
  // dearer than the last. Serials sit far above the CA's sequential range
  // so no credential issued during the run is ever on the list.
  std::vector<std::uint64_t> serials;
  serials.reserve(kCrlEntries);
  for (std::size_t i = 0; i < kCrlEntries; ++i) {
    std::uint64_t r = 0;
    rng.fill({reinterpret_cast<std::uint8_t*>(&r), sizeof r});
    serials.push_back((std::uint64_t{1} << 40) | (r >> 24));
  }
  // Ascending, so each revoke appends to the CRL's serial block.
  std::sort(serials.begin(), serials.end());
  serials.erase(std::unique(serials.begin(), serials.end()), serials.end());
  pki::RevocationList crl;
  for (const std::uint64_t serial : serials) crl = vm.revoke_certificate(serial);
  controller->update_crl(crl);
  runtime.listen_inmemory(net, kControllerAddress, controller->driver_factory());
}

Deployment::~Deployment() {
  runtime.shutdown();
  net.join_all();
}

net::StreamPtr Deployment::agent_channel(std::size_t h) {
  return net.connect(machines[h]->name() + ":7000");
}

}  // namespace perfbench
