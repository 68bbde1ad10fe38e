// F1-S5: credential generation + signing + provisioning into the enclave.
//
// Measures the full step 5 (CA issues a certificate for the enclave-held
// key and provisions it over the agent channel), its components (keypair
// generation inside the enclave, certificate signing), and batch
// throughput for fleets of VNFs.
#include <benchmark/benchmark.h>

#include <vector>

#include "testbed.h"

namespace {

using namespace vnfsgx;
using namespace vnfsgx::examples;

struct ProvisioningBed {
  Testbed bed;
  SimHost* host;
  std::vector<std::unique_ptr<vnf::Vnf>> vnfs;

  explicit ProvisioningBed(int vnf_count) {
    set_log_level(LogLevel::kOff);
    host = &bed.add_host("host-1");
    for (int i = 0; i < vnf_count; ++i) {
      vnfs.push_back(std::make_unique<vnf::Vnf>(
          "vnf-" + std::to_string(i), *host->machine, bed.vendor.seed,
          std::make_unique<vnf::MonitorFunction>()));
      host->agent->register_vnf(*vnfs.back());
    }
    bed.learn_golden(*host);
    auto channel = bed.agent_channel(*host);
    bed.vm.attest_host(*channel);
    for (int i = 0; i < vnf_count; ++i) {
      bed.vm.attest_vnf(*channel, "vnf-" + std::to_string(i));
    }
  }
};

void BM_EnrollSingleVnf(benchmark::State& state) {
  ProvisioningBed p(1);
  auto channel = p.bed.agent_channel(*p.host);
  for (auto _ : state) {
    const auto cert = p.bed.vm.enroll_vnf(*channel, "vnf-0", "vnf-0");
    if (!cert) state.SkipWithError("enrollment failed");
    benchmark::DoNotOptimize(cert);
  }
  state.counters["certs_issued"] =
      static_cast<double>(p.bed.vm.credentials_issued());
}
BENCHMARK(BM_EnrollSingleVnf)->Unit(benchmark::kMicrosecond);

void BM_EnrollBatch(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  ProvisioningBed p(count);
  auto channel = p.bed.agent_channel(*p.host);
  for (auto _ : state) {
    for (int i = 0; i < count; ++i) {
      const auto cert =
          p.bed.vm.enroll_vnf(*channel, "vnf-" + std::to_string(i),
                              "vnf-" + std::to_string(i));
      if (!cert) state.SkipWithError("enrollment failed");
    }
  }
  state.counters["vnfs"] = count;
  state.counters["enrolls_per_sec"] = benchmark::Counter(
      static_cast<double>(count) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EnrollBatch)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_InEnclaveKeyGeneration(benchmark::State& state) {
  // The enclave-side component: fresh Ed25519 keypair behind one ECALL.
  set_log_level(LogLevel::kOff);
  Testbed bed;
  SimHost& host = bed.add_host("host-1");
  const sgx::EnclaveImage image = vnf::credential_enclave_image();
  const sgx::SigStruct sig = sgx::sign_enclave(
      bed.vendor.seed, sgx::measure_image(image.code, image.attributes), 10, 1);

  for (auto _ : state) {
    auto enclave = host.machine->sgx().load_enclave(image, sig);
    vnf::CredentialClient client(enclave);
    benchmark::DoNotOptimize(client.generate_key());
    enclave->destroy();
  }
}
BENCHMARK(BM_InEnclaveKeyGeneration)->Unit(benchmark::kMicrosecond);

void BM_CertificateIssue(benchmark::State& state) {
  // The CA-side component: sign one client certificate.
  crypto::DeterministicRandom rng(3);
  SimClock clock(1'700'000'000);
  pki::CertificateAuthority ca({"vm-ca", ""}, rng, clock);
  const auto subject = crypto::ed25519_generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ca.issue(
        {"vnf", ""}, subject.public_key,
        static_cast<std::uint8_t>(pki::KeyUsage::kClientAuth)));
  }
}
BENCHMARK(BM_CertificateIssue)->Unit(benchmark::kMicrosecond);

void BM_SealRestoreState(benchmark::State& state) {
  // Persistence path: seal + restore of the credential state.
  ProvisioningBed p(1);
  auto channel = p.bed.agent_channel(*p.host);
  p.bed.vm.enroll_vnf(*channel, "vnf-0", "vnf-0");
  auto& credentials = p.vnfs[0]->credentials();
  for (auto _ : state) {
    const Bytes sealed = credentials.seal_state();
    credentials.restore_state(sealed);
    benchmark::DoNotOptimize(sealed);
  }
}
BENCHMARK(BM_SealRestoreState)->Unit(benchmark::kMicrosecond);

// The fixture serials first, first + step, ...: the CRLs below are built
// with one batch revoke, then the timed loops revoke one at a time.
std::vector<std::uint64_t> serial_range(std::int64_t count, std::uint64_t first,
                                        std::uint64_t step) {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = first + i * step;
  return out;
}

void BM_Revocation(benchmark::State& state) {
  // CRL re-signing as the revoked set grows.
  crypto::DeterministicRandom rng(4);
  SimClock clock(1'700'000'000);
  pki::CertificateAuthority ca({"vm-ca", ""}, rng, clock);
  ca.revoke(serial_range(state.range(0), 100, 1));
  std::uint64_t serial = 100000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ca.revoke(serial++));
  }
  state.counters["crl_size"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Revocation)->Arg(0)->Arg(100)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_RevocationOutOfOrder(benchmark::State& state) {
  // Worst case for the CA's incrementally-maintained serial block: each
  // revocation lands mid-sequence, forcing a full re-encode before the
  // re-sign (in-order revocations — BM_Revocation — append instead).
  crypto::DeterministicRandom rng(4);
  SimClock clock(1'700'000'000);
  pki::CertificateAuthority ca({"vm-ca", ""}, rng, clock);
  ca.revoke(serial_range(state.range(0), 100, 2));
  std::uint64_t odd = 101;  // falls between existing even serials
  for (auto _ : state) {
    benchmark::DoNotOptimize(ca.revoke(odd));
    odd += 2;
  }
  state.counters["crl_size"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RevocationOutOfOrder)
    ->Arg(100)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_CrlLookup(benchmark::State& state) {
  // Verifier-side revocation check against a CRL of crl_size serials. The
  // sorted-serial index makes this a binary search; every trusted-HTTPS
  // handshake and every cached certificate verdict replays this check.
  crypto::DeterministicRandom rng(5);
  SimClock clock(1'700'000'000);
  pki::CertificateAuthority ca({"vm-ca", ""}, rng, clock);
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const pki::RevocationList crl =
      ca.revoke(serial_range(state.range(0), 100, 2));
  std::uint64_t probe = 100;
  for (auto _ : state) {
    // Alternate hits (even) and misses (odd) across the serial range.
    benchmark::DoNotOptimize(crl.is_revoked(probe));
    probe = (probe + 1) % (2 * n + 200);
  }
  state.counters["crl_size"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_CrlLookup)
    ->Arg(100)
    ->Arg(10000)
    ->Unit(benchmark::kNanosecond);

}  // namespace
