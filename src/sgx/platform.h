// Simulated SGX platform: device keys, EPC accounting, enclave loading
// (ECREATE..EINIT), report/seal key derivation, and the Quoting Enclave.
//
// The device root key stands in for the fused SGX keys: every platform-
// bound derivation (report keys, seal keys, the attestation key) descends
// from it via label-separated HKDF, so blobs and reports are meaningless
// on any other platform — the property real SGX gets from silicon.
#pragma once

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/secure.h"
#include "crypto/random.h"
#include "sgx/enclave.h"

namespace vnfsgx::sgx {

struct PlatformOptions {
  /// Total EPC capacity; enclave loading fails beyond it (mirrors the
  /// 93.5 MiB usable EPC of v1 hardware by default).
  std::size_t epc_capacity = 93 * 1024 * 1024;

  /// Synthetic cost of one enclave crossing (ECALL entry+exit), the
  /// dominant SGX overhead the paper's future-work section asks about.
  /// Real-world transitions cost ~8k cycles ≈ 2-4 µs.
  std::chrono::nanoseconds crossing_cost{2000};
};

class QuotingEnclave;

class SgxPlatform {
 public:
  explicit SgxPlatform(crypto::RandomSource& rng, std::string name = "host",
                       PlatformOptions options = {});
  ~SgxPlatform();

  SgxPlatform(const SgxPlatform&) = delete;
  SgxPlatform& operator=(const SgxPlatform&) = delete;

  const std::string& name() const { return name_; }
  const PlatformId& platform_id() const { return platform_id_; }
  const PlatformOptions& options() const { return options_; }

  /// ECREATE..EINIT: measure the image, verify the SIGSTRUCT (vendor
  /// signature + measurement match), reserve EPC, and construct the
  /// trusted logic. Throws SecurityViolation on any mismatch.
  std::shared_ptr<Enclave> load_enclave(const EnclaveImage& image,
                                        const SigStruct& sigstruct);

  /// EPC currently in use / capacity.
  std::size_t epc_used() const;

  QuotingEnclave& quoting_enclave() { return *quoting_enclave_; }

  /// Total ECALL crossings across all enclaves on this platform.
  std::uint64_t total_crossings() const {
    return total_crossings_.load(std::memory_order_relaxed);
  }

 private:
  friend class Enclave;
  friend class EnclaveEntry;
  friend class QuotingEnclave;

  /// Report key for reports targeted at the enclave with `target_mr`.
  SecureBytes report_key(const Measurement& target_mr) const;

  /// Seal key bound to identity + key id.
  SecureBytes seal_key(SealPolicy policy, const Measurement& identity,
                       ByteView key_id) const;

  void release_epc(std::size_t bytes);
  void charge_crossing();

  std::string name_;
  PlatformOptions options_;
  crypto::RandomSource& rng_;
  SecureBytes device_root_key_;  // stand-in for the fused SGX keys
  PlatformId platform_id_{};
  mutable std::mutex mutex_;
  std::size_t epc_used_ = 0;
  std::atomic<std::uint64_t> total_crossings_{0};
  std::unique_ptr<QuotingEnclave> quoting_enclave_;
};

/// The Quoting Enclave: verifies local-attestation reports targeted at it
/// and converts them into quotes signed with the platform attestation key
/// (the simulator's EPID membership). The key is registered with the IAS
/// simulator during platform provisioning.
class QuotingEnclave {
 public:
  explicit QuotingEnclave(SgxPlatform& platform, crypto::RandomSource& rng);

  /// Target info other enclaves use to direct reports at the QE.
  TargetInfo target_info() const;

  /// Verify the report's MAC (local attestation) and produce a signed
  /// quote. Throws SecurityViolation if the report does not verify.
  Quote quote(const Report& report) const;

  /// Public half of the attestation key, for IAS registration.
  const crypto::Ed25519PublicKey& attestation_public_key() const {
    return attestation_key_.public_key();
  }

 private:
  SgxPlatform& platform_;
  Measurement measurement_;
  const crypto::Ed25519SigningKey attestation_key_;
};

}  // namespace vnfsgx::sgx
