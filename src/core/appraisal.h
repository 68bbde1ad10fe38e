// Appraisal policy: the Verification Manager's database of expected
// measurements — golden IMA file digests and whitelisted enclave
// measurements — and the appraisal verdict logic.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "ima/measurement_list.h"
#include "obs/generational_cache.h"
#include "sgx/measurement.h"

namespace vnfsgx::core {

struct AppraisalResult {
  bool trustworthy = false;
  std::string reason;
  std::vector<std::string> offending_paths;
};

class AppraisalDatabase {
 public:
  /// Register the expected digest for a measured file.
  void expect_file(const std::string& path, const ima::Digest& digest);

  /// Convenience: learn all entries of a known-good IML as expectations
  /// (golden-host enrollment).
  void learn(const ima::MeasurementList& golden);

  /// Whitelist an enclave measurement (attestation / credential enclaves).
  void allow_enclave(const sgx::Measurement& mr_enclave);
  bool enclave_allowed(const sgx::Measurement& mr_enclave) const;

  /// Appraise a host's measurement list:
  ///  * violation entries (zero digest) => untrustworthy,
  ///  * entries for unknown paths       => untrustworthy,
  ///  * digest mismatches               => untrustworthy,
  /// otherwise trustworthy.
  AppraisalResult appraise(const ima::MeasurementList& iml) const;

  /// appraise() with memoization: the verdict for an IML is cached under
  /// SHA-256(encoded IML) + the current policy generation, so a fleet of
  /// hosts booted from one golden image appraises the shared list once.
  /// Any policy change (expect_file/learn/allow_enclave) bumps the
  /// generation and the very next appraisal re-evaluates — no stale-grant
  /// window. Callers must still bind `encoded_iml` to the attestation
  /// evidence (nonce/report-data checks) before trusting the verdict;
  /// only the policy appraisal is memoized. Thread-safe.
  AppraisalResult appraise_cached(ByteView encoded_iml,
                                  const ima::MeasurementList& iml) const;

  /// Policy generation; bumped by every mutation (cache-key component).
  std::uint64_t generation() const { return cache_.generation(); }

  // Cache telemetry for tests/benches (also exported as
  // vnfsgx_cache_requests_total{cache="appraisal"}).
  std::uint64_t cache_hits() const { return cache_.hits(); }
  std::uint64_t cache_misses() const { return cache_.misses(); }

  std::size_t expected_file_count() const { return expected_files_.size(); }

 private:
  // SHA-256 output is uniform: its first word is already a good hash.
  struct DigestHash {
    std::size_t operator()(const crypto::Sha256Digest& digest) const {
      std::size_t h;
      std::memcpy(&h, digest.data(), sizeof(h));
      return h;
    }
  };

  std::map<std::string, ima::Digest> expected_files_;
  std::set<sgx::Measurement> allowed_enclaves_;

  /// Memoized verdicts keyed by IML digest, invalidated by every policy
  /// mutation (the cache's generation is the policy generation).
  mutable obs::GenerationalCache<crypto::Sha256Digest, AppraisalResult,
                                 DigestHash>
      cache_{"appraisal", 1024};
};

}  // namespace vnfsgx::core
