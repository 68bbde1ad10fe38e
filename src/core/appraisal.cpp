#include "core/appraisal.h"

namespace vnfsgx::core {

void AppraisalDatabase::expect_file(const std::string& path,
                                    const ima::Digest& digest) {
  expected_files_[path] = digest;
  cache_.bump();
}

void AppraisalDatabase::learn(const ima::MeasurementList& golden) {
  for (const ima::ImaEntry& entry : golden.entries()) {
    if (!entry.is_violation()) {
      expected_files_[entry.file_path] = entry.file_digest;
    }
  }
  cache_.bump();
}

void AppraisalDatabase::allow_enclave(const sgx::Measurement& mr_enclave) {
  allowed_enclaves_.insert(mr_enclave);
  cache_.bump();
}

bool AppraisalDatabase::enclave_allowed(
    const sgx::Measurement& mr_enclave) const {
  return allowed_enclaves_.count(mr_enclave) > 0;
}

AppraisalResult AppraisalDatabase::appraise(
    const ima::MeasurementList& iml) const {
  AppraisalResult result;
  for (const ima::ImaEntry& entry : iml.entries()) {
    if (entry.is_violation()) {
      result.reason = "measurement violation recorded";
      result.offending_paths.push_back(entry.file_path);
      continue;
    }
    const auto it = expected_files_.find(entry.file_path);
    if (it == expected_files_.end()) {
      result.reason = "unexpected file measured";
      result.offending_paths.push_back(entry.file_path);
      continue;
    }
    if (it->second != entry.file_digest) {
      result.reason = "file digest mismatch";
      result.offending_paths.push_back(entry.file_path);
    }
  }
  result.trustworthy = result.offending_paths.empty();
  if (result.trustworthy) result.reason = "all measurements match";
  return result;
}

AppraisalResult AppraisalDatabase::appraise_cached(
    ByteView encoded_iml, const ima::MeasurementList& iml) const {
  const crypto::Sha256Digest key = crypto::Sha256::hash(encoded_iml);
  const std::uint64_t generation = cache_.generation();
  if (auto cached = cache_.find(key)) return std::move(*cached);
  const AppraisalResult result = appraise(iml);
  cache_.store(key, result, generation);
  return result;
}

}  // namespace vnfsgx::core
