#include "sgx/platform.h"

#include <thread>

#include "common/logging.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"

namespace vnfsgx::sgx {

SgxPlatform::SgxPlatform(crypto::RandomSource& rng, std::string name,
                         PlatformOptions options)
    : name_(std::move(name)), options_(options), rng_(rng) {
  device_root_key_ = rng_.bytes(32);
  rng_.fill(platform_id_);
  quoting_enclave_ = std::make_unique<QuotingEnclave>(*this, rng_);
  VNFSGX_LOG_INFO("sgx", "platform '", name_, "' initialized");
}

SgxPlatform::~SgxPlatform() = default;

std::shared_ptr<Enclave> SgxPlatform::load_enclave(const EnclaveImage& image,
                                                   const SigStruct& sigstruct) {
  // EINIT checks: vendor signature, then measurement match.
  if (!sigstruct.verify()) {
    throw SecurityViolation("EINIT: SIGSTRUCT signature invalid for '" +
                            image.name + "'");
  }
  const Measurement measured = measure_image(image.code, image.attributes);
  if (measured != sigstruct.enclave_measurement) {
    throw SecurityViolation(
        "EINIT: measurement mismatch for '" + image.name +
        "' (image does not match the vendor-signed measurement)");
  }
  if (!image.factory) {
    throw Error("load_enclave: image has no logic factory");
  }

  // EPC reservation: code pages + a fixed heap/stack allowance.
  const std::size_t epc_bytes = image.code.size() + 64 * 1024;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (epc_used_ + epc_bytes > options_.epc_capacity) {
      throw Error("load_enclave: EPC exhausted (" +
                  std::to_string(epc_used_) + " + " +
                  std::to_string(epc_bytes) + " > " +
                  std::to_string(options_.epc_capacity) + ")");
    }
    epc_used_ += epc_bytes;
  }

  ReportBody body;
  body.mr_enclave = measured;
  body.mr_signer = sigstruct.mr_signer();
  body.isv_prod_id = sigstruct.isv_prod_id;
  body.isv_svn = sigstruct.isv_svn;
  body.attributes = image.attributes;

  VNFSGX_LOG_INFO("sgx", "enclave '", image.name, "' loaded on '", name_,
                  "' mrenclave=", to_hex_string(measured).substr(0, 16));
  return std::shared_ptr<Enclave>(
      new Enclave(*this, image.name, body, image.factory(), epc_bytes));
}

std::size_t SgxPlatform::epc_used() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return epc_used_;
}

SecureBytes SgxPlatform::report_key(const Measurement& target_mr) const {
  return crypto::hkdf(device_root_key_, to_bytes("sgx-report-key"), target_mr,
                      32);
}

SecureBytes SgxPlatform::seal_key(SealPolicy policy,
                                  const Measurement& identity,
                                  ByteView key_id) const {
  Bytes info;
  append_u8(info, static_cast<std::uint8_t>(policy));
  append(info, identity);
  append(info, key_id);
  return crypto::hkdf(device_root_key_, to_bytes("sgx-seal-key"), info, 16);
}

void SgxPlatform::release_epc(std::size_t bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  epc_used_ -= std::min(epc_used_, bytes);
}

void SgxPlatform::charge_crossing() {
  total_crossings_.fetch_add(1, std::memory_order_relaxed);
  if (options_.crossing_cost.count() <= 0) return;
  // Spin: crossings are sub-microsecond, far below sleep granularity.
  const auto until = std::chrono::steady_clock::now() + options_.crossing_cost;
  while (std::chrono::steady_clock::now() < until) {
    // busy-wait
  }
}

// ---------------------------------------------------------------------------
// QuotingEnclave
// ---------------------------------------------------------------------------

QuotingEnclave::QuotingEnclave(SgxPlatform& platform, crypto::RandomSource& rng)
    : platform_(platform),
      attestation_key_(crypto::Ed25519SigningKey::generate(rng)) {
  // The QE has its own (fixed) identity; other enclaves target reports at it.
  const Bytes qe_code = to_bytes("vnfsgx-quoting-enclave-v1");
  measurement_ = measure_image(qe_code, 0);
}

TargetInfo QuotingEnclave::target_info() const {
  TargetInfo info;
  info.mr_enclave = measurement_;
  return info;
}

Quote QuotingEnclave::quote(const Report& report) const {
  // Local attestation: recompute the MAC with the QE's report key.
  const SecureBytes key = platform_.report_key(measurement_);
  if (!crypto::hmac_sha256_verify(key, report.body.encode(),
                                  ByteView(report.mac.data(),
                                           report.mac.size()))) {
    throw SecurityViolation(
        "quoting enclave: report MAC invalid (not produced on this "
        "platform or targeted elsewhere)");
  }
  Quote quote;
  quote.platform_id = platform_.platform_id();
  quote.body = report.body;
  quote.signature =
      attestation_key_.sign(quote.encode_tbs());
  return quote;
}

}  // namespace vnfsgx::sgx
