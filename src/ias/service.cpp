#include "ias/service.h"

#include "common/base64.h"
#include "common/error.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace vnfsgx::ias {

std::string to_string(QuoteStatus status) {
  switch (status) {
    case QuoteStatus::kOk:
      return "OK";
    case QuoteStatus::kSignatureInvalid:
      return "SIGNATURE_INVALID";
    case QuoteStatus::kGroupRevoked:
      return "GROUP_REVOKED";
    case QuoteStatus::kUnknownPlatform:
      return "UNKNOWN_PLATFORM";
    case QuoteStatus::kMalformed:
      return "MALFORMED_QUOTE";
  }
  return "?";
}

namespace {
QuoteStatus status_from_string(const std::string& s) {
  if (s == "OK") return QuoteStatus::kOk;
  if (s == "SIGNATURE_INVALID") return QuoteStatus::kSignatureInvalid;
  if (s == "GROUP_REVOKED") return QuoteStatus::kGroupRevoked;
  if (s == "UNKNOWN_PLATFORM") return QuoteStatus::kUnknownPlatform;
  return QuoteStatus::kMalformed;
}
}  // namespace

QuoteStatus VerificationReport::status() const {
  return status_from_string(
      json::parse(body_json).at("isvEnclaveQuoteStatus").as_string());
}

std::string VerificationReport::report_id() const {
  return json::parse(body_json).at("id").as_string();
}

UnixTime VerificationReport::timestamp() const {
  return json::parse(body_json).at("timestamp").as_int();
}

sgx::ReportBody VerificationReport::quoted_enclave() const {
  const Bytes quote_bytes =
      base64_decode(json::parse(body_json).at("isvEnclaveQuoteBody").as_string());
  return sgx::Quote::decode(quote_bytes).body;
}

sgx::PlatformId VerificationReport::platform_id() const {
  const Bytes quote_bytes =
      base64_decode(json::parse(body_json).at("isvEnclaveQuoteBody").as_string());
  return sgx::Quote::decode(quote_bytes).platform_id;
}

bool VerificationReport::verify(const crypto::Ed25519PublicKey& ias_key) const {
  return crypto::ed25519_verify(ias_key, to_bytes(body_json),
                                ByteView(signature.data(), signature.size()));
}

IasService::IasService(crypto::RandomSource& rng, const Clock& clock)
    : rng_(rng),
      clock_(clock),
      signing_key_(crypto::Ed25519SigningKey::generate(rng)) {}

void IasService::register_platform(
    const sgx::PlatformId& id, const crypto::Ed25519PublicKey& attestation_key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  platforms_[id] = attestation_key;
  VNFSGX_LOG_INFO("ias", "platform registered (EPID join)");
}

void IasService::revoke_platform(const sgx::PlatformId& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  revoked_[id] = true;
  VNFSGX_LOG_WARN("ias", "platform added to signature revocation list");
}

bool IasService::is_revoked(const sgx::PlatformId& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = revoked_.find(id);
  return it != revoked_.end() && it->second;
}

std::optional<crypto::Ed25519PublicKey> IasService::attestation_key(
    const sgx::PlatformId& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto revoked = revoked_.find(id);
  if (revoked != revoked_.end() && revoked->second) return std::nullopt;
  const auto it = platforms_.find(id);
  if (it == platforms_.end()) return std::nullopt;
  return it->second;
}

VerificationReport IasService::verify_quote(ByteView quote_bytes) {
  sgx::Quote quote;
  try {
    quote = sgx::Quote::decode(quote_bytes);
  } catch (const ParseError&) {
    return sign_report(QuoteStatus::kMalformed, quote_bytes, nullptr);
  }

  crypto::Ed25519PublicKey attestation_key;
  bool known = false;
  bool revoked = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = platforms_.find(quote.platform_id);
    if (it != platforms_.end()) {
      known = true;
      attestation_key = it->second;
    }
    const auto rit = revoked_.find(quote.platform_id);
    revoked = rit != revoked_.end() && rit->second;
  }
  if (!known) {
    return sign_report(QuoteStatus::kUnknownPlatform, quote_bytes, &quote);
  }
  if (revoked) {
    return sign_report(QuoteStatus::kGroupRevoked, quote_bytes, &quote);
  }
  if (!crypto::ed25519_verify(attestation_key, quote.encode_tbs(),
                              ByteView(quote.signature.data(),
                                       quote.signature.size()))) {
    return sign_report(QuoteStatus::kSignatureInvalid, quote_bytes, &quote);
  }
  return sign_report(QuoteStatus::kOk, quote_bytes, &quote);
}

std::uint64_t IasService::reports_issued() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_report_id_ - 1;
}

VerificationReport IasService::sign_report(QuoteStatus status,
                                           ByteView quote_bytes,
                                           const sgx::Quote* quote) {
  std::uint64_t id;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = next_report_id_++;
  }
  obs::registry()
      .counter("vnfsgx_ias_reports_total", {{"status", to_string(status)}},
               "Attestation verification reports signed by the IAS, "
               "by quote status")
      .add();
  json::Object body;
  body["id"] = "avr-" + std::to_string(id);
  body["version"] = 4;
  body["timestamp"] = static_cast<std::int64_t>(clock_.now());
  body["isvEnclaveQuoteStatus"] = to_string(status);
  // Echo the quote body (base64) so the verifier can bind the AVR to the
  // quote it submitted, like the real isvEnclaveQuoteBody field.
  const Bytes echoed = quote ? quote->encode()
                             : Bytes(quote_bytes.begin(), quote_bytes.end());
  body["isvEnclaveQuoteBody"] = base64_encode(echoed);

  VerificationReport report;
  report.body_json = json::serialize(json::Value(std::move(body)));
  report.signature =
      signing_key_.sign(to_bytes(report.body_json));
  return report;
}

}  // namespace vnfsgx::ias
