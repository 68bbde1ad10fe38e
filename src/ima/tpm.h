// Simulated Trusted Platform Module (TPM 2.0-style, minimal profile).
//
// The paper's §4 future work: "integrity measurements are thus vulnerable
// to tampering by an adversary having root access... we intend to implement
// a communication protocol to enable the integrity attestation enclave to
// retrieve authenticated integrity measurements from a TPM deployed on the
// platform."
//
// This module implements that protocol's hardware end: PCR banks with
// extend semantics, an attestation identity key (AIK), and TPM quotes
// (signed PCR digests bound to a caller nonce). The kernel-side IMA
// subsystem extends PCR 10 on every measurement, so a root attacker who
// rewrites the in-memory IML can no longer produce a matching PCR-10 quote
// — the tamper the paper could not detect becomes detectable.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>

#include "common/bytes.h"
#include "crypto/ed25519.h"
#include "crypto/random.h"

namespace vnfsgx::ima {

using Pcr = std::array<std::uint8_t, 32>;

inline constexpr std::size_t kTpmPcrCount = 24;
inline constexpr std::uint32_t kImaPcrIndex = 10;

/// A signed TPM quote: selected PCR values digest + nonce, AIK-signed.
struct TpmQuote {
  std::uint32_t pcr_index = 0;
  Pcr pcr_value{};
  std::array<std::uint8_t, 32> nonce{};
  crypto::Ed25519Signature signature{};

  Bytes tbs() const;
  Bytes encode() const;
  static TpmQuote decode(ByteView data);

  /// Verify against the platform's AIK public key.
  bool verify(const crypto::Ed25519PublicKey& aik) const;
};

class Tpm {
 public:
  explicit Tpm(crypto::RandomSource& rng);

  /// TPM2_PCR_Extend: pcr' = SHA256(pcr || digest). Thread-safe.
  void extend(std::uint32_t pcr_index, ByteView digest);

  /// TPM2_PCR_Read.
  Pcr read(std::uint32_t pcr_index) const;

  /// TPM2_Quote over one PCR, bound to a fresh caller nonce.
  TpmQuote quote(std::uint32_t pcr_index,
                 const std::array<std::uint8_t, 32>& nonce) const;

  /// The attestation identity key's public half (enrolled with verifiers
  /// out of band, like an AIK certificate).
  const crypto::Ed25519PublicKey& aik_public_key() const {
    return aik_.public_key();
  }

 private:
  mutable std::mutex mutex_;
  std::array<Pcr, kTpmPcrCount> pcrs_{};
  const crypto::Ed25519SigningKey aik_;
};

}  // namespace vnfsgx::ima
