// AES-GCM authenticated encryption (NIST SP 800-38D).
//
// The AEAD used everywhere: TLS records, SGX sealed blobs, and the
// provisioning protocol's encrypted credential payloads.
//
// GHASH runs on PCLMULQDQ carry-less multiplication when the CPU has it,
// else on the branchless bit-at-a-time GF(2^128) multiply. Neither path
// indexes a table or branches on data, so both are constant-time (see
// docs/PROTOCOL.md, "Constant-time notes").
#pragma once

#include <optional>

#include "common/bytes.h"
#include "common/secure.h"
#include "crypto/aes.h"

namespace vnfsgx::crypto {

inline constexpr std::size_t kGcmTagSize = 16;
inline constexpr std::size_t kGcmNonceSize = 12;

/// True when this build and CPU run GHASH on PCLMULQDQ.
bool ghash_hw_available();

/// AES-GCM context bound to one key. Nonces must be 12 bytes (the TLS and
/// sealing layers both construct 12-byte nonces).
class AesGcm {
 public:
  explicit AesGcm(ByteView key);

  /// Encrypt + authenticate. Returns ciphertext || 16-byte tag.
  Bytes seal(ByteView nonce, ByteView plaintext, ByteView aad) const;

  /// Verify + decrypt ciphertext||tag. Returns nullopt on authentication
  /// failure (the caller decides whether that is fatal).
  std::optional<Bytes> open(ByteView nonce, ByteView ciphertext_and_tag,
                            ByteView aad) const;

  /// Zero-copy seal: encrypts data[0..len) in place and writes the 16-byte
  /// tag to tag_out (which may alias data+len in a larger buffer).
  void seal_in_place(ByteView nonce, std::uint8_t* data, std::size_t len,
                     ByteView aad, std::uint8_t* tag_out) const;

  /// Zero-copy open: authenticates data[0..len) against tag, then decrypts
  /// in place. Returns false (leaving data as ciphertext) on tag mismatch.
  bool open_in_place(ByteView nonce, std::uint8_t* data, std::size_t len,
                     ByteView aad, ByteView tag) const;

 private:
  AesBlock ghash(ByteView aad, ByteView ciphertext) const;

  // GHASH key H = E_K(0^128), split into 64-bit halves. Key-equivalent,
  // hence wiped on destruct.
  struct GhashKey {
    std::uint64_t h_hi = 0;
    std::uint64_t h_lo = 0;
  };

  Aes aes_;
  Zeroizing<GhashKey> ghash_key_;
};

namespace detail {

/// Test hooks: X·Y in GF(2^128) (GCM bit order) computed by the
/// bit-at-a-time multiply of SP 800-38D, the oracle both fast multipliers
/// are cross-checked against on arbitrary inputs.
AesBlock ghash_mul_reference(const AesBlock& x, const AesBlock& y);
/// X·Y by the software multiply GHASH runs on CPUs without PCLMUL
/// (masked integer multiplies).
AesBlock ghash_mul_software(const AesBlock& x, const AesBlock& y);
/// GHASH_H(aad, ciphertext) on the software path whatever the CPU offers:
/// partial-block padding, the AAD/ciphertext split and the length block,
/// so tests can hold it against the tag AesGcm computes in hardware.
AesBlock ghash_software(const AesBlock& h, ByteView aad, ByteView ciphertext);
/// PCLMUL path when available (falls back to the software multiply
/// otherwise).
AesBlock ghash_mul_clmul(const AesBlock& x, const AesBlock& y);

}  // namespace detail

}  // namespace vnfsgx::crypto
