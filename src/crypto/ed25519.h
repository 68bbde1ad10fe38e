// Ed25519 signatures (RFC 8032).
//
// Every signature in the system is Ed25519: certificate signatures (the
// Verification Manager's CA), TLS CertificateVerify, SGX quote signatures
// (the simulator's EPID stand-in), and IAS report signatures.
//
// Fixed-base scalar multiplications (keygen, sign) run against a
// precomputed 32x8 window table of base-point multiples. Verification has
// two paths, chosen by what the caller holds:
//   * a long-lived key (the IAS report key, registered quoting-enclave
//     keys, CA anchors, TPM AIKs) is held as an Ed25519VerifyingKey, which
//     builds a 16x8 window table of -A once; each verify is then table
//     lookups for both scalars in one radix-16 pass with 12 doublings;
//   * a key seen once (a fresh VNF key's CertificateVerify, fleet batches)
//     goes through ed25519_verify / ed25519_verify_batch, an interleaved
//     Straus double-scalar multiplication that needs no table.
// Both give bit-identical verdicts. All of them are variable-time on
// public inputs only — see docs/PROTOCOL.md, "Constant-time notes".
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/secure.h"
#include "crypto/random.h"

namespace vnfsgx::crypto {

inline constexpr std::size_t kEd25519SeedSize = 32;
inline constexpr std::size_t kEd25519PublicKeySize = 32;
inline constexpr std::size_t kEd25519SignatureSize = 64;

using Ed25519Seed = std::array<std::uint8_t, kEd25519SeedSize>;
using Ed25519PublicKey = std::array<std::uint8_t, kEd25519PublicKeySize>;
using Ed25519Signature = std::array<std::uint8_t, kEd25519SignatureSize>;

struct Ed25519KeyPair {
  // The RFC 8032 private key (32-byte seed); wiped when the pair dies.
  Zeroizing<Ed25519Seed> seed;
  Ed25519PublicKey public_key{};
};

/// An expanded signing key: the clamped secret scalar a, the nonce prefix
/// and the public key A = a·B, all derived from a seed exactly once (RFC
/// 8032 §5.1.5), so signing pays for neither the seed hash nor the a·B
/// multiplication and its inversion. Immutable, and only ever built from
/// a seed: signing with an A that does not match a leaks a, so there is
/// deliberately no way to supply A. The secret halves wipe themselves.
/// Long-lived signers (CAs, the IAS, TPM AIKs, the quoting enclave, TLS
/// identities, the credential enclave) each hold one.
class Ed25519SigningKey {
 public:
  explicit Ed25519SigningKey(const Ed25519Seed& seed);
  /// Expand a fresh seed drawn from `rng` (the seed itself is not kept).
  static Ed25519SigningKey generate(RandomSource& rng);

  const Ed25519PublicKey& public_key() const { return public_key_; }

  /// Deterministic signature over `message`; byte-identical to
  /// ed25519_sign(seed, message).
  Ed25519Signature sign(ByteView message) const;

 private:
  Zeroizing<std::array<std::uint8_t, 32>> scalar_;  // clamped a
  Zeroizing<std::array<std::uint8_t, 32>> prefix_;  // nonce prefix
  Ed25519PublicKey public_key_{};
};

/// A public key prepared for repeated verification: the decoded point -A
/// and a fixed-window table of its multiples, (j+1)·16^(4r)·(-A) for 16
/// rows r and 8 multiples j (15 KiB), built once (about 1.5 one-off
/// verifies' worth). verify() then needs 12 doublings instead of the ~253
/// of the Straus pass, and no square root to decode A.
///
/// Immutable; copies share the table, so a holder can hand the key out
/// under its lock without copying 15 KiB. A public key that does not decode
/// to a curve point yields no object at all: holders keep
/// std::optional<Ed25519VerifyingKey> and reject every signature when it is
/// empty, exactly as ed25519_verify rejects them for that key.
class Ed25519VerifyingKey {
 public:
  /// The prepared key, or nullopt when `public_key` is not a canonical
  /// point encoding.
  static std::optional<Ed25519VerifyingKey> from_public_key(
      const Ed25519PublicKey& public_key);

  const Ed25519PublicKey& public_key() const;

  /// Verdict bit-identical to ed25519_verify(public_key(), message,
  /// signature).
  bool verify(ByteView message, ByteView signature) const;

 private:
  struct Table;
  explicit Ed25519VerifyingKey(std::shared_ptr<const Table> table);

  std::shared_ptr<const Table> table_;
};

/// Derive the public key from a seed.
Ed25519PublicKey ed25519_public_key(const Ed25519Seed& seed);

/// Generate a fresh keypair.
Ed25519KeyPair ed25519_generate(RandomSource& rng);

/// Deterministic signature over `message`. Expands the seed on every
/// call; callers that sign more than once hold an Ed25519SigningKey.
Ed25519Signature ed25519_sign(const Ed25519Seed& seed, ByteView message);

/// Verify under a key seen once. Rejects non-canonical s (s >= L) and
/// undecodable points. Callers that verify under the same key again hold
/// an Ed25519VerifyingKey.
bool ed25519_verify(const Ed25519PublicKey& public_key, ByteView message,
                    ByteView signature);

/// One (key, message, signature) triple of a verification batch.
struct Ed25519BatchItem {
  Ed25519PublicKey public_key{};
  ByteView message;
  ByteView signature;
};

/// Random-linear-combination batch verification: checks
///   Σ z_i·R_i + Σ (z_i·k_i mod L)·A_i − (Σ z_i·s_i mod L)·B == identity
/// for 128-bit random coefficients z_i, evaluated as one multi-scalar
/// Straus pass whose doubling chain is shared across the whole batch
/// (~3-4x fewer point operations per signature than verifying serially).
///
/// The per-item verdicts are always identical to calling ed25519_verify on
/// each item: items failing the single-verify input checks (bad length,
/// non-canonical s, undecodable A or R) are rejected up front and excluded
/// from the combined equation, and if the combined equation does not hold
/// the remaining items fall back to individual verification, identifying
/// exactly which signatures are bad while the rest still pass.
///
/// `rng` supplies the blinding coefficients; when null they are derived by
/// hashing the entire batch (domain-separated SHA-512), which commits the
/// coefficients to all inputs before any is chosen.
std::vector<bool> ed25519_verify_batch(std::span<const Ed25519BatchItem> items,
                                       RandomSource* rng = nullptr);

/// Fixed-base scalar multiplication exported for X25519 key generation:
/// computes scalar·B on edwards25519 via the precomputed window table and
/// returns the Montgomery u-coordinate of the birationally equivalent
/// curve25519 point, u = (1+y)/(1-y). For an RFC 7748 clamped scalar this
/// equals x25519(scalar, 9) at a fraction of the Montgomery-ladder cost —
/// the table amortizes the ~255-step doubling chain away. Scalar domain:
/// clamped scalars and values reduced mod L.
std::array<std::uint8_t, 32> ed25519_base_montgomery_u(
    const std::array<std::uint8_t, 32>& scalar_le);

namespace detail {

/// Test hooks: encoded scalar·B computed by the reference double-and-add
/// ladder and by the precomputed window table, for cross-checking the two
/// paths on arbitrary scalars. Scalars must be < 2^253 (clamped secret
/// scalars and values reduced mod L both qualify).
std::array<std::uint8_t, 32> base_mul_ladder(
    const std::array<std::uint8_t, 32>& scalar_le);
std::array<std::uint8_t, 32> base_mul_windowed(
    const std::array<std::uint8_t, 32>& scalar_le);

/// Test hook: the encoding of P + Q for two encoded points, or nullopt
/// when either does not decode (builds mixed- and small-order keys).
std::optional<std::array<std::uint8_t, 32>> point_add_encoded(
    const std::array<std::uint8_t, 32>& p,
    const std::array<std::uint8_t, 32>& q);

/// Test hooks for the scalar arithmetic mod L: reduction of a 64-byte
/// little-endian value, and (a·b + c) mod L for 32-byte little-endian
/// inputs. Both return the canonical 32-byte residue.
std::array<std::uint8_t, 32> scalar_reduce(ByteView wide64);
std::array<std::uint8_t, 32> scalar_mul_add(
    const std::array<std::uint8_t, 32>& a,
    const std::array<std::uint8_t, 32>& b,
    const std::array<std::uint8_t, 32>& c);

}  // namespace detail

}  // namespace vnfsgx::crypto
