// Trust store: the verifier-side policy for accepting peer certificates.
//
// This is the paper's key operational insight (§3): instead of loading
// every client certificate into the controller's keystore, the controller
// trusts the Verification Manager's CA certificate and validates the
// signature chain + validity window + revocation status.
#pragma once

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "obs/generational_cache.h"
#include "pki/certificate.h"
#include "pki/crl.h"

namespace vnfsgx::pki {

enum class VerifyStatus {
  kOk,
  kUnknownIssuer,
  kBadSignature,
  kExpired,
  kNotYetValid,
  kRevoked,
  kWrongUsage,
  kIssuerNotCa,
  kAttestationFailed,
};

std::string to_string(VerifyStatus status);

struct VerifyResult {
  VerifyStatus status = VerifyStatus::kOk;
  /// True when the certificate's trust derives from verified attestation
  /// evidence (RA-TLS) rather than a CA signature. Callers that demand an
  /// attested peer must check this, not just ok() — a plain CA certificate
  /// verifying kOk is the downgrade case.
  bool attested = false;
  bool ok() const { return status == VerifyStatus::kOk; }
};

/// Appraises attestation evidence embedded in a certificate (RA-TLS). The
/// verifier is consulted for certificates it recognizes *instead of* the CA
/// chain: an RA-TLS certificate is self-signed and earns trust from its
/// quote, not from an issuer. Implementations live above pki (src/ratls
/// binds the quote signature, report-data <-> key binding, and measurement
/// policy); pki only defines the delegation seam so TrustStore's validation
/// cache covers attested certificates too.
class AttestedCertVerifier {
 public:
  virtual ~AttestedCertVerifier() = default;

  /// True if `leaf` carries attestation evidence this verifier understands.
  virtual bool recognizes(const Certificate& leaf) const = 0;

  /// Full appraisal (self-signature, evidence binding, quote signature,
  /// measurement policy). kOk means the certificate is attested; anything
  /// else is surfaced through VerifyResult::status.
  virtual VerifyStatus appraise(const Certificate& leaf) const = 0;

  /// Burst form: one verdict per leaf, identical to appraise() per leaf.
  /// Implementations may fold the signature checks into one Ed25519 batch.
  virtual std::vector<VerifyStatus> appraise_batch(
      std::span<const Certificate* const> leaves) const {
    std::vector<VerifyStatus> out;
    out.reserve(leaves.size());
    for (const Certificate* leaf : leaves) out.push_back(appraise(*leaf));
    return out;
  }

  /// Appraisal-policy generation. Cached verdicts for recognized
  /// certificates embed it in their cache key, so a policy bump invalidates
  /// cached RA-TLS accepts on the very next request.
  virtual std::uint64_t policy_generation() const = 0;
};

/// Thread-safe: verification may run concurrently with add_root/set_crl
/// (revocation during live TLS handshakes).
///
/// Repeat validations are served from an internal cache keyed by
/// certificate fingerprint + key usage, invalidated explicitly by a
/// truststore generation counter that every add_root/set_crl bumps — a
/// revoked certificate misses the cache on the very next verify, there is
/// no stale-grant window. Only time-independent facts (issuer, signature,
/// usage, revocation status) are cached; the validity window is re-checked
/// against `now` on every hit. Keys are fingerprints (SHA-256 of the public
/// encoding), never key material.
class TrustStore {
 public:
  /// Trust a CA root. The certificate must be a CA cert; throws otherwise.
  void add_root(const Certificate& root);

  /// Install/replace the CRL for its issuer. The CRL signature is checked
  /// against the matching trusted root; throws Error if it fails.
  void set_crl(const RevocationList& crl);

  /// Install (or clear, with nullptr) the attestation verifier. Leaf
  /// certificates the verifier recognizes are appraised through it instead
  /// of the CA chain; their cached verdicts are keyed by the verifier's
  /// policy generation. The verifier must outlive this truststore.
  void set_attested_verifier(const AttestedCertVerifier* verifier);

  /// Verify a leaf certificate for `usage` at time `now`.
  VerifyResult verify(const Certificate& leaf, KeyUsage usage,
                      UnixTime now) const;

  /// Verify a burst of independent leaf certificates. Cache misses share
  /// one Ed25519 batch verification for their signature checks instead of
  /// paying a full scalar multiplication each; verdicts are identical to
  /// calling verify() per certificate, and all verdicts land in the cache.
  std::vector<VerifyResult> verify_batch(std::span<const Certificate> leaves,
                                         KeyUsage usage, UnixTime now) const;

  /// True if any installed CRL lists `serial` (used by TLS session
  /// resumption, where only the original certificate's serial is known).
  bool serial_revoked(std::uint64_t serial) const;

  /// Verify a leaf through a chain of intermediate CA certificates
  /// (ordered leaf-issuer first) terminating at a trusted root. Every
  /// certificate in the chain must be a valid, unrevoked CA certificate
  /// with kCertSign usage.
  VerifyResult verify_chain(const Certificate& leaf,
                            std::span<const Certificate> intermediates,
                            KeyUsage usage, UnixTime now) const;

  const std::vector<Certificate>& roots() const { return roots_; }

  /// Truststore generation: bumped by every add_root/set_crl. Cached
  /// verdicts from older generations are never served.
  std::uint64_t generation() const { return cache_.generation(); }

  /// Drop all cached verdicts (cold-cache benchmarking; never required for
  /// correctness — generation bumps already invalidate).
  void flush_validation_cache() const;

  // Cache telemetry for tests/benches (also exported as
  // vnfsgx_cache_requests_total{cache="cert_validation"}).
  std::uint64_t cache_hits() const { return cache_.hits(); }
  std::uint64_t cache_misses() const { return cache_.misses(); }

 private:
  // Time-independent portion of a verdict, cached per (fingerprint, usage).
  // `pre` is the issuer/signature outcome checked before the validity
  // window, `post` the usage/revocation outcome checked after it — split so
  // replaying the cached verdict preserves verify()'s exact status
  // precedence.
  struct CachedVerdict {
    VerifyStatus pre = VerifyStatus::kOk;
    VerifyStatus post = VerifyStatus::kOk;
    bool attested = false;
    UnixTime not_before = 0;
    UnixTime not_after = 0;
  };

  const Certificate* find_root_locked(const DistinguishedName& issuer) const;
  VerifyResult verify_link_to_root_locked(const Certificate& cert,
                                          UnixTime now) const;
  CachedVerdict evaluate_locked(const Certificate& leaf, KeyUsage usage) const;
  CachedVerdict evaluate_attested(const Certificate& leaf, KeyUsage usage,
                                  const AttestedCertVerifier& verifier) const;
  static VerifyResult apply(const CachedVerdict& verdict, UnixTime now);
  std::string cache_key(const Certificate& leaf, KeyUsage usage) const;

  // Guards roots_/crls_; shared for verification, exclusive for updates.
  mutable std::shared_mutex mutex_;
  std::vector<Certificate> roots_;
  std::vector<RevocationList> crls_;
  std::atomic<const AttestedCertVerifier*> verifier_{nullptr};

  /// Validation cache; its generation is the truststore generation.
  mutable obs::GenerationalCache<std::string, CachedVerdict> cache_{
      "cert_validation", 4096};
};

}  // namespace vnfsgx::pki
