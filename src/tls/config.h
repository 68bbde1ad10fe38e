// TLS session configuration.
//
// The signing operation is a callback rather than a raw private key: in the
// paper's design the VNF's client key lives inside an SGX enclave and never
// leaves it, so the TLS stack asks the enclave to produce the
// CertificateVerify signature. Software-held keys wrap an expanded
// Ed25519SigningKey in the callback.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "common/secure.h"
#include "common/sim_clock.h"
#include "crypto/ed25519.h"
#include "crypto/random.h"
#include "pki/certificate.h"
#include "pki/truststore.h"

namespace vnfsgx::tls {

using SignFunction = std::function<crypto::Ed25519Signature(ByteView)>;

/// Server-side session-ticket protection key (rotate by replacing).
struct TicketKey {
  Zeroizing<std::array<std::uint8_t, 16>> key;

  static TicketKey generate(crypto::RandomSource& rng) {
    TicketKey k;
    rng.fill(k.key);
    return k;
  }
};

/// A resumable session handle held by the client after a full handshake.
struct SessionTicket {
  Bytes ticket;                   // opaque server-encrypted blob
  SecureBytes resumption_secret;  // the PSK (client-side secret, never sent)
  std::string server_name;        // which server it resumes to

  bool valid() const { return !ticket.empty(); }
};

struct Config {
  /// Local identity (required for servers; for clients only when the peer
  /// requests client authentication).
  std::optional<pki::Certificate> certificate;
  SignFunction signer;

  /// Verification policy for the peer's certificate. Clients must set this;
  /// servers set it when requiring client authentication.
  const pki::TrustStore* truststore = nullptr;

  /// Server side: demand and verify a client certificate ("trusted HTTPS").
  bool require_client_certificate = false;

  /// Require the peer's certificate to carry *verified* attestation
  /// evidence (RA-TLS): the truststore's attested verifier must appraise it
  /// kOk. A peer presenting a plain CA certificate — even a valid one — is
  /// rejected with SecurityViolation (the downgrade case). On the client
  /// side this also disables resumption offers, so the evidence is
  /// re-appraised on every connection. Requires a truststore with an
  /// attested verifier installed (and, server-side,
  /// require_client_certificate).
  bool require_attested_peer = false;

  /// Client side: if non-empty, the server certificate's CN must match.
  std::string expected_server_name;

  /// Server side: when set, issue a session ticket after each full
  /// handshake; clients may resume with it, skipping both certificate
  /// exchanges (the authenticated identity carries over). Revoked
  /// credentials cannot resume (the truststore's CRLs are re-checked).
  const TicketKey* ticket_key = nullptr;
  /// Ticket validity window.
  std::int64_t ticket_lifetime_seconds = 600;

  /// Client side: offer this ticket for resumption (ignored if invalid;
  /// the handshake transparently falls back to a full one).
  const SessionTicket* resumption = nullptr;

  const Clock* clock = nullptr;        // required
  crypto::RandomSource* rng = nullptr; // required

  /// Convenience: identity from a certificate + software key. The seed is
  /// expanded once; the closure's key wipes itself with the Config.
  static SignFunction software_signer(const crypto::Ed25519Seed& seed) {
    return [key = crypto::Ed25519SigningKey(seed)](ByteView data) {
      return key.sign(data);
    };
  }
};

}  // namespace vnfsgx::tls
