// Floodlight-like SDN controller.
//
// North-bound REST API (a faithful subset of Floodlight v1.2's resources)
// served in the three security modes the paper's §3 names:
//   * kHttp         — plain HTTP, no confidentiality or authentication,
//   * kHttps        — TLS with server authentication only,
//   * kTrustedHttps — TLS with client authentication ("trusted HTTPS").
// In trusted mode the controller validates client certificates against the
// Verification Manager's CA (and CRL) instead of keeping per-client keys in
// its keystore — the §3 key-management insight.
#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "dataplane/fabric.h"
#include "http/runtime.h"
#include "http/server.h"
#include "obs/metrics.h"
#include "pki/truststore.h"
#include "tls/session.h"

namespace vnfsgx::controller {

enum class SecurityMode { kHttp, kHttps, kTrustedHttps };

std::string to_string(SecurityMode mode);

struct ControllerConfig {
  std::string name = "floodlight";
  SecurityMode mode = SecurityMode::kTrustedHttps;

  /// Server identity (required for the TLS modes).
  std::optional<pki::Certificate> certificate;
  tls::SignFunction signer;

  /// Issue TLS session tickets so returning clients resume without the
  /// certificate exchange (revoked credentials still cannot resume — the
  /// CRL is re-checked). Amortizes the trusted-HTTPS handshake cost.
  bool enable_session_tickets = false;
  std::int64_t ticket_lifetime_seconds = 600;

  /// Trusted-HTTPS only: require every client certificate to carry RA-TLS
  /// attestation evidence appraised in-handshake (set_attested_verifier
  /// must install a verifier). Plain CA certificates are rejected — the
  /// downgrade defense.
  bool require_attested_clients = false;

  const Clock* clock = nullptr;
  crypto::RandomSource* rng = nullptr;
};

struct AuditRecord {
  std::string identity;  // authenticated client CN, empty if anonymous
  std::string method;
  std::string path;
  int status = 0;
};

class Controller {
 public:
  /// The audit log keeps this many most recent records; older ones are
  /// overwritten and counted in
  /// vnfsgx_controller_audit_records_dropped_total, so a long-lived
  /// controller's memory stays flat however many requests it serves.
  static constexpr std::size_t kAuditLogCapacity = 4096;

  Controller(ControllerConfig config, dataplane::Fabric& fabric);

  /// Trust the Verification Manager's CA for client authentication
  /// (replaces Floodlight's per-client keystore maintenance).
  void trust_ca(const pki::Certificate& ca_root);

  /// Install the RA-TLS appraisal hook: client certificates carrying
  /// attestation evidence are verified in-handshake against it instead of
  /// a CA chain. With a verifier installed, trusted-HTTPS mode works with
  /// NO pre-provisioned CA at all — first-contact enrollment. The verifier
  /// must outlive the controller; re-installing (policy change) invalidates
  /// cached validation verdicts.
  void set_attested_verifier(const pki::AttestedCertVerifier* verifier);

  /// Install/refresh the CA's revocation list. Cached validation verdicts
  /// from before this CRL are invalidated before the call returns.
  void update_crl(const pki::RevocationList& crl);

  /// Warm the certificate-validation cache for a burst of expected clients
  /// (e.g. the VNFs a fleet attestation just credentialed): all Ed25519
  /// signature checks fold into one batch verification, and the subsequent
  /// trusted-HTTPS handshakes hit the cache. Returns per-certificate
  /// verdicts identical to individual validation.
  std::vector<pki::VerifyResult> prevalidate_certificates(
      std::span<const pki::Certificate> certs);

  /// The controller's verifier-side trust policy (cache/flush telemetry).
  const pki::TrustStore& truststore() const { return truststore_; }

  /// Serve one connection end-to-end according to the security mode.
  /// TLS failures (bad client cert in trusted mode, etc.) terminate the
  /// connection without serving any request.
  void serve(net::StreamPtr stream);

  /// Mode-dependent session setup for the pooled server runtime: wraps a
  /// raw transport in TLS when the mode calls for it, recording the
  /// authenticated client in `ctx`. Failures are counted as rejected
  /// connections and rethrown so the runtime drops the connection.
  net::StreamPtr wrap_session(net::StreamPtr stream, http::RequestContext& ctx);

  /// Driver factory for net::ServerRuntime::listen_* — every accepted
  /// connection serves this controller's REST API under its security mode
  /// on a pooled worker instead of a dedicated thread.
  net::DriverFactory driver_factory();

  const http::Router& router() const { return router_; }
  SecurityMode mode() const { return config_.mode; }

  /// Observability for tests/benches. The audit log holds at most
  /// kAuditLogCapacity records, oldest to newest.
  std::vector<AuditRecord> audit_log() const;
  std::uint64_t requests_served() const { return requests_.load(); }
  std::uint64_t rejected_connections() const { return rejected_.load(); }
  /// Identities enrolled through POST /wm/vnfsgx/enroll/json, in order.
  std::vector<std::string> enrolled_identities() const;

 private:
  void build_router();
  http::Response handle_summary(const http::Request&,
                                const http::RequestContext&);
  http::Response handle_switches(const http::Request&,
                                 const http::RequestContext&);
  http::Response handle_links(const http::Request&,
                              const http::RequestContext&);
  http::Response handle_push_flow(const http::Request&,
                                  const http::RequestContext&);
  http::Response handle_delete_flow(const http::Request&,
                                    const http::RequestContext&);
  http::Response handle_list_flows(const http::Request&,
                                   const http::RequestContext&);
  http::Response handle_enroll(const http::Request&,
                               const http::RequestContext&);
  void audit(const http::RequestContext& ctx, const http::Request& req,
             int status);
  bool authorize_write(const http::RequestContext& ctx) const;

  ControllerConfig config_;
  dataplane::Fabric& fabric_;
  /// Handlers run on per-connection threads; all fabric access serializes.
  mutable std::mutex fabric_mutex_;
  pki::TrustStore truststore_;
  tls::TicketKey ticket_key_;
  bool ca_trusted_ = false;
  bool attested_verifier_installed_ = false;
  http::Router router_;
  mutable std::mutex mutex_;
  /// Ring of the most recent records: grows to kAuditLogCapacity, then
  /// audit_next_ marks the oldest slot, which the next record overwrites.
  std::vector<AuditRecord> audit_log_;
  std::size_t audit_next_ = 0;
  obs::Counter& audit_dropped_total_;
  // This mode's REST instruments, registered once at construction.
  obs::Counter& requests_get_total_;
  obs::Counter& requests_post_total_;
  obs::Counter& requests_delete_total_;
  obs::Counter& auth_failures_total_;
  obs::Histogram& request_duration_us_;
  std::vector<std::string> enrolled_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace vnfsgx::controller
