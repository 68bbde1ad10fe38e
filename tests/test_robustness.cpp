// Decoder robustness: every wire-format parser in the system must survive
// arbitrary corruption — truncation, bit flips, random bytes — by throwing
// ParseError (or rejecting) rather than crashing or reading out of bounds.
// Deterministic mutation-based sweeps over all TLV decoders, JSON, the
// HTTP parser, the RA-TLS evidence extension, the inspection NF's
// rule-blob and frame/verdict decoders, and the credential enclave's
// sealed-state blob.
#include <gtest/gtest.h>

#include "common/sim_clock.h"
#include "core/protocol.h"
#include "crypto/ed25519.h"
#include "crypto/random.h"
#include "http/wire.h"
#include "ima/measurement_list.h"
#include "ima/tpm.h"
#include "json/json.h"
#include "net/inmemory.h"
#include "pki/ca.h"
#include "ratls/evidence.h"
#include "sgx/sigstruct.h"
#include "sgx/structs.h"
#include "vnf/inspection_rules.h"
#include "vnf/inspection_wire.h"
#include "vnf/functions.h"
#include "vnf/vnf.h"

namespace vnfsgx {
namespace {

using crypto::DeterministicRandom;

/// Apply deterministic mutations to `original` and feed each to `decode`.
/// The decoder must either succeed or throw Error; anything else
/// (crash, UB caught by sanitizers) fails the suite.
template <typename DecodeFn>
void mutation_sweep(const Bytes& original, DecodeFn decode) {
  DeterministicRandom rng(12345);

  // Truncations at every length.
  for (std::size_t len = 0; len <= original.size(); ++len) {
    Bytes cut(original.begin(), original.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      decode(cut);
    } catch (const Error&) {
      // expected for most mutations
    }
  }
  // Single-bit flips across the buffer (stride keeps the sweep fast).
  for (std::size_t i = 0; i < original.size(); ++i) {
    for (int bit : {0, 7}) {
      Bytes mutated = original;
      mutated[i] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        decode(mutated);
      } catch (const Error&) {
      }
    }
  }
  // Random garbage of assorted sizes.
  for (std::size_t size : {0u, 1u, 3u, 16u, 64u, 300u, 5000u}) {
    const Bytes garbage = rng.bytes(size);
    try {
      decode(garbage);
    } catch (const Error&) {
    }
  }
  // Length-field inflation: overwrite plausible TLV length bytes with 0xff.
  for (std::size_t i = 1; i + 3 < original.size(); i += 4) {
    Bytes mutated = original;
    mutated[i] = 0xff;
    mutated[i + 1] = 0xff;
    mutated[i + 2] = 0xff;
    try {
      decode(mutated);
    } catch (const Error&) {
    }
  }
}

struct RobustnessFixture : public ::testing::Test {
  DeterministicRandom rng{99};
  SimClock clock{1'700'000'000};
};

TEST_F(RobustnessFixture, CertificateDecoder) {
  pki::CertificateAuthority ca({"ca", "org"}, rng, clock);
  const auto kp = crypto::ed25519_generate(rng);
  const Bytes encoded =
      ca.issue({"subject", "org"}, kp.public_key, 3).encode();
  mutation_sweep(encoded, [](const Bytes& b) {
    const auto cert = pki::Certificate::decode(b);
    (void)cert.fingerprint();
  });
}

TEST_F(RobustnessFixture, CrlDecoder) {
  pki::CertificateAuthority ca({"ca", ""}, rng, clock);
  ca.revoke(1);
  ca.revoke(99);
  const Bytes encoded = ca.current_crl().encode();
  mutation_sweep(encoded, [](const Bytes& b) {
    const auto crl = pki::RevocationList::decode(b);
    (void)crl.is_revoked(1);
  });
}

TEST_F(RobustnessFixture, SgxStructDecoders) {
  sgx::ReportBody body;
  body.mr_enclave.fill(0xaa);
  body.isv_prod_id = 7;
  mutation_sweep(body.encode(),
                 [](const Bytes& b) { sgx::ReportBody::decode(b); });

  sgx::Report report;
  report.body = body;
  report.mac.fill(0xbb);
  mutation_sweep(report.encode(),
                 [](const Bytes& b) { sgx::Report::decode(b); });

  sgx::Quote quote;
  quote.body = body;
  quote.platform_id.fill(0xcc);
  mutation_sweep(quote.encode(), [](const Bytes& b) { sgx::Quote::decode(b); });

  const auto vendor = crypto::ed25519_generate(rng);
  const auto sig = sgx::sign_enclave(vendor.seed, body.mr_enclave, 1, 1);
  mutation_sweep(sig.encode(), [](const Bytes& b) {
    const auto s = sgx::SigStruct::decode(b);
    (void)s.verify();
  });
}

TEST_F(RobustnessFixture, ImlDecoder) {
  ima::MeasurementList list;
  for (int i = 0; i < 5; ++i) {
    ima::Digest d{};
    d[0] = static_cast<std::uint8_t>(i + 1);
    list.add_measurement(d, "/bin/tool" + std::to_string(i));
  }
  list.add_violation("/tmp/x");
  mutation_sweep(list.encode(), [](const Bytes& b) {
    const auto l = ima::MeasurementList::decode(b);
    (void)l.aggregate();
  });
}

TEST_F(RobustnessFixture, TpmQuoteDecoder) {
  ima::Tpm tpm(rng);
  tpm.extend(10, ima::Digest{});
  const Bytes encoded = tpm.quote(10, {}).encode();
  const auto aik =
      crypto::Ed25519VerifyingKey::from_public_key(tpm.aik_public_key()).value();
  mutation_sweep(encoded, [&](const Bytes& b) {
    const auto q = ima::TpmQuote::decode(b);
    (void)q.verify(aik);
  });
}

TEST_F(RobustnessFixture, ProtocolDecoders) {
  core::AttestHostResponse response;
  response.quote = rng.bytes(100);
  response.iml = rng.bytes(200);
  response.tpm_quote = rng.bytes(50);
  mutation_sweep(core::encode(response), [](const Bytes& b) {
    core::decode_attest_host_response(b);
  });

  core::AttestVnfRequest request;
  request.vnf_name = "vnf-with-a-longish-name";
  mutation_sweep(core::encode(request), [](const Bytes& b) {
    core::decode_attest_vnf_request(b);
  });

  core::ProvisionRequest provision;
  provision.vnf_name = "v";
  provision.certificate = rng.bytes(150);
  mutation_sweep(core::encode(provision), [](const Bytes& b) {
    core::decode_provision_request(b);
  });
}

TEST_F(RobustnessFixture, RatlsEvidenceDecoder) {
  ratls::Evidence evidence;
  evidence.quote.body.mr_enclave.fill(0xaa);
  evidence.quote.body.isv_prod_id = 7;
  evidence.quote.body.isv_svn = 3;
  evidence.quote.body.report_data = ratls::report_data_for_key(
      crypto::ed25519_generate(rng).public_key);
  evidence.quote.platform_id.fill(0xcc);
  evidence.iml_digest.fill(0x11);
  evidence.vendor_key = crypto::ed25519_generate(rng).public_key;
  evidence.isv_prod_id = 7;
  evidence.isv_svn = 3;
  // A decoded payload must re-encode to a payload that decodes the same.
  mutation_sweep(evidence.encode(), [](const Bytes& b) {
    const ratls::Evidence decoded = ratls::Evidence::decode(b);
    const Bytes again = decoded.encode();
    EXPECT_EQ(ratls::Evidence::decode(again).encode(), again);
  });

  // The same payload as it arrives: extension 0x52415431 of a certificate.
  pki::CertificateAuthority ca({"ca", "org"}, rng, clock);
  pki::Certificate cert = ca.issue(
      {"vnf", "org"}, crypto::ed25519_generate(rng).public_key, 3);
  cert.extensions.push_back(ratls::to_extension(evidence));
  mutation_sweep(cert.encode(), [](const Bytes& b) {
    const auto decoded = pki::Certificate::decode(b);
    if (ratls::carries_evidence(decoded)) {
      (void)ratls::find_evidence(decoded);
    }
  });
}

TEST_F(RobustnessFixture, JsonParser) {
  const std::string doc =
      R"({"name":"flow1","switch":1,"priority":100,"match":{"tcp_dst":443},)"
      R"("actions":["output=2","drop"],"note":"x\nyé","f":1.25e-3})";
  const Bytes encoded = to_bytes(doc);
  mutation_sweep(encoded, [](const Bytes& b) {
    const auto v = json::parse(vnfsgx::to_string(b));
    (void)json::serialize(v);
  });
}

TEST_F(RobustnessFixture, HttpRequestParser) {
  const Bytes wire = to_bytes(
      "POST /wm/staticflowpusher/json?x=1 HTTP/1.1\r\n"
      "Content-Type: application/json\r\n"
      "X-Custom: value with spaces\r\n"
      "Content-Length: 11\r\n"
      "\r\n"
      "{\"name\":1}x");
  mutation_sweep(wire, [](const Bytes& b) {
    auto [a, peer] = net::make_pipe();
    a->write(b);
    a->close();
    http::Connection conn(*peer);
    while (conn.read_request().has_value()) {
    }
  });
}

TEST_F(RobustnessFixture, HttpResponseParser) {
  const Bytes wire = to_bytes(
      "HTTP/1.1 200 OK\r\n"
      "Content-Length: 5\r\n"
      "\r\n"
      "hello");
  mutation_sweep(wire, [](const Bytes& b) {
    auto [a, peer] = net::make_pipe();
    a->write(b);
    a->close();
    http::Connection conn(*peer);
    while (conn.read_response().has_value()) {
    }
  });
}

TEST_F(RobustnessFixture, InspectionRuleDecoder) {
  vnf::RuleSet rules;
  rules.add({"exploit-shell", to_bytes("/bin/sh"), vnf::RuleAction::kDrop, 0,
             0});
  rules.add({"sqli-web", to_bytes("' OR 1=1"), vnf::RuleAction::kDrop, 80, 6});
  rules.add({"probe", to_bytes("admin"), vnf::RuleAction::kAlert, 0, 17});
  // A decoded set must also compile (or be refused with Error) and scan.
  mutation_sweep(rules.encode(), [](const Bytes& b) {
    const vnf::RuleSet decoded = vnf::RuleSet::decode(b);
    const vnf::RuleMatcher matcher(decoded);
    (void)matcher.match(b, 80, 6);
  });
}

TEST_F(RobustnessFixture, InspectionFrameDecoders) {
  vnf::RuleSet rules;
  rules.add({"exploit-shell", to_bytes("/bin/sh"), vnf::RuleAction::kDrop, 0,
             0});
  const vnf::RuleMatcher matcher(rules);

  vnf::wire::FrameDescriptor header;
  header.src_ip = 0x0a000001;
  header.dst_ip = 0x0a000064;
  header.src_port = 40000;
  header.dst_port = 80;
  header.proto = 6;
  Bytes frame(64);
  frame.resize(vnf::wire::encode_frame(
      header, to_bytes("GET /bin/sh HTTP/1.1\r\n"), frame));
  mutation_sweep(frame, [&matcher](const Bytes& b) {
    vnf::wire::FrameDescriptor decoded;
    const ByteView payload = vnf::wire::decode_frame(b, &decoded);
    EXPECT_EQ(payload.size(), decoded.frame_len);
    EXPECT_LE(payload.data() + payload.size(), b.data() + b.size());
    (void)matcher.match(payload, decoded.dst_port, decoded.proto);
  });

  Bytes verdict(64);
  verdict.resize(vnf::wire::encode_verdict(2, true, "exploit-shell", verdict));
  mutation_sweep(verdict, [](const Bytes& b) {
    vnf::wire::FrameVerdict decoded;
    const ByteView rule = vnf::wire::decode_verdict(b, &decoded);
    EXPECT_EQ(rule.size(), decoded.rule_len);
    EXPECT_LE(rule.data() + rule.size(), b.data() + b.size());
    (void)vnfsgx::to_string(rule);
  });
}

TEST_F(RobustnessFixture, SealedCredentialStateRestore) {
  // The sealed {seed, certificate} blob is the one secret-bearing input the
  // credential enclave accepts from untrusted storage. Every mutation must
  // be refused by restore_state and leave the receiving enclave's key,
  // certificate and cached expanded signing key exactly as they were.
  sgx::PlatformOptions fast;
  fast.crossing_cost = std::chrono::nanoseconds(0);
  host::ContainerHost host("host-1", rng, fast);
  host.boot();
  const auto vendor = crypto::ed25519_generate(rng);
  pki::CertificateAuthority ca(pki::DistinguishedName{"vm-ca", ""}, rng,
                               clock);
  const auto client_auth =
      static_cast<std::uint8_t>(pki::KeyUsage::kClientAuth);

  vnf::Vnf source("vnf-a", host, vendor.seed,
                  std::make_unique<vnf::MonitorFunction>());
  const auto source_pub = source.credentials().generate_key();
  source.credentials().install_certificate(
      ca.issue({"vnf-a", ""}, source_pub, client_auth));
  const Bytes sealed = source.credentials().seal_state();

  vnf::Vnf target("vnf-b", host, vendor.seed,
                  std::make_unique<vnf::MonitorFunction>());
  vnf::CredentialClient& creds = target.credentials();
  const auto pub = creds.generate_key();
  creds.install_certificate(ca.issue({"vnf-b", ""}, pub, client_auth));
  const Bytes cert = creds.certificate().encode();
  const Bytes msg = to_bytes("flow push");

  std::size_t refused = 0;
  mutation_sweep(sealed, [&](const Bytes& b) {
    if (b == sealed) return;  // not a mutation (e.g. the full-length cut)
    EXPECT_THROW(creds.restore_state(b), Error);
    ++refused;
    ASSERT_EQ(creds.generate_key(), pub);
    ASSERT_EQ(creds.certificate().encode(), cert);
    const auto sig = creds.sign(msg);
    ASSERT_TRUE(crypto::ed25519_verify(pub, msg, sig));
  });
  EXPECT_GT(refused, 2 * sealed.size());

  // The intact blob still restores, switching the target to the source's
  // credential.
  creds.restore_state(sealed);
  EXPECT_EQ(creds.generate_key(), source_pub);
  const auto sig = creds.sign(msg);
  EXPECT_TRUE(crypto::ed25519_verify(source_pub, msg, sig));
}

}  // namespace
}  // namespace vnfsgx
