#include "pki/truststore.h"

#include "common/error.h"

namespace vnfsgx::pki {

std::string to_string(VerifyStatus status) {
  switch (status) {
    case VerifyStatus::kOk:
      return "ok";
    case VerifyStatus::kUnknownIssuer:
      return "unknown issuer";
    case VerifyStatus::kBadSignature:
      return "bad signature";
    case VerifyStatus::kExpired:
      return "expired";
    case VerifyStatus::kNotYetValid:
      return "not yet valid";
    case VerifyStatus::kRevoked:
      return "revoked";
    case VerifyStatus::kWrongUsage:
      return "wrong key usage";
    case VerifyStatus::kIssuerNotCa:
      return "issuer is not a CA";
    case VerifyStatus::kAttestationFailed:
      return "attestation evidence rejected";
  }
  return "?";
}

void TrustStore::add_root(const Certificate& root) {
  if (!root.is_ca) throw Error("truststore: root is not a CA certificate");
  if (!root.verify_signature(root.public_key)) {
    throw Error("truststore: root self-signature invalid");
  }
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  roots_.push_back(root);
  cache_.bump();
}

void TrustStore::set_crl(const RevocationList& crl) {
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  const Certificate* root = find_root_locked(crl.issuer);
  if (!root) throw Error("truststore: CRL from unknown issuer");
  if (!crl.verify_signature(root->public_key)) {
    throw Error("truststore: CRL signature invalid");
  }
  // Invalidate before publishing the new list: once set_crl returns, no
  // cached verdict predating this CRL can be served.
  cache_.bump();
  for (auto& existing : crls_) {
    if (existing.issuer == crl.issuer) {
      existing = crl;
      return;
    }
  }
  crls_.push_back(crl);
}

void TrustStore::set_attested_verifier(const AttestedCertVerifier* verifier) {
  verifier_.store(verifier, std::memory_order_release);
  // Cached verdicts may predate the delegation change; never serve them.
  cache_.bump();
}

const Certificate* TrustStore::find_root_locked(
    const DistinguishedName& issuer) const {
  for (const Certificate& root : roots_) {
    if (root.subject == issuer) return &root;
  }
  return nullptr;
}

bool TrustStore::serial_revoked(std::uint64_t serial) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  for (const RevocationList& crl : crls_) {
    if (crl.is_revoked(serial)) return true;
  }
  return false;
}

VerifyResult TrustStore::verify_chain(
    const Certificate& leaf, std::span<const Certificate> intermediates,
    KeyUsage usage, UnixTime now) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  // Leaf-local checks first.
  if (now < leaf.not_before) return {VerifyStatus::kNotYetValid};
  if (now > leaf.not_after) return {VerifyStatus::kExpired};
  if (!leaf.allows(usage)) return {VerifyStatus::kWrongUsage};

  const Certificate* current = &leaf;
  for (const Certificate& issuer : intermediates) {
    if (issuer.subject != current->issuer) {
      return {VerifyStatus::kUnknownIssuer};
    }
    if (!issuer.is_ca || !issuer.allows(KeyUsage::kCertSign)) {
      return {VerifyStatus::kIssuerNotCa};
    }
    if (now < issuer.not_before) return {VerifyStatus::kNotYetValid};
    if (now > issuer.not_after) return {VerifyStatus::kExpired};
    if (!current->verify_signature(issuer.public_key)) {
      return {VerifyStatus::kBadSignature};
    }
    for (const RevocationList& crl : crls_) {
      if (crl.issuer == current->issuer && crl.is_revoked(current->serial)) {
        return {VerifyStatus::kRevoked};
      }
    }
    current = &issuer;
  }
  // The last link must chain to a trusted root.
  return verify_link_to_root_locked(*current, now);
}

VerifyResult TrustStore::verify_link_to_root_locked(const Certificate& cert,
                                                    UnixTime now) const {
  const Certificate* root = find_root_locked(cert.issuer);
  if (!root) return {VerifyStatus::kUnknownIssuer};
  if (!root->is_ca) return {VerifyStatus::kIssuerNotCa};
  if (!cert.verify_signature(root->public_key)) {
    return {VerifyStatus::kBadSignature};
  }
  for (const RevocationList& crl : crls_) {
    if (crl.issuer == cert.issuer && crl.is_revoked(cert.serial)) {
      return {VerifyStatus::kRevoked};
    }
  }
  (void)now;
  return {VerifyStatus::kOk};
}

// Full (uncached) evaluation of the time-independent verdict. Check order
// matches the original verify(): issuer, signature, [window], usage,
// revocation — apply() re-inserts the window test between pre and post.
TrustStore::CachedVerdict TrustStore::evaluate_locked(const Certificate& leaf,
                                                      KeyUsage usage) const {
  CachedVerdict v;
  v.not_before = leaf.not_before;
  v.not_after = leaf.not_after;
  const Certificate* root = find_root_locked(leaf.issuer);
  if (!root) {
    v.pre = VerifyStatus::kUnknownIssuer;
    return v;
  }
  if (!root->is_ca) {
    v.pre = VerifyStatus::kIssuerNotCa;
    return v;
  }
  if (!leaf.verify_signature(root->public_key)) {
    v.pre = VerifyStatus::kBadSignature;
    return v;
  }
  if (!leaf.allows(usage)) {
    v.post = VerifyStatus::kWrongUsage;
    return v;
  }
  for (const RevocationList& crl : crls_) {
    if (crl.issuer == leaf.issuer && crl.is_revoked(leaf.serial)) {
      v.post = VerifyStatus::kRevoked;
      return v;
    }
  }
  return v;
}

// Appraisal path for certificates the attested verifier recognizes: the
// verifier replaces the issuer/signature checks (an RA-TLS certificate is
// self-signed; its quote is the chain), usage is checked after, and the
// validity window is re-applied per request like every cached verdict.
TrustStore::CachedVerdict TrustStore::evaluate_attested(
    const Certificate& leaf, KeyUsage usage,
    const AttestedCertVerifier& verifier) const {
  CachedVerdict v;
  v.not_before = leaf.not_before;
  v.not_after = leaf.not_after;
  const VerifyStatus appraisal = verifier.appraise(leaf);
  if (appraisal != VerifyStatus::kOk) {
    v.pre = appraisal;
    return v;
  }
  if (!leaf.allows(usage)) {
    v.post = VerifyStatus::kWrongUsage;
    return v;
  }
  v.attested = true;
  return v;
}

VerifyResult TrustStore::apply(const CachedVerdict& verdict, UnixTime now) {
  if (verdict.pre != VerifyStatus::kOk) return {verdict.pre};
  if (now < verdict.not_before) return {VerifyStatus::kNotYetValid};
  if (now > verdict.not_after) return {VerifyStatus::kExpired};
  return {verdict.post, verdict.attested && verdict.post == VerifyStatus::kOk};
}

std::string TrustStore::cache_key(const Certificate& leaf,
                                  KeyUsage usage) const {
  // Fingerprint (hex SHA-256 of the public encoding) + requested usage —
  // no key material ever enters the cache. Certificates the attested
  // verifier recognizes additionally embed the appraisal-policy generation,
  // so a policy bump sends cached RA-TLS accepts to a fresh key (miss) on
  // the next request.
  std::string key = leaf.fingerprint() + "/" +
                    std::to_string(static_cast<unsigned>(usage));
  const AttestedCertVerifier* verifier =
      verifier_.load(std::memory_order_acquire);
  if (verifier && verifier->recognizes(leaf)) {
    key += "/ra" + std::to_string(verifier->policy_generation());
  }
  return key;
}

void TrustStore::flush_validation_cache() const { cache_.clear(); }

VerifyResult TrustStore::verify(const Certificate& leaf, KeyUsage usage,
                                UnixTime now) const {
  const std::string key = cache_key(leaf, usage);
  if (const auto cached = cache_.find(key)) return apply(*cached, now);
  CachedVerdict verdict;
  const AttestedCertVerifier* verifier =
      verifier_.load(std::memory_order_acquire);
  if (verifier && verifier->recognizes(leaf)) {
    const std::uint64_t generation = cache_.generation();
    verdict = evaluate_attested(leaf, usage, *verifier);
    cache_.store(key, verdict, generation);
    return apply(verdict, now);
  }
  std::uint64_t generation = 0;
  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    generation = cache_.generation();
    verdict = evaluate_locked(leaf, usage);
  }
  cache_.store(key, verdict, generation);
  return apply(verdict, now);
}

std::vector<VerifyResult> TrustStore::verify_batch(
    std::span<const Certificate> leaves, KeyUsage usage, UnixTime now) const {
  static obs::Histogram& batch_size = obs::registry().histogram(
      "vnfsgx_ed25519_batch_size", {}, {1, 2, 4, 8, 16, 32, 64, 128, 256},
      "Signatures checked per Ed25519 batch verification");

  std::vector<VerifyResult> results(leaves.size());
  std::vector<CachedVerdict> verdicts(leaves.size());
  std::vector<std::string> keys(leaves.size());
  std::vector<bool> resolved(leaves.size(), false);

  for (std::size_t i = 0; i < leaves.size(); ++i) {
    keys[i] = cache_key(leaves[i], usage);
    if (const auto cached = cache_.find(keys[i])) {
      results[i] = apply(*cached, now);
      resolved[i] = true;
    }
  }

  // Recognized (RA-TLS) misses route through the attested verifier's burst
  // appraisal — its own Ed25519 batch — instead of the CA-chain batch below.
  const AttestedCertVerifier* verifier =
      verifier_.load(std::memory_order_acquire);
  if (verifier) {
    std::vector<std::size_t> ra_idx;
    std::vector<const Certificate*> ra_leaves;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      if (resolved[i] || !verifier->recognizes(leaves[i])) continue;
      ra_idx.push_back(i);
      ra_leaves.push_back(&leaves[i]);
    }
    if (!ra_idx.empty()) {
      const std::uint64_t ra_generation = cache_.generation();
      const std::vector<VerifyStatus> appraisals = verifier->appraise_batch(
          std::span<const Certificate* const>(ra_leaves));
      for (std::size_t j = 0; j < ra_idx.size(); ++j) {
        const std::size_t i = ra_idx[j];
        const Certificate& leaf = leaves[i];
        CachedVerdict& v = verdicts[i];
        v.not_before = leaf.not_before;
        v.not_after = leaf.not_after;
        if (appraisals[j] != VerifyStatus::kOk) {
          v.pre = appraisals[j];
        } else if (!leaf.allows(usage)) {
          v.post = VerifyStatus::kWrongUsage;
        } else {
          v.attested = true;
        }
        cache_.store(keys[i], v, ra_generation);
        results[i] = apply(v, now);
        resolved[i] = true;
      }
    }
  }

  // Cache misses: everything except the Ed25519 signature check is cheap,
  // so evaluate those parts per certificate and fold all signature checks
  // into one batch verification.
  std::vector<std::size_t> need_sig;
  std::vector<Bytes> tbs_storage;
  std::vector<crypto::Ed25519BatchItem> items;
  std::uint64_t generation = 0;
  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    generation = cache_.generation();
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      if (resolved[i]) continue;
      const Certificate& leaf = leaves[i];
      CachedVerdict& v = verdicts[i];
      v.not_before = leaf.not_before;
      v.not_after = leaf.not_after;
      const Certificate* root = find_root_locked(leaf.issuer);
      if (!root) {
        v.pre = VerifyStatus::kUnknownIssuer;
        continue;
      }
      if (!root->is_ca) {
        v.pre = VerifyStatus::kIssuerNotCa;
        continue;
      }
      need_sig.push_back(i);
      tbs_storage.push_back(leaf.tbs());
      crypto::Ed25519BatchItem item;
      item.public_key = root->public_key;
      item.message = ByteView(tbs_storage.back());
      item.signature =
          ByteView(leaf.signature.data(), leaf.signature.size());
      items.push_back(item);
    }
    // tbs_storage stops growing here, so the message views stay valid.
    for (std::size_t j = 0; j < need_sig.size(); ++j) {
      items[j].message = ByteView(tbs_storage[j]);
    }
    if (!items.empty()) {
      batch_size.observe(static_cast<double>(items.size()));
      const std::vector<bool> sig_ok = crypto::ed25519_verify_batch(
          std::span<const crypto::Ed25519BatchItem>(items), nullptr);
      for (std::size_t j = 0; j < need_sig.size(); ++j) {
        const std::size_t i = need_sig[j];
        const Certificate& leaf = leaves[i];
        CachedVerdict& v = verdicts[i];
        if (!sig_ok[j]) {
          v.pre = VerifyStatus::kBadSignature;
          continue;
        }
        if (!leaf.allows(usage)) {
          v.post = VerifyStatus::kWrongUsage;
          continue;
        }
        for (const RevocationList& crl : crls_) {
          if (crl.issuer == leaf.issuer && crl.is_revoked(leaf.serial)) {
            v.post = VerifyStatus::kRevoked;
            break;
          }
        }
      }
    }
  }

  for (std::size_t i = 0; i < leaves.size(); ++i) {
    if (resolved[i]) continue;
    cache_.store(keys[i], verdicts[i], generation);
    results[i] = apply(verdicts[i], now);
  }
  return results;
}

}  // namespace vnfsgx::pki
