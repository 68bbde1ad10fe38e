// X25519 (RFC 7748) and Ed25519 (RFC 8032) tests against the RFC vectors,
// plus algebraic properties (DH agreement, signature malleability checks).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "common/hex.h"
#include "crypto/ed25519.h"
#include "crypto/random.h"
#include "crypto/x25519.h"

namespace vnfsgx::crypto {
namespace {

X25519Key key_from_hex(std::string_view h) {
  const Bytes b = from_hex(h);
  X25519Key k;
  std::copy(b.begin(), b.end(), k.begin());
  return k;
}

Ed25519Seed seed_from_hex(std::string_view h) {
  const Bytes b = from_hex(h);
  Ed25519Seed s;
  std::copy(b.begin(), b.end(), s.begin());
  return s;
}

TEST(X25519, Rfc7748Vector1) {
  const auto scalar = key_from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const auto point = key_from_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  const auto out = x25519(scalar, point);
  EXPECT_EQ(to_hex(out),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  const auto scalar = key_from_hex(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  const auto point = key_from_hex(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  const auto out = x25519(scalar, point);
  EXPECT_EQ(to_hex(out),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748DiffieHellman) {
  // Bob's RFC 7748 §6.1 keypair, plus Alice's published *public* key and
  // the published shared secret K = X25519(b, alice_pub).
  const auto bob_priv = key_from_hex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  const auto bob_pub = x25519_base(bob_priv);
  EXPECT_EQ(to_hex(bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  const auto alice_pub = key_from_hex(
      "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  const Bytes k = x25519_shared(bob_priv, alice_pub);
  EXPECT_EQ(to_hex(k),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, GeneratedPairsAgree) {
  DeterministicRandom rng(99);
  for (int i = 0; i < 8; ++i) {
    const auto a = x25519_generate(rng);
    const auto b = x25519_generate(rng);
    EXPECT_EQ(x25519_shared(a.private_key, b.public_key),
              x25519_shared(b.private_key, a.public_key));
  }
}

TEST(X25519, BasePointFastPathMatchesGenericLadder) {
  // x25519_base rides the Ed25519 window table + birational map; it must
  // stay bit-identical to the generic Montgomery ladder applied to the
  // base point u=9, for any scalar (clamping happens inside both paths).
  X25519Key base{};
  base[0] = 9;
  DeterministicRandom rng(4242);
  for (int i = 0; i < 32; ++i) {
    X25519Key scalar;
    rng.fill(scalar);
    EXPECT_EQ(to_hex(x25519_base(scalar)), to_hex(x25519(scalar, base)))
        << "scalar " << to_hex(scalar);
  }
}

TEST(X25519, RejectsLowOrderPoint) {
  DeterministicRandom rng(1);
  const auto kp = x25519_generate(rng);
  X25519Key zero{};
  EXPECT_THROW(x25519_shared(kp.private_key, zero), CryptoError);
  X25519Key one{};
  one[0] = 1;
  EXPECT_THROW(x25519_shared(kp.private_key, one), CryptoError);
}

// RFC 8032 §7.1 test vectors.
TEST(Ed25519, Rfc8032Test1EmptyMessage) {
  const auto seed = seed_from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto pub = ed25519_public_key(seed);
  EXPECT_EQ(to_hex(pub),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
  const auto sig = ed25519_sign(seed, {});
  EXPECT_EQ(to_hex(ByteView(sig.data(), sig.size())),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
  EXPECT_TRUE(ed25519_verify(pub, {}, ByteView(sig.data(), sig.size())));
}

TEST(Ed25519, Rfc8032Test2OneByte) {
  const auto seed = seed_from_hex(
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  const auto pub = ed25519_public_key(seed);
  EXPECT_EQ(to_hex(pub),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");
  const Bytes msg = from_hex("72");
  const auto sig = ed25519_sign(seed, msg);
  EXPECT_EQ(to_hex(ByteView(sig.data(), sig.size())),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
  EXPECT_TRUE(ed25519_verify(pub, msg, ByteView(sig.data(), sig.size())));
}

TEST(Ed25519, Rfc8032Test3TwoBytes) {
  const auto seed = seed_from_hex(
      "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
  const auto pub = ed25519_public_key(seed);
  EXPECT_EQ(to_hex(pub),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025");
  const Bytes msg = from_hex("af82");
  const auto sig = ed25519_sign(seed, msg);
  EXPECT_EQ(to_hex(ByteView(sig.data(), sig.size())),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a");
  EXPECT_TRUE(ed25519_verify(pub, msg, ByteView(sig.data(), sig.size())));
}

TEST(Ed25519, TamperedSignatureRejected) {
  DeterministicRandom rng(5);
  const auto kp = ed25519_generate(rng);
  const Bytes msg = to_bytes("attestation quote body");
  auto sig = ed25519_sign(kp.seed, msg);
  EXPECT_TRUE(ed25519_verify(kp.public_key, msg, ByteView(sig.data(), 64)));
  for (std::size_t i = 0; i < sig.size(); i += 5) {
    auto bad = sig;
    bad[i] ^= 1;
    EXPECT_FALSE(ed25519_verify(kp.public_key, msg, ByteView(bad.data(), 64)))
        << "byte " << i;
  }
}

TEST(Ed25519, TamperedMessageRejected) {
  DeterministicRandom rng(6);
  const auto kp = ed25519_generate(rng);
  const Bytes msg = to_bytes("the signed message");
  const auto sig = ed25519_sign(kp.seed, msg);
  Bytes other = msg;
  other.back() ^= 1;
  EXPECT_FALSE(ed25519_verify(kp.public_key, other, ByteView(sig.data(), 64)));
  EXPECT_FALSE(ed25519_verify(kp.public_key, {}, ByteView(sig.data(), 64)));
}

TEST(Ed25519, WrongKeyRejected) {
  DeterministicRandom rng(7);
  const auto kp1 = ed25519_generate(rng);
  const auto kp2 = ed25519_generate(rng);
  const Bytes msg = to_bytes("msg");
  const auto sig = ed25519_sign(kp1.seed, msg);
  EXPECT_FALSE(ed25519_verify(kp2.public_key, msg, ByteView(sig.data(), 64)));
}

TEST(Ed25519, NonCanonicalSRejected) {
  // s >= L must be rejected (malleability defence). Take a valid signature
  // and add L to s (fits because s < L < 2^253).
  DeterministicRandom rng(8);
  const auto kp = ed25519_generate(rng);
  const Bytes msg = to_bytes("msg");
  auto sig = ed25519_sign(kp.seed, msg);
  // L = 2^252 + 27742317777372353535851937790883648493, little-endian.
  const Bytes l_le = from_hex(
      "edd3f55c1a631258d69cf7a2def9de14"
      "00000000000000000000000000000010");
  ASSERT_EQ(l_le.size(), 32u);
  unsigned carry = 0;
  for (int i = 0; i < 32; ++i) {
    const unsigned v = sig[static_cast<std::size_t>(32 + i)] + l_le[static_cast<std::size_t>(i)] + carry;
    sig[static_cast<std::size_t>(32 + i)] = static_cast<std::uint8_t>(v);
    carry = v >> 8;
  }
  EXPECT_FALSE(ed25519_verify(kp.public_key, msg, ByteView(sig.data(), 64)));
}

TEST(Ed25519, BadSignatureLengthRejected) {
  DeterministicRandom rng(9);
  const auto kp = ed25519_generate(rng);
  const auto sig = ed25519_sign(kp.seed, to_bytes("m"));
  EXPECT_FALSE(ed25519_verify(kp.public_key, to_bytes("m"),
                              ByteView(sig.data(), 63)));
  EXPECT_FALSE(ed25519_verify(kp.public_key, to_bytes("m"), {}));
}

// Property: sign/verify round trip across message sizes and keys.
class Ed25519Sweep : public ::testing::TestWithParam<int> {};

TEST_P(Ed25519Sweep, SignVerifyRoundTrip) {
  DeterministicRandom rng(static_cast<std::uint64_t>(GetParam()));
  const auto kp = ed25519_generate(rng);
  const Bytes msg = rng.bytes(static_cast<std::size_t>(GetParam()) * 17 % 300);
  const auto sig = ed25519_sign(kp.seed, msg);
  EXPECT_TRUE(ed25519_verify(kp.public_key, msg, ByteView(sig.data(), 64)));
}

INSTANTIATE_TEST_SUITE_P(Keys, Ed25519Sweep, ::testing::Range(0, 12));

// Cross-check the windowed fixed-base path against the reference
// double-and-add ladder on edge-case and random scalars. The window table,
// radix-16 recoding, and Niels mixed additions share no code with the
// ladder, so agreement pins them independently of the RFC vectors.
TEST(Ed25519, WindowedBaseMulMatchesLadder) {
  std::array<std::uint8_t, 32> scalar{};
  // Zero, one, two, and the largest single-limb values.
  EXPECT_EQ(detail::base_mul_windowed(scalar), detail::base_mul_ladder(scalar));
  scalar[0] = 1;
  EXPECT_EQ(detail::base_mul_windowed(scalar), detail::base_mul_ladder(scalar));
  scalar[0] = 2;
  EXPECT_EQ(detail::base_mul_windowed(scalar), detail::base_mul_ladder(scalar));
  scalar.fill(0xff);
  scalar[31] = 0x1f;  // just below 2^253
  EXPECT_EQ(detail::base_mul_windowed(scalar), detail::base_mul_ladder(scalar));

  DeterministicRandom rng(0x25519);
  for (int i = 0; i < 64; ++i) {
    const Bytes r = rng.bytes(32);
    std::copy(r.begin(), r.end(), scalar.begin());
    scalar[31] &= 0x1f;  // keep within the table path's 2^253 domain
    ASSERT_EQ(detail::base_mul_windowed(scalar), detail::base_mul_ladder(scalar))
        << "iteration " << i;
    // Clamped form, as used by key generation and signing.
    scalar[0] &= 248;
    scalar[31] &= 63;
    scalar[31] |= 64;
    ASSERT_EQ(detail::base_mul_windowed(scalar), detail::base_mul_ladder(scalar))
        << "clamped iteration " << i;
  }
}

// 1000 random keys/messages through the full windowed-sign + Straus-verify
// pipeline, with a tamper check on each round.
TEST(Ed25519, RandomSignVerifyTamperSweep) {
  DeterministicRandom rng(0x8032);
  for (int i = 0; i < 1000; ++i) {
    const auto kp = ed25519_generate(rng);
    const Bytes msg = rng.bytes(static_cast<std::size_t>(i) % 97);
    const auto sig = ed25519_sign(kp.seed, msg);
    ASSERT_TRUE(ed25519_verify(kp.public_key, msg, ByteView(sig.data(), 64)))
        << "iteration " << i;
    auto bad = sig;
    bad[static_cast<std::size_t>(i) % 64] ^= 1;
    ASSERT_FALSE(ed25519_verify(kp.public_key, msg, ByteView(bad.data(), 64)))
        << "iteration " << i;
  }
}

}  // namespace
}  // namespace vnfsgx::crypto

namespace vnfsgx::crypto {
namespace {

TEST(X25519, Rfc7748IteratedVector1000) {
  // RFC 7748 §5.2: iterate k' = X25519(k, u), u' = k. After 1000
  // iterations: 684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51
  X25519Key k{};
  X25519Key u{};
  k[0] = 9;
  u[0] = 9;
  for (int i = 0; i < 1000; ++i) {
    const X25519Key next = x25519(k, u);
    u = k;
    k = next;
  }
  EXPECT_EQ(to_hex(k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

}  // namespace
}  // namespace vnfsgx::crypto

// ---------------------------------------------------------------------------
// Ed25519 batch verification: the fleet-attestation fast path. Verdicts must
// be bit-exact with per-signature ed25519_verify across valid, tampered, and
// malformed inputs, with and without a caller-supplied RandomSource for the
// blinding coefficients.
// ---------------------------------------------------------------------------
namespace vnfsgx::crypto {
namespace {

Ed25519Seed batch_seed_from_hex(std::string_view h) {
  const Bytes b = from_hex(h);
  Ed25519Seed s;
  std::copy(b.begin(), b.end(), s.begin());
  return s;
}

struct SignedMessage {
  Ed25519PublicKey public_key{};
  Bytes message;
  Ed25519Signature signature{};
};

std::vector<SignedMessage> make_signed(DeterministicRandom& rng,
                                       std::size_t count) {
  std::vector<SignedMessage> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto kp = ed25519_generate(rng);
    out[i].public_key = kp.public_key;
    out[i].message = rng.bytes(i % 113);
    out[i].signature = ed25519_sign(kp.seed, out[i].message);
  }
  return out;
}

std::vector<Ed25519BatchItem> to_items(const std::vector<SignedMessage>& in) {
  std::vector<Ed25519BatchItem> items(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    items[i].public_key = in[i].public_key;
    items[i].message = ByteView(in[i].message);
    items[i].signature = ByteView(in[i].signature.data(), 64);
  }
  return items;
}

void expect_matches_single(const std::vector<SignedMessage>& batch,
                           RandomSource* rng) {
  const auto items = to_items(batch);
  const std::vector<bool> verdicts =
      ed25519_verify_batch(std::span<const Ed25519BatchItem>(items), rng);
  ASSERT_EQ(verdicts.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(verdicts[i],
              ed25519_verify(items[i].public_key, items[i].message,
                             items[i].signature))
        << "index " << i;
  }
}

TEST(Ed25519Batch, EmptyBatch) {
  EXPECT_TRUE(
      ed25519_verify_batch(std::span<const Ed25519BatchItem>(), nullptr)
          .empty());
}

TEST(Ed25519Batch, Rfc8032VectorsAllAccepted) {
  // The three RFC 8032 §7.1 vectors already exercised one-by-one above,
  // now verified as one batch.
  struct Vector {
    const char* seed;
    const char* msg;
  };
  const Vector vectors[] = {
      {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
       ""},
      {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
       "72"},
      {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
       "af82"},
  };
  std::vector<SignedMessage> batch;
  for (const Vector& v : vectors) {
    SignedMessage sm;
    const Ed25519Seed seed = batch_seed_from_hex(v.seed);
    sm.public_key = ed25519_public_key(seed);
    sm.message = from_hex(v.msg);
    sm.signature = ed25519_sign(seed, sm.message);
    batch.push_back(std::move(sm));
  }
  expect_matches_single(batch, nullptr);
  const auto items = to_items(batch);
  const auto verdicts =
      ed25519_verify_batch(std::span<const Ed25519BatchItem>(items), nullptr);
  for (const bool ok : verdicts) EXPECT_TRUE(ok);
}

TEST(Ed25519Batch, SixtyFourValidSignaturesPass) {
  DeterministicRandom rng(0xba7c);
  const auto batch = make_signed(rng, 64);
  const auto items = to_items(batch);
  // Random and deterministic coefficient derivation must both accept.
  for (RandomSource* coeff_rng : {static_cast<RandomSource*>(&rng),
                                  static_cast<RandomSource*>(nullptr)}) {
    const auto verdicts = ed25519_verify_batch(
        std::span<const Ed25519BatchItem>(items), coeff_rng);
    ASSERT_EQ(verdicts.size(), 64u);
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      EXPECT_TRUE(verdicts[i]) << "index " << i;
    }
  }
}

TEST(Ed25519Batch, TamperedSignatureInSixtyFourIsolated) {
  // One forged report in a 64-quote fleet: the batch equation fails, the
  // per-item fallback pins the culprit, and the other 63 still pass.
  DeterministicRandom rng(0xf1ee);
  auto batch = make_signed(rng, 64);
  const std::size_t victim = 23;
  batch[victim].signature[10] ^= 0x40;
  const auto items = to_items(batch);
  const auto verdicts =
      ed25519_verify_batch(std::span<const Ed25519BatchItem>(items), &rng);
  ASSERT_EQ(verdicts.size(), 64u);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i], i != victim) << "index " << i;
  }
}

TEST(Ed25519Batch, TamperedMessageIsolated) {
  DeterministicRandom rng(0x5eed);
  auto batch = make_signed(rng, 16);
  batch[7].message.push_back(0x00);
  expect_matches_single(batch, &rng);
}

TEST(Ed25519Batch, WrongKeyIsolated) {
  DeterministicRandom rng(0xabcd);
  auto batch = make_signed(rng, 8);
  const auto other = ed25519_generate(rng);
  batch[3].public_key = other.public_key;
  expect_matches_single(batch, nullptr);
}

TEST(Ed25519Batch, MalformedItemsRejectedWithoutPoisoningBatch) {
  DeterministicRandom rng(0x0bad);
  auto batch = make_signed(rng, 8);
  auto items = to_items(batch);
  // Truncated signature and non-canonical S: both must be individually
  // rejected while the six well-formed signatures pass.
  items[1].signature = ByteView(items[1].signature.data(), 63);
  static std::array<std::uint8_t, 64> high_s{};
  high_s.fill(0xff);
  items[5].signature = ByteView(high_s.data(), high_s.size());
  const auto verdicts =
      ed25519_verify_batch(std::span<const Ed25519BatchItem>(items), &rng);
  ASSERT_EQ(verdicts.size(), 8u);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i], i != 1 && i != 5) << "index " << i;
  }
}

TEST(Ed25519Batch, SingleItemBatch) {
  DeterministicRandom rng(0x0001);
  const auto batch = make_signed(rng, 1);
  expect_matches_single(batch, nullptr);
}

TEST(Ed25519Batch, RandomSweepMatchesSingleVerify) {
  // Random batches with random tampering: every verdict must match the
  // single-signature verifier exactly.
  DeterministicRandom rng(0x57ab1e);
  for (int round = 0; round < 10; ++round) {
    auto batch = make_signed(rng, 1 + (static_cast<std::size_t>(round) * 7) % 33);
    for (auto& sm : batch) {
      const Bytes coin = rng.bytes(1);
      if (coin[0] < 64) {
        sm.signature[coin[0] % 64] ^= 1;
      } else if (coin[0] < 96) {
        sm.message.push_back(0x5a);
      }
    }
    expect_matches_single(batch, round % 2 ? &rng : nullptr);
  }
}

}  // namespace
}  // namespace vnfsgx::crypto

// ---------------------------------------------------------------------------
// Expanded signing keys, and verdicts on R encodings that do not decode.
// ---------------------------------------------------------------------------
namespace vnfsgx::crypto {
namespace {

TEST(Ed25519SigningKey, SignsByteEqualToSeedSigningOnRfc8032Vectors) {
  struct Vector {
    const char* seed;
    const char* pub;
    const char* msg;
    const char* sig;
  };
  const Vector vectors[] = {
      {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
       "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
       "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
       "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
      {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
       "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
       "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
       "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
      {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
       "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
       "af82",
       "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
       "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
  };
  DeterministicRandom rng(0xe4);
  for (const Vector& v : vectors) {
    const Ed25519Seed seed = seed_from_hex(v.seed);
    const Ed25519SigningKey key(seed);
    EXPECT_EQ(to_hex(key.public_key()), v.pub);
    const Bytes rfc_msg = from_hex(v.msg);
    const auto rfc_sig = key.sign(rfc_msg);
    EXPECT_EQ(to_hex(ByteView(rfc_sig.data(), rfc_sig.size())), v.sig);
    // Further messages through the same key: the cached expansion must
    // not drift between signatures, and must match seed signing.
    for (std::size_t n : {0u, 1u, 64u, 111u, 112u, 1000u}) {
      const Bytes m = rng.bytes(n);
      const auto sig = key.sign(m);
      EXPECT_EQ(sig, ed25519_sign(seed, m));
      EXPECT_TRUE(ed25519_verify(key.public_key(), m,
                                 ByteView(sig.data(), sig.size())));
    }
    EXPECT_EQ(key.sign(rfc_msg), rfc_sig);
  }
}

TEST(Ed25519SigningKey, GenerateMatchesSeedDerivation) {
  DeterministicRandom a(77);
  DeterministicRandom b(77);
  const Ed25519SigningKey key = Ed25519SigningKey::generate(a);
  const Ed25519KeyPair kp = ed25519_generate(b);
  EXPECT_EQ(key.public_key(), kp.public_key);
  const Bytes m = to_bytes("quote body");
  EXPECT_EQ(key.sign(m), ed25519_sign(kp.seed, m));
}

// Signatures whose R is not a canonical point encoding: single verify
// compares encodings without decoding R, batch verify decodes R; both must
// reject every one of them, and agree item by item inside a batch.
TEST(Ed25519, UndecodableAndNonCanonicalRAgreeAcrossSingleAndBatch) {
  // The identity is a (weak) public key for which s = 0 and R = identity
  // verifies; its non-canonical spellings must not.
  Ed25519PublicKey identity{};
  identity[0] = 1;
  const Bytes msg = to_bytes("weak key");
  std::array<std::uint8_t, 64> canonical{};
  canonical[0] = 1;  // R = (0, 1), s = 0
  EXPECT_TRUE(ed25519_verify(identity, msg, canonical));

  std::vector<std::array<std::uint8_t, 64>> bad_r;
  auto y_is_p_plus_1 = canonical;  // y = p + 1 ≡ 1, non-canonical
  y_is_p_plus_1[0] = 0xee;
  std::fill(y_is_p_plus_1.begin() + 1, y_is_p_plus_1.begin() + 31,
            std::uint8_t{0xff});
  y_is_p_plus_1[31] = 0x7f;
  bad_r.push_back(y_is_p_plus_1);
  auto negative_zero_x = canonical;  // x = 0 with the sign bit set
  negative_zero_x[31] = 0x80;
  bad_r.push_back(negative_zero_x);
  for (const auto& sig : bad_r) {
    EXPECT_FALSE(ed25519_verify(identity, msg, sig));
  }

  // Real signatures with R replaced: the p + 1 spelling, y = 2^255 - 1,
  // and random y values (about half of which have no x on the curve).
  DeterministicRandom rng(0xdec0de);
  std::vector<SignedMessage> batch = make_signed(rng, 24);
  for (std::size_t i = 0; i < batch.size(); i += 2) {
    auto& r = batch[i].signature;
    if (i == 0) {
      std::copy(y_is_p_plus_1.begin(), y_is_p_plus_1.begin() + 32, r.begin());
    } else if (i == 2) {
      std::fill(r.begin(), r.begin() + 32, std::uint8_t{0xff});
      r[31] = 0x7f;
    } else {
      rng.fill(std::span<std::uint8_t>(r.data(), 32));
    }
    EXPECT_FALSE(ed25519_verify(batch[i].public_key, batch[i].message,
                                ByteView(r.data(), r.size())))
        << "index " << i;
  }
  expect_matches_single(batch, nullptr);
  expect_matches_single(batch, &rng);

  // The weak-key cases inside a batch of valid signatures.
  std::vector<SignedMessage> mixed = make_signed(rng, 4);
  for (const auto& sig : bad_r) {
    SignedMessage sm;
    sm.public_key = identity;
    sm.message = msg;
    std::copy(sig.begin(), sig.end(), sm.signature.begin());
    mixed.push_back(sm);
  }
  SignedMessage ok;
  ok.public_key = identity;
  ok.message = msg;
  std::copy(canonical.begin(), canonical.end(), ok.signature.begin());
  mixed.push_back(ok);
  expect_matches_single(mixed, nullptr);
}

}  // namespace
}  // namespace vnfsgx::crypto

// ---------------------------------------------------------------------------
// Held verifying keys: the 16x8 table path must give exactly the verdict of
// the one-off Straus path on every input, valid or not.
// ---------------------------------------------------------------------------
namespace vnfsgx::crypto {
namespace {

using Encoded = std::array<std::uint8_t, 32>;

Encoded encoded_from_hex(std::string_view h) {
  const Bytes b = from_hex(h);
  Encoded e{};
  std::copy(b.begin(), b.end(), e.begin());
  return e;
}

// The one-off verdict, after checking the held key gives the same one.
bool held_matches_one_off(const Ed25519VerifyingKey& key, ByteView message,
                          ByteView signature) {
  const bool one_off = ed25519_verify(key.public_key(), message, signature);
  EXPECT_EQ(key.verify(message, signature), one_off)
      << "key " << to_hex(key.public_key()) << " sig " << to_hex(signature);
  return one_off;
}

// A canonical scalar (< L) from random bytes.
Encoded random_scalar(DeterministicRandom& rng) {
  return detail::scalar_reduce(rng.bytes(64));
}

Ed25519Signature signature_of(const Encoded& r, const Encoded& s) {
  Ed25519Signature sig{};
  std::copy(r.begin(), r.end(), sig.begin());
  std::copy(s.begin(), s.end(), sig.begin() + 32);
  return sig;
}

// The 8 points of the torsion subgroup, canonically encoded: the identity,
// the point of order 2, two of order 4 and four of order 8.
std::vector<Encoded> torsion_points() {
  return {
      encoded_from_hex("01000000000000000000000000000000"
                       "00000000000000000000000000000000"),
      encoded_from_hex("ecffffffffffffffffffffffffffffff"
                       "ffffffffffffffffffffffffffffff7f"),
      encoded_from_hex("00000000000000000000000000000000"
                       "00000000000000000000000000000000"),
      encoded_from_hex("00000000000000000000000000000000"
                       "00000000000000000000000000000080"),
      encoded_from_hex("26e8958fc2b227b045c3f489f2ef98f0"
                       "d5dfac05d3c63339b13802886d53fc05"),
      encoded_from_hex("26e8958fc2b227b045c3f489f2ef98f0"
                       "d5dfac05d3c63339b13802886d53fc85"),
      encoded_from_hex("c7176a703d4dd84fba3c0b760d10670f"
                       "2a2053fa2c39ccc64ec7fd7792ac037a"),
      encoded_from_hex("c7176a703d4dd84fba3c0b760d10670f"
                       "2a2053fa2c39ccc64ec7fd7792ac03fa"),
  };
}

TEST(Ed25519VerifyingKey, Rfc8032VectorsAndEveryBitFlipMatchOneOff) {
  struct Vector {
    const char* pub;
    const char* msg;
    const char* sig;
  };
  const Vector vectors[] = {
      {"d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
       "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
       "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
      {"3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
       "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
       "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
      {"fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
       "af82",
       "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
       "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
  };
  for (const Vector& v : vectors) {
    const auto key =
        Ed25519VerifyingKey::from_public_key(encoded_from_hex(v.pub));
    ASSERT_TRUE(key);
    EXPECT_EQ(to_hex(key->public_key()), v.pub);
    const Bytes msg = from_hex(v.msg);
    const Bytes sig = from_hex(v.sig);
    EXPECT_TRUE(held_matches_one_off(*key, msg, sig));
    // A copy shares the table and verifies alike.
    const Ed25519VerifyingKey copy = *key;
    EXPECT_TRUE(copy.verify(msg, sig));
    for (std::size_t bit = 0; bit < 8 * sig.size(); ++bit) {
      Bytes bad = sig;
      bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_FALSE(held_matches_one_off(*key, msg, bad)) << "bit " << bit;
    }
    Bytes longer = msg;
    longer.push_back(0);
    EXPECT_FALSE(held_matches_one_off(*key, longer, sig));
    EXPECT_FALSE(held_matches_one_off(*key, msg, ByteView(sig).first(63)));
  }
}

// 1,000 random keys: the valid signature, a tampered message, a tampered R
// and a tampered s (which may leave s non-canonical).
TEST(Ed25519VerifyingKey, RandomKeysAndTamperedInputsMatchOneOff) {
  DeterministicRandom rng(0x4e1d);
  for (int i = 0; i < 1000; ++i) {
    const Ed25519SigningKey signer = Ed25519SigningKey::generate(rng);
    const auto key = Ed25519VerifyingKey::from_public_key(signer.public_key());
    ASSERT_TRUE(key);
    const Bytes msg = rng.bytes(static_cast<std::size_t>(i) % 131);
    const auto sig = signer.sign(msg);
    ASSERT_TRUE(held_matches_one_off(*key, msg, sig)) << "iteration " << i;

    Bytes other = msg;
    if (other.empty()) other.push_back(0);
    other[static_cast<std::size_t>(i) % other.size()] ^= 0x20;
    ASSERT_FALSE(held_matches_one_off(*key, other, sig)) << "iteration " << i;

    auto bad_r = sig;
    bad_r[static_cast<std::size_t>(i) % 32] ^=
        static_cast<std::uint8_t>(1u << (i % 8));
    ASSERT_FALSE(held_matches_one_off(*key, msg, bad_r)) << "iteration " << i;

    auto bad_s = sig;
    bad_s[32 + static_cast<std::size_t>(i) % 32] ^=
        static_cast<std::uint8_t>(1u << (i % 8));
    ASSERT_FALSE(held_matches_one_off(*key, msg, bad_s)) << "iteration " << i;
  }
}

TEST(Ed25519VerifyingKey, NonCanonicalSAndBadRMatchOneOff) {
  DeterministicRandom rng(0x5ca1);
  const Ed25519SigningKey signer = Ed25519SigningKey::generate(rng);
  const auto key = Ed25519VerifyingKey::from_public_key(signer.public_key());
  ASSERT_TRUE(key);
  const Bytes l_le = from_hex(
      "edd3f55c1a631258d69cf7a2def9de14"
      "00000000000000000000000000000010");
  for (int i = 0; i < 64; ++i) {
    const Bytes msg = rng.bytes(40);
    const auto sig = signer.sign(msg);
    // s + L: the same residue, non-canonical.
    auto plus_l = sig;
    unsigned carry = 0;
    for (std::size_t b = 0; b < 32; ++b) {
      const unsigned v = plus_l[32 + b] + l_le[b] + carry;
      plus_l[32 + b] = static_cast<std::uint8_t>(v);
      carry = v >> 8;
    }
    EXPECT_FALSE(held_matches_one_off(*key, msg, plus_l));
    // s = L exactly, and s with the top bits set.
    auto s_is_l = sig;
    std::copy(l_le.begin(), l_le.end(), s_is_l.begin() + 32);
    EXPECT_FALSE(held_matches_one_off(*key, msg, s_is_l));
    auto top = sig;
    top[63] |= 0xe0;
    EXPECT_FALSE(held_matches_one_off(*key, msg, top));
    // R replaced by random bytes (about half do not decode) and by the
    // non-canonical spelling y = p + 1 of the identity.
    auto random_r = sig;
    rng.fill(std::span<std::uint8_t>(random_r.data(), 32));
    EXPECT_FALSE(held_matches_one_off(*key, msg, random_r));
  }

  // The identity as a (weak) key: s = 0 and R = identity verifies; R's
  // non-canonical spellings (y = p + 1, x = 0 with the sign bit) do not.
  Encoded identity{};
  identity[0] = 1;
  const auto weak = Ed25519VerifyingKey::from_public_key(identity);
  ASSERT_TRUE(weak);
  const Bytes msg = to_bytes("weak key");
  Encoded r = identity;
  EXPECT_TRUE(held_matches_one_off(*weak, msg, signature_of(r, Encoded{})));
  r.fill(0xff);
  r[0] = 0xee;
  r[31] = 0x7f;
  EXPECT_FALSE(held_matches_one_off(*weak, msg, signature_of(r, Encoded{})));
  r = identity;
  r[31] = 0x80;
  EXPECT_FALSE(held_matches_one_off(*weak, msg, signature_of(r, Encoded{})));
}

// Small-order keys (the 8 torsion points) and mixed-order keys (a random
// point plus a torsion point). R = s·B + T' verifies exactly when
// k·A = T', which depends on k mod 8, so both verdicts occur.
TEST(Ed25519VerifyingKey, SmallAndMixedOrderKeysMatchOneOff) {
  const std::vector<Encoded> torsion = torsion_points();
  const Encoded& identity = torsion[0];
  for (const Encoded& t : torsion) {
    // 8·T is the identity.
    auto p = detail::point_add_encoded(t, t);
    ASSERT_TRUE(p) << to_hex(t);
    p = detail::point_add_encoded(*p, *p);
    p = detail::point_add_encoded(*p, *p);
    EXPECT_EQ(*p, identity) << to_hex(t);
  }

  DeterministicRandom rng(0x70e5);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const auto tally = [&](bool ok) { ++(ok ? accepted : rejected); };
  for (const Encoded& t : torsion) {
    const auto small = Ed25519VerifyingKey::from_public_key(t);
    ASSERT_TRUE(small) << to_hex(t);
    for (int i = 0; i < 24; ++i) {
      const Bytes msg = rng.bytes(16);
      const Encoded s = random_scalar(rng);
      const Encoded sb = detail::base_mul_windowed(s);
      const Encoded& t2 = torsion[static_cast<std::size_t>(i) % 8];
      const auto r = detail::point_add_encoded(sb, t2);
      ASSERT_TRUE(r);
      tally(held_matches_one_off(*small, msg, signature_of(*r, s)));
    }

    // Mixed order: A' = A + T under a signature made for A.
    const Ed25519SigningKey signer = Ed25519SigningKey::generate(rng);
    const auto mixed_pk = detail::point_add_encoded(signer.public_key(), t);
    ASSERT_TRUE(mixed_pk);
    const auto mixed = Ed25519VerifyingKey::from_public_key(*mixed_pk);
    ASSERT_TRUE(mixed);
    for (int i = 0; i < 24; ++i) {
      const Bytes msg = rng.bytes(16);
      const auto sig = signer.sign(msg);
      tally(held_matches_one_off(*mixed, msg, sig));
      // And a signature whose R absorbs a torsion component.
      const Encoded s = random_scalar(rng);
      const auto r =
          detail::point_add_encoded(detail::base_mul_windowed(s),
                                    torsion[static_cast<std::size_t>(i) % 8]);
      ASSERT_TRUE(r);
      tally(held_matches_one_off(*mixed, msg, signature_of(*r, s)));
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// A key that does not decode gives no object; the one-off path rejects
// every signature under it.
TEST(Ed25519VerifyingKey, UndecodableKeyGivesNoObject) {
  DeterministicRandom rng(0xbad);
  const Ed25519SigningKey signer = Ed25519SigningKey::generate(rng);
  const Bytes msg = to_bytes("msg");
  const auto sig = signer.sign(msg);

  std::vector<Encoded> bad;
  Encoded y_is_p_plus_1{};  // non-canonical y
  y_is_p_plus_1.fill(0xff);
  y_is_p_plus_1[0] = 0xee;
  y_is_p_plus_1[31] = 0x7f;
  bad.push_back(y_is_p_plus_1);
  Encoded negative_zero_x{};  // y = 1 (x = 0) with the sign bit set
  negative_zero_x[0] = 1;
  negative_zero_x[31] = 0x80;
  bad.push_back(negative_zero_x);
  while (bad.size() < 16) {  // random y with no x on the curve
    Encoded e;
    rng.fill(e);
    if (!detail::point_add_encoded(e, e)) bad.push_back(e);
  }
  for (const Encoded& pk : bad) {
    EXPECT_FALSE(Ed25519VerifyingKey::from_public_key(pk)) << to_hex(pk);
    EXPECT_FALSE(ed25519_verify(pk, msg, sig)) << to_hex(pk);
  }
}

}  // namespace
}  // namespace vnfsgx::crypto
