// AES and AES-GCM tests: FIPS 197 / NIST GCM vectors plus tamper properties.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/hex.h"
#include "crypto/aes.h"
#include "crypto/gcm.h"
#include "crypto/random.h"

namespace vnfsgx::crypto {
namespace {

TEST(Aes, Fips197Aes128) {
  const Aes aes(from_hex("000102030405060708090a0b0c0d0e0f"));
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  std::uint8_t out[16];
  aes.encrypt_block(pt.data(), out);
  EXPECT_EQ(to_hex(ByteView(out, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes, Fips197Aes192) {
  const Aes aes(from_hex("000102030405060708090a0b0c0d0e0f1011121314151617"));
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  std::uint8_t out[16];
  aes.encrypt_block(pt.data(), out);
  EXPECT_EQ(to_hex(ByteView(out, 16)), "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(Aes, Fips197Aes256) {
  const Aes aes(from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  std::uint8_t out[16];
  aes.encrypt_block(pt.data(), out);
  EXPECT_EQ(to_hex(ByteView(out, 16)), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes, RejectsBadKeySize) {
  EXPECT_THROW(Aes(Bytes(15)), CryptoError);
  EXPECT_THROW(Aes(Bytes(17)), CryptoError);
  EXPECT_THROW(Aes(Bytes(0)), CryptoError);
}

TEST(AesCtr, EncryptDecryptRoundTrip) {
  const Aes aes(Bytes(16, 0x42));
  AesBlock ctr{};
  ctr[15] = 1;
  Bytes msg = to_bytes("counter mode round trip across block boundaries!");
  Bytes enc(msg.size());
  aes_ctr_xor(aes, ctr, msg, enc.data());
  EXPECT_NE(enc, msg);
  Bytes dec(enc.size());
  aes_ctr_xor(aes, ctr, enc, dec.data());
  EXPECT_EQ(dec, msg);
}

TEST(AesGcm, NistCase1EmptyPlaintext) {
  const AesGcm gcm(Bytes(16, 0));
  const Bytes nonce(12, 0);
  const Bytes out = gcm.seal(nonce, {}, {});
  EXPECT_EQ(to_hex(out), "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(AesGcm, NistCase2SingleBlock) {
  const AesGcm gcm(Bytes(16, 0));
  const Bytes nonce(12, 0);
  const Bytes pt(16, 0);
  const Bytes out = gcm.seal(nonce, pt, {});
  EXPECT_EQ(to_hex(out),
            "0388dace60b6a392f328c2b971b2fe78"
            "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(AesGcm, NistCase3MultiBlock) {
  const AesGcm gcm(from_hex("feffe9928665731c6d6a8f9467308308"));
  const Bytes nonce = from_hex("cafebabefacedbaddecaf888");
  const Bytes pt = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
  const Bytes out = gcm.seal(nonce, pt, {});
  EXPECT_EQ(to_hex(out),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
            "4d5c2af327cd64a62cf35abd2ba6fab4");
}

TEST(AesGcm, NistCase4WithAad) {
  const AesGcm gcm(from_hex("feffe9928665731c6d6a8f9467308308"));
  const Bytes nonce = from_hex("cafebabefacedbaddecaf888");
  const Bytes pt = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const Bytes out = gcm.seal(nonce, pt, aad);
  EXPECT_EQ(to_hex(out),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
            "5bc94fbc3221a5db94fae95ae7121a47");
}

TEST(AesGcm, OpenRoundTrip) {
  const AesGcm gcm(Bytes(32, 0x11));
  const Bytes nonce(12, 0x22);
  const Bytes pt = to_bytes("credential material that must stay sealed");
  const Bytes aad = to_bytes("header");
  const Bytes ct = gcm.seal(nonce, pt, aad);
  const auto opened = gcm.open(nonce, ct, aad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

TEST(AesGcm, TamperedCiphertextRejected) {
  const AesGcm gcm(Bytes(16, 0x01));
  const Bytes nonce(12, 0x02);
  const Bytes pt = to_bytes("payload");
  Bytes ct = gcm.seal(nonce, pt, {});
  for (std::size_t i = 0; i < ct.size(); ++i) {
    Bytes tampered = ct;
    tampered[i] ^= 0x80;
    EXPECT_FALSE(gcm.open(nonce, tampered, {}).has_value()) << "byte " << i;
  }
}

TEST(AesGcm, WrongAadRejected) {
  const AesGcm gcm(Bytes(16, 0x01));
  const Bytes nonce(12, 0x02);
  const Bytes ct = gcm.seal(nonce, to_bytes("data"), to_bytes("aad"));
  EXPECT_FALSE(gcm.open(nonce, ct, to_bytes("aaX")).has_value());
  EXPECT_FALSE(gcm.open(nonce, ct, {}).has_value());
  EXPECT_TRUE(gcm.open(nonce, ct, to_bytes("aad")).has_value());
}

TEST(AesGcm, WrongNonceRejected) {
  const AesGcm gcm(Bytes(16, 0x01));
  const Bytes ct = gcm.seal(Bytes(12, 0x02), to_bytes("data"), {});
  EXPECT_FALSE(gcm.open(Bytes(12, 0x03), ct, {}).has_value());
}

TEST(AesGcm, WrongKeyRejected) {
  const AesGcm a(Bytes(16, 0x01));
  const AesGcm b(Bytes(16, 0x02));
  const Bytes nonce(12, 0);
  const Bytes ct = a.seal(nonce, to_bytes("data"), {});
  EXPECT_FALSE(b.open(nonce, ct, {}).has_value());
}

TEST(AesGcm, TruncatedInputRejected) {
  const AesGcm gcm(Bytes(16, 0x01));
  const Bytes nonce(12, 0);
  const Bytes ct = gcm.seal(nonce, to_bytes("data"), {});
  EXPECT_FALSE(gcm.open(nonce, ByteView(ct.data(), ct.size() - 1), {}).has_value());
  EXPECT_FALSE(gcm.open(nonce, ByteView(ct.data(), 15), {}).has_value());
  EXPECT_FALSE(gcm.open(nonce, {}, {}).has_value());
}

TEST(AesGcm, RejectsBadNonceSize) {
  const AesGcm gcm(Bytes(16, 0x01));
  EXPECT_THROW(gcm.seal(Bytes(11, 0), to_bytes("x"), {}), CryptoError);
  EXPECT_THROW(gcm.seal(Bytes(16, 0), to_bytes("x"), {}), CryptoError);
}

TEST(AesGcm, NistCase14Aes256EmptyPlaintext) {
  const AesGcm gcm(Bytes(32, 0));
  const Bytes nonce(12, 0);
  const Bytes out = gcm.seal(nonce, {}, {});
  EXPECT_EQ(to_hex(out), "530f8afbc74536b9a963b4f1c4cb738b");
}

TEST(AesGcm, NistCase16Aes256NonAlignedWithAad) {
  const AesGcm gcm(from_hex(
      "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308"));
  const Bytes nonce = from_hex("cafebabefacedbaddecaf888");
  const Bytes pt = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const Bytes out = gcm.seal(nonce, pt, aad);
  EXPECT_EQ(to_hex(out),
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
            "76fc6ece0f4e1768cddf8853bb2d551b");
}

TEST(AesGcm, EmptyPlaintextWithAadRoundTrip) {
  const AesGcm gcm(Bytes(16, 0x5a));
  const Bytes nonce(12, 0x0b);
  const Bytes aad = to_bytes("authenticated-only header");
  const Bytes ct = gcm.seal(nonce, {}, aad);
  EXPECT_EQ(ct.size(), kGcmTagSize);
  const auto opened = gcm.open(nonce, ct, aad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
  EXPECT_FALSE(gcm.open(nonce, ct, to_bytes("other header")).has_value());
}

TEST(AesGcm, InPlaceMatchesAllocatingPath) {
  DeterministicRandom rng(7);
  for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                std::size_t{16}, std::size_t{61},
                                std::size_t{1024}}) {
    const AesGcm gcm(rng.bytes(16));
    const Bytes nonce = rng.bytes(12);
    const Bytes pt = rng.bytes(len);
    const Bytes aad = rng.bytes(13);
    const Bytes sealed = gcm.seal(nonce, pt, aad);

    Bytes buf = pt;
    buf.resize(len + kGcmTagSize);
    gcm.seal_in_place(nonce, buf.data(), len, aad, buf.data() + len);
    EXPECT_EQ(buf, sealed) << "len " << len;

    ASSERT_TRUE(gcm.open_in_place(nonce, buf.data(), len, aad,
                                  ByteView(buf.data() + len, kGcmTagSize)));
    EXPECT_EQ(Bytes(buf.begin(),
                    buf.begin() + static_cast<std::ptrdiff_t>(len)),
              pt);

    if (len > 0) {
      buf = sealed;
      buf[0] ^= 1;
      EXPECT_FALSE(gcm.open_in_place(nonce, buf.data(), len, aad,
                                     ByteView(buf.data() + len, kGcmTagSize)));
      // On failure the data must be left as (tampered) ciphertext.
      EXPECT_EQ(buf[0], static_cast<std::uint8_t>(sealed[0] ^ 1));
    }
  }
}

// Cross-check the PCLMUL GHASH multiplier against the branchless
// bit-at-a-time reference on structured and random inputs. The two share
// no code, so agreement here pins the hardware multiplier (and its
// reduction) independently of the AEAD vectors. On CPUs without PCLMUL
// the clmul hook degenerates to the reference; the structured identities
// below still pin the reference itself.
TEST(Ghash, ClmulMatchesReferenceExhaustiveRandom) {
  DeterministicRandom rng(0x9456);
  auto random_block = [&] {
    AesBlock b;
    const Bytes r = rng.bytes(16);
    std::copy(r.begin(), r.end(), b.begin());
    return b;
  };
  // Edge cases: zero, the GF identity (x^0 = 0x80 in byte 0), all-ones,
  // and every single-bit element on both sides.
  AesBlock zero{};
  AesBlock one{};
  one[0] = 0x80;
  AesBlock ones;
  ones.fill(0xff);
  const AesBlock h = random_block();
  EXPECT_EQ(detail::ghash_mul_reference(zero, h), zero);
  EXPECT_EQ(detail::ghash_mul_reference(one, h), h);
  EXPECT_EQ(detail::ghash_mul_reference(h, one), h);
  EXPECT_EQ(detail::ghash_mul_clmul(zero, h), detail::ghash_mul_reference(zero, h));
  EXPECT_EQ(detail::ghash_mul_clmul(one, h), h);
  EXPECT_EQ(detail::ghash_mul_clmul(ones, h), detail::ghash_mul_reference(ones, h));
  for (int bit = 0; bit < 128; ++bit) {
    AesBlock x{};
    x[static_cast<std::size_t>(bit / 8)] =
        static_cast<std::uint8_t>(0x80 >> (bit % 8));
    EXPECT_EQ(detail::ghash_mul_clmul(x, h), detail::ghash_mul_reference(x, h))
        << "bit " << bit;
    EXPECT_EQ(detail::ghash_mul_clmul(h, x), detail::ghash_mul_reference(h, x))
        << "bit " << bit;
  }
  for (int i = 0; i < 2000; ++i) {
    const AesBlock x = random_block();
    const AesBlock y = random_block();
    ASSERT_EQ(detail::ghash_mul_clmul(x, y), detail::ghash_mul_reference(x, y))
        << "iteration " << i;
    // The multiplier commutes; a reduction slip rarely preserves that.
    ASSERT_EQ(detail::ghash_mul_reference(x, y), detail::ghash_mul_reference(y, x))
        << "iteration " << i;
  }
}

// The tag the software GHASH would produce: GHASH_H(aad, ct) xor E_K(J0).
Bytes software_tag(ByteView key, ByteView nonce, ByteView ciphertext,
                   ByteView aad) {
  const Aes aes(key);
  const AesBlock h = aes.encrypt_block(AesBlock{});
  AesBlock j0{};
  std::copy(nonce.begin(), nonce.end(), j0.begin());
  j0[15] = 1;
  const AesBlock mask = aes.encrypt_block(j0);
  const AesBlock s = detail::ghash_software(h, aad, ciphertext);
  Bytes tag(kGcmTagSize);
  for (std::size_t i = 0; i < kGcmTagSize; ++i) {
    tag[i] = static_cast<std::uint8_t>(s[i] ^ mask[i]);
  }
  return tag;
}

// The whole software GHASH (padding of partial AAD and ciphertext blocks,
// the AAD/ciphertext split, the length block) against the tag AesGcm
// computes, which is the PCLMUL path whenever the CPU has it. Without
// PCLMUL both sides run the software path and only the NIST vector below
// is an independent check.
TEST(AesGcm, SoftwareGhashMatchesHardware) {
  const Bytes key = from_hex("feffe9928665731c6d6a8f9467308308");
  const Bytes nonce = from_hex("cafebabefacedbaddecaf888");
  const Bytes pt = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const Bytes sealed = AesGcm(key).seal(nonce, pt, aad);
  const ByteView ct = ByteView(sealed).first(pt.size());
  // NIST case 4: 60-byte ciphertext, 20-byte AAD, both partial.
  EXPECT_EQ(to_hex(software_tag(key, nonce, ct, aad)),
            "5bc94fbc3221a5db94fae95ae7121a47");

  DeterministicRandom rng(0x6c4d);
  for (const std::size_t size :
       {0, 1, 15, 16, 17, 31, 32, 33, 255, 256, 1000, 16384}) {
    const Bytes k = rng.bytes(16);
    const Bytes n = rng.bytes(12);
    const Bytes plain = rng.bytes(size);
    const AesGcm gcm(k);
    for (std::size_t aad_len = 0; aad_len <= 37; ++aad_len) {
      const Bytes a = rng.bytes(aad_len);
      const Bytes out = gcm.seal(n, plain, a);
      const ByteView tag = ByteView(out).subspan(size);
      ASSERT_EQ(to_hex(software_tag(k, n, ByteView(out).first(size), a)),
                to_hex(tag))
          << "size " << size << " aad " << aad_len;
    }
  }
}

// Property: round trip holds across plaintext sizes spanning block edges.
class GcmSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GcmSizeSweep, RoundTrip) {
  DeterministicRandom rng(GetParam());
  const AesGcm gcm(rng.bytes(16));
  const Bytes nonce = rng.bytes(12);
  const Bytes pt = rng.bytes(GetParam());
  const Bytes aad = rng.bytes(GetParam() % 37);
  const Bytes ct = gcm.seal(nonce, pt, aad);
  EXPECT_EQ(ct.size(), pt.size() + kGcmTagSize);
  const auto opened = gcm.open(nonce, ct, aad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GcmSizeSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 255,
                                           256, 1000, 16384));

}  // namespace
}  // namespace vnfsgx::crypto
