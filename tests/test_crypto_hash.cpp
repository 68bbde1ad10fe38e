// Hash/MAC/KDF/DRBG tests against published vectors (FIPS 180-4, RFC 4231,
// RFC 5869) plus incremental-API properties, and a differential test of the
// SHA-NI compression path against the portable one.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/hex.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/random.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"

namespace vnfsgx::crypto {
namespace {

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(to_hex(sha256(to_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(sha256(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(sha256(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto d = h.finish();
  EXPECT_EQ(to_hex(ByteView(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShotAtEverySplit) {
  const Bytes msg = to_bytes(
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries. 0123456789 0123456789 0123456789 0123456789");
  const Bytes expected = sha256(msg);
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(ByteView(msg.data(), split));
    h.update(ByteView(msg.data() + split, msg.size() - split));
    const auto d = h.finish();
    EXPECT_EQ(Bytes(d.begin(), d.end()), expected) << "split=" << split;
  }
}

TEST(Sha256, CopySnapshotsState) {
  Sha256 h;
  h.update(to_bytes("hello "));
  Sha256 fork = h;  // transcript-hash style forking
  h.update(to_bytes("world"));
  fork.update(to_bytes("world"));
  const auto a = h.finish();
  const auto b = fork.finish();
  EXPECT_EQ(Bytes(a.begin(), a.end()), Bytes(b.begin(), b.end()));
  EXPECT_EQ(Bytes(a.begin(), a.end()), sha256(to_bytes("hello world")));
}

using CompressFn = void (*)(std::array<std::uint32_t, 8>&,
                            const std::uint8_t*, std::size_t);

/// One-shot SHA-256 padded by hand and compressed by `compress` alone, so
/// each compression path can be pinned to the FIPS vectors on its own.
Sha256Digest digest_with(CompressFn compress, ByteView msg) {
  std::array<std::uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % kSha256BlockSize != kSha256BlockSize - 8) {
    padded.push_back(0);
  }
  const std::uint64_t bit_len = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bit_len >> (i * 8)));
  }
  compress(state, padded.data(), padded.size() / kSha256BlockSize);
  Sha256Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      out[i * 4 + j] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

TEST(Sha256Paths, CompressionAgreesOnRandomStatesAndRuns) {
  if (!sha256_hw_available()) GTEST_SKIP() << "CPU has no SHA-NI";
  DeterministicRandom rng(256);
  for (int trial = 0; trial < 8; ++trial) {
    for (std::size_t nblocks = 1; nblocks <= 64; ++nblocks) {
      const Bytes state_bytes = rng.bytes(32);
      std::array<std::uint32_t, 8> portable{};
      for (std::size_t i = 0; i < 8; ++i) {
        portable[i] = read_u32(state_bytes, 4 * i);
      }
      std::array<std::uint32_t, 8> shani = portable;
      const Bytes data = rng.bytes(nblocks * kSha256BlockSize);
      detail::sha256_compress_portable(portable, data.data(), nblocks);
      detail::sha256_compress_shani(shani, data.data(), nblocks);
      ASSERT_EQ(shani, portable) << "trial=" << trial << " blocks=" << nblocks;
    }
  }
}

TEST(Sha256Paths, EveryUpdateSplitAgreesWithPortableOracle) {
  if (!sha256_hw_available()) GTEST_SKIP() << "CPU has no SHA-NI";
  DeterministicRandom rng(257);
  const Bytes msg = rng.bytes(300);
  for (std::size_t n = 0; n <= msg.size(); ++n) {
    const ByteView whole(msg.data(), n);
    const Sha256Digest expected =
        digest_with(&detail::sha256_compress_portable, whole);
    ASSERT_EQ(digest_with(&detail::sha256_compress_shani, whole), expected)
        << "n=" << n;
    for (std::size_t split = 0; split <= n; ++split) {
      Sha256 h;
      h.update(whole.first(split));
      h.update(whole.subspan(split));
      ASSERT_EQ(h.finish(), expected) << "n=" << n << " split=" << split;
    }
  }
}

TEST(Sha256Paths, MillionAsOnBothPaths) {
  if (!sha256_hw_available()) GTEST_SKIP() << "CPU has no SHA-NI";
  const Bytes msg(1'000'000, 'a');
  const std::string expected =
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  for (CompressFn compress :
       {&detail::sha256_compress_portable, &detail::sha256_compress_shani}) {
    const Sha256Digest d = digest_with(compress, msg);
    EXPECT_EQ(to_hex(ByteView(d.data(), d.size())), expected);
  }
}

TEST(Sha512, Fips180Vectors) {
  EXPECT_EQ(to_hex(sha512(to_bytes(""))),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
  EXPECT_EQ(to_hex(sha512(to_bytes("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(sha512(to_bytes(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, IncrementalAcrossBlockBoundary) {
  Bytes msg(300);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 7);
  }
  const Bytes expected = sha512(msg);
  Sha512 h;
  h.update(ByteView(msg.data(), 100));
  h.update(ByteView(msg.data() + 100, 50));
  h.update(ByteView(msg.data() + 150, 150));
  const auto d = h.finish();
  EXPECT_EQ(Bytes(d.begin(), d.end()), expected);
}

// In-place padding must be right at every tail length, in particular at
// 111/112 bytes mod 128 where the length field stops fitting in the final
// block. The one-shot digests of the 0..300-byte prefixes of one message
// are pinned through a single SHA-512 over their concatenation (the
// constant was computed with an independent SHA-512), and every
// two-update split of every prefix must reproduce its one-shot digest.
TEST(Sha512, EveryUpdateSplitMatchesOneShot) {
  Bytes msg(300);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 7);
  }
  Sha512 all;
  for (std::size_t n = 0; n <= msg.size(); ++n) {
    const ByteView whole(msg.data(), n);
    const Sha512Digest expected = Sha512::hash(whole);
    all.update(expected);
    for (std::size_t split = 0; split <= n; ++split) {
      Sha512 h;
      h.update(whole.first(split));
      h.update(whole.subspan(split));
      ASSERT_EQ(h.finish(), expected) << "n=" << n << " split=" << split;
    }
  }
  const Sha512Digest d = all.finish();
  EXPECT_EQ(to_hex(ByteView(d.data(), d.size())),
            "8a732a2ef96b72c61264041d982c51f52f584ba520746f8dfcbe356c60311e9d"
            "68a05c40ac64998fb6bfca078a50d008373e7d30159f0e4626b1102c1cf370b3");
}

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(to_bytes("Jefe"),
                               to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, to_bytes("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha512, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha512(key, to_bytes("Hi There"))),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde"
            "daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854");
}

TEST(HmacSha256, VerifyAcceptsAndRejects) {
  const Bytes key = to_bytes("k");
  const Bytes data = to_bytes("message");
  Bytes tag = hmac_sha256(key, data);
  EXPECT_TRUE(hmac_sha256_verify(key, data, tag));
  tag[0] ^= 1;
  EXPECT_FALSE(hmac_sha256_verify(key, data, tag));
  EXPECT_FALSE(hmac_sha256_verify(key, data, ByteView(tag.data(), 16)));
}

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3EmptySaltInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf({}, ikm, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, ExpandRejectsOversizedRequest) {
  const Bytes prk = hkdf_extract({}, to_bytes("ikm"));
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), Error);
  EXPECT_EQ(hkdf_expand(prk, {}, 255 * 32).size(), 255u * 32);
}

TEST(Hkdf, ExpandLabelIsContextSeparated) {
  const Bytes secret(32, 0x42);
  const Bytes a = hkdf_expand_label(secret, "key", {}, 16);
  const Bytes b = hkdf_expand_label(secret, "iv", {}, 16);
  const Bytes c = hkdf_expand_label(secret, "key", to_bytes("ctx"), 16);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 16u);
}

TEST(HmacDrbg, DeterministicFromSeed) {
  DeterministicRandom a(7);
  DeterministicRandom b(7);
  DeterministicRandom c(8);
  const Bytes x = a.bytes(64);
  const Bytes y = b.bytes(64);
  const Bytes z = c.bytes(64);
  EXPECT_EQ(x, y);
  EXPECT_NE(x, z);
}

TEST(HmacDrbg, StreamIsStateful) {
  DeterministicRandom a(1);
  const Bytes first = a.bytes(32);
  const Bytes second = a.bytes(32);
  EXPECT_NE(first, second);
}

TEST(HmacDrbg, ReseedChangesOutput) {
  HmacDrbg a(to_bytes("seed"));
  HmacDrbg b(to_bytes("seed"));
  b.reseed(to_bytes("extra entropy"));
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(SystemRandom, ProducesDistinctBlocks) {
  auto& rng = SystemRandom::instance();
  EXPECT_NE(rng.bytes(32), rng.bytes(32));
}

// Property sweep: incremental SHA-256 equals one-shot for many sizes.
class Sha256SizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256SizeSweep, IncrementalMatchesOneShot) {
  const std::size_t n = GetParam();
  Bytes msg(n);
  for (std::size_t i = 0; i < n; ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const Bytes expected = sha256(msg);
  Sha256 h;
  std::size_t off = 0;
  std::size_t chunk = 1;
  while (off < n) {
    const std::size_t take = std::min(chunk, n - off);
    h.update(ByteView(msg.data() + off, take));
    off += take;
    chunk = chunk * 2 + 1;
  }
  const auto d = h.finish();
  EXPECT_EQ(Bytes(d.begin(), d.end()), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Sha256SizeSweep,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 127,
                                           128, 129, 1000, 4096));

}  // namespace
}  // namespace vnfsgx::crypto
