// Differential tests for the Curve25519 arithmetic layers:
//   * GF(2^255 - 19) field operations against a naive big-integer mod-p
//     reference, with inputs at the limb bounds the field25519.h contract
//     allows (sums of up to four loose values, unreduced values in
//     [p, 2^255));
//   * the word-wise scalar reduction mod L against the bit-serial long
//     division it replaced, kept here as the oracle.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "crypto/ed25519.h"
#include "crypto/field25519.h"
#include "crypto/random.h"

namespace vnfsgx::crypto {
namespace {

// ---------------------------------------------------------------------------
// Naive reference: little-endian 32-bit limbs, 2^255 ≡ 19 folding.
// ---------------------------------------------------------------------------

using Big = std::array<std::uint32_t, 20>;  // 640 bits

Big big_from_fe(const Fe& a) {
  Big r{};
  for (int i = 0; i < 5; ++i) {
    // Add v[i] << 51i.
    const int bit = 51 * i;
    unsigned __int128 v = static_cast<unsigned __int128>(a.v[i])
                          << (bit % 32);
    for (int j = bit / 32; j < 20 && v != 0; ++j) {
      v += r[static_cast<std::size_t>(j)];
      r[static_cast<std::size_t>(j)] = static_cast<std::uint32_t>(v);
      v >>= 32;
    }
  }
  return r;
}

Big big_add(const Big& a, const Big& b) {
  Big r{};
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    c += static_cast<std::uint64_t>(a[i]) + b[i];
    r[i] = static_cast<std::uint32_t>(c);
    c >>= 32;
  }
  return r;
}

// a - b for a >= b.
Big big_sub(const Big& a, const Big& b) {
  Big r{};
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    std::int64_t d = static_cast<std::int64_t>(a[i]) - b[i] - borrow;
    borrow = d < 0 ? 1 : 0;
    if (d < 0) d += std::int64_t{1} << 32;
    r[i] = static_cast<std::uint32_t>(d);
  }
  return r;
}

// Inputs < 2^320.
Big big_mul(const Big& a, const Big& b) {
  Big r{};
  for (std::size_t i = 0; i < 10; ++i) {
    std::uint64_t c = 0;
    for (std::size_t j = 0; j < 10; ++j) {
      c += static_cast<std::uint64_t>(a[i]) * b[j] + r[i + j];
      r[i + j] = static_cast<std::uint32_t>(c);
      c >>= 32;
    }
    r[i + 10] = static_cast<std::uint32_t>(c);
  }
  return r;
}

bool big_ge(const Big& a, const Big& b) {
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

const Big& big_p() {
  static const Big p = [] {
    Big v{};
    for (int i = 0; i < 8; ++i) v[static_cast<std::size_t>(i)] = 0xffffffffu;
    v[0] = 0xffffffedu;
    v[7] = 0x7fffffffu;
    return v;
  }();
  return p;
}

Big big_mod_p(Big x) {
  for (;;) {
    // hi = x >> 255, lo = x mod 2^255.
    Big hi{};
    for (std::size_t i = 7; i < 20; ++i) {
      const std::uint64_t w =
          (static_cast<std::uint64_t>(i + 1 < 20 ? x[i + 1] : 0) << 32) | x[i];
      hi[i - 7] = static_cast<std::uint32_t>(w >> 31);
    }
    bool zero = true;
    for (auto w : hi) zero = zero && w == 0;
    if (zero) break;
    Big lo = x;
    for (std::size_t i = 8; i < 20; ++i) lo[i] = 0;
    lo[7] &= 0x7fffffffu;
    Big nineteen{};
    nineteen[0] = 19;
    x = big_add(lo, big_mul(hi, nineteen));
  }
  while (big_ge(x, big_p())) x = big_sub(x, big_p());
  return x;
}

std::array<std::uint8_t, 32> big_bytes(const Big& x) {
  std::array<std::uint8_t, 32> out{};
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(x[i / 4] >> (8 * (i % 4)));
  }
  return out;
}

std::array<std::uint8_t, 32> ref_value(const Fe& a) {
  return big_bytes(big_mod_p(big_from_fe(a)));
}

// ---------------------------------------------------------------------------
// Inputs at the contract's bounds.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kLooseBound = (1ULL << 51) + (1ULL << 18);

bool is_loose(const Fe& a) {
  for (const std::uint64_t v : a.v) {
    if (v >= kLooseBound) return false;
  }
  return true;
}

std::uint64_t rand_u64(DeterministicRandom& rng) {
  const Bytes b = rng.bytes(8);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v |= std::uint64_t{b[i]} << (8 * i);
  return v;
}

// A loose value: random limbs, a third of them pinned to the bound.
Fe rand_loose(DeterministicRandom& rng) {
  Fe r;
  for (auto& v : r.v) {
    const std::uint64_t x = rand_u64(rng);
    v = (x % 3 == 0) ? kLooseBound - 1 - (x >> 60) : x % kLooseBound;
  }
  return r;
}

// The sum of `terms` (1..4) loose values, built with fe_add.
Fe rand_sum(DeterministicRandom& rng, int terms) {
  Fe r = rand_loose(rng);
  for (int i = 1; i < terms; ++i) r = fe_add(r, rand_loose(rng));
  return r;
}

Fe max_sum(int terms) {
  Fe r;
  for (auto& v : r.v) v = (kLooseBound - 1) * static_cast<std::uint64_t>(terms);
  return r;
}

TEST(Field25519, MulAndSqMatchReferenceAtLimbBounds) {
  DeterministicRandom rng(0xfe11);
  for (int i = 0; i < 2000; ++i) {
    const Fe a = rand_sum(rng, 1 + i % 4);
    const Fe b = rand_sum(rng, 1 + (i / 4) % 4);
    const Fe prod = fe_mul(a, b);
    ASSERT_TRUE(is_loose(prod)) << i;
    ASSERT_EQ(fe_to_bytes(prod),
              big_bytes(big_mod_p(big_mul(big_from_fe(a), big_from_fe(b)))))
        << i;
    const Fe sq = fe_sq(a);
    ASSERT_TRUE(is_loose(sq)) << i;
    ASSERT_EQ(fe_to_bytes(sq),
              big_bytes(big_mod_p(big_mul(big_from_fe(a), big_from_fe(a)))))
        << i;
  }
  // Every limb at the largest four-term sum.
  const Fe m = max_sum(4);
  EXPECT_EQ(fe_to_bytes(fe_mul(m, m)),
            big_bytes(big_mod_p(big_mul(big_from_fe(m), big_from_fe(m)))));
  EXPECT_EQ(fe_to_bytes(fe_sq(m)), fe_to_bytes(fe_mul(m, m)));
}

TEST(Field25519, AddSubNegMatchReferenceAtLimbBounds) {
  DeterministicRandom rng(0x5ab);
  for (int i = 0; i < 2000; ++i) {
    const Fe a = rand_sum(rng, 1 + i % 4);
    const Fe b = rand_sum(rng, 1 + (i / 4) % 4);
    const Big ra = big_mod_p(big_from_fe(a));
    const Big rb = big_mod_p(big_from_fe(b));

    const Fe sum = fe_add(a, b);
    ASSERT_EQ(fe_to_bytes(sum), big_bytes(big_mod_p(big_add(ra, rb)))) << i;

    // fe_sub of sums (a - b + 8p never underflows at these bounds).
    const Fe diff = fe_sub(a, b);
    ASSERT_TRUE(is_loose(diff)) << i;
    ASSERT_EQ(fe_to_bytes(diff),
              big_bytes(big_mod_p(big_sub(big_add(ra, big_p()), rb))))
        << i;

    const Fe neg = fe_neg(b);
    ASSERT_TRUE(is_loose(neg)) << i;
    ASSERT_EQ(fe_to_bytes(neg),
              big_bytes(big_mod_p(big_sub(big_p(), rb))))
        << i;

    // fe_add output straight into the multipliers.
    const Fe ab = fe_add(rand_loose(rng), rand_loose(rng));
    ASSERT_EQ(fe_to_bytes(fe_mul(ab, diff)),
              big_bytes(big_mod_p(big_mul(big_from_fe(ab), big_from_fe(diff)))))
        << i;
    ASSERT_EQ(fe_to_bytes(fe_sq(ab)),
              big_bytes(big_mod_p(big_mul(big_from_fe(ab), big_from_fe(ab)))))
        << i;

    const Fe small = fe_mul_small(a, 121665);
    ASSERT_TRUE(is_loose(small)) << i;
    Big k{};
    k[0] = 121665;
    ASSERT_EQ(fe_to_bytes(small),
              big_bytes(big_mod_p(big_mul(big_from_fe(a), k))))
        << i;
  }
  // b at the largest four-term sum: the 8p offset must still cover it.
  const Fe m = max_sum(4);
  EXPECT_EQ(fe_to_bytes(fe_sub(fe_zero(), m)), fe_to_bytes(fe_neg(m)));
  EXPECT_EQ(fe_to_bytes(fe_add(fe_neg(m), m)), fe_to_bytes(fe_zero()));
}

TEST(Field25519, ToBytesReducesValuesFromPTo2Pow255) {
  // Limbs < 2^51 spelling every value from p to 2^255 - 1: the encoding
  // must be the residue (0 .. 18).
  constexpr std::uint64_t kMask = (1ULL << 51) - 1;
  for (std::uint64_t k = 0; k < 40; ++k) {
    Fe v{{kMask - 18 + k, kMask, kMask, kMask, kMask}};  // p + k (k < 19)
    if (k >= 19) v = Fe{{kMask - (k - 19), kMask, kMask, kMask, kMask}};
    EXPECT_EQ(fe_to_bytes(v), ref_value(v)) << k;
  }
  Fe p_exact{{kMask - 18, kMask, kMask, kMask, kMask}};
  EXPECT_EQ(fe_to_bytes(p_exact), fe_to_bytes(fe_zero()));
  EXPECT_TRUE(fe_is_zero(p_exact));
  // 2^255 - 1 = p + 18.
  Fe top{{kMask, kMask, kMask, kMask, kMask}};
  std::array<std::uint8_t, 32> eighteen{};
  eighteen[0] = 18;
  EXPECT_EQ(fe_to_bytes(top), eighteen);
  // Unreduced limbs up to the four-term bound.
  DeterministicRandom rng(0xb17e5);
  for (int i = 0; i < 2000; ++i) {
    const Fe a = rand_sum(rng, 1 + i % 4);
    ASSERT_EQ(fe_to_bytes(a), ref_value(a)) << i;
    ASSERT_EQ(fe_is_negative(a), ref_value(a)[0] & 1) << i;
  }
  EXPECT_EQ(fe_to_bytes(max_sum(4)), ref_value(max_sum(4)));
}

TEST(Field25519, FromBytesToBytesRoundTripsCanonicalValues) {
  DeterministicRandom rng(0xc0de);
  for (int i = 0; i < 500; ++i) {
    Bytes b = rng.bytes(32);
    b[31] &= 0x7f;
    const Fe a = fe_from_bytes(b);
    const auto expected = ref_value(a);
    ASSERT_EQ(fe_to_bytes(a), expected) << i;
    // Canonical inputs (< p, true for all but ~2^-250 of draws) round-trip.
    ASSERT_EQ(Bytes(expected.begin(), expected.end()), b) << i;
  }
}

TEST(Field25519, InvertAndPowChainMatchReference) {
  DeterministicRandom rng(0x1a7);
  for (int i = 0; i < 50; ++i) {
    const Fe a = rand_sum(rng, 1 + i % 4);
    const Fe inv = fe_invert(a);
    EXPECT_EQ(fe_to_bytes(fe_mul(a, inv)), fe_to_bytes(fe_one())) << i;
  }
  EXPECT_EQ(fe_to_bytes(fe_invert(fe_zero())), fe_to_bytes(fe_zero()));
  // sqrt(-1)^2 == -1.
  EXPECT_EQ(fe_to_bytes(fe_sq(fe_sqrt_m1())), fe_to_bytes(fe_neg(fe_one())));
}

// ---------------------------------------------------------------------------
// Scalars mod L: the bit-serial long division the word-wise reduction
// replaced, as the oracle.
// ---------------------------------------------------------------------------

using Limbs9 = std::array<std::uint32_t, 9>;

const Limbs9 kOrder = {0x5cf5d3edu, 0x5812631au, 0xa2f79cd6u,
                       0x14def9deu, 0x00000000u, 0x00000000u,
                       0x00000000u, 0x10000000u, 0u};

std::array<std::uint8_t, 32> oracle_reduce(ByteView bytes_le) {
  Limbs9 r{};  // running remainder < L
  for (std::size_t byte_idx = bytes_le.size(); byte_idx-- > 0;) {
    for (int bit = 7; bit >= 0; --bit) {
      std::uint32_t carry = (bytes_le[byte_idx] >> bit) & 1;
      for (auto& limb : r) {
        const std::uint32_t next = limb >> 31;
        limb = (limb << 1) | carry;
        carry = next;
      }
      bool ge = true;
      for (std::size_t i = 9; i-- > 0;) {
        if (r[i] != kOrder[i]) {
          ge = r[i] > kOrder[i];
          break;
        }
      }
      if (ge) {
        std::uint64_t borrow = 0;
        for (std::size_t i = 0; i < 9; ++i) {
          const std::uint64_t d =
              static_cast<std::uint64_t>(r[i]) - kOrder[i] - borrow;
          r[i] = static_cast<std::uint32_t>(d);
          borrow = (d >> 32) & 1;
        }
      }
    }
  }
  std::array<std::uint8_t, 32> out{};
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(r[i / 4] >> (8 * (i % 4)));
  }
  return out;
}

std::uint32_t load32(const std::array<std::uint8_t, 32>& s, std::size_t i) {
  return static_cast<std::uint32_t>(s[4 * i]) |
         static_cast<std::uint32_t>(s[4 * i + 1]) << 8 |
         static_cast<std::uint32_t>(s[4 * i + 2]) << 16 |
         static_cast<std::uint32_t>(s[4 * i + 3]) << 24;
}

// (a·b + c) as a 68-byte little-endian string (schoolbook over 32-bit
// limbs), then the oracle reduction.
std::array<std::uint8_t, 32> oracle_mul_add(
    const std::array<std::uint8_t, 32>& a,
    const std::array<std::uint8_t, 32>& b,
    const std::array<std::uint8_t, 32>& c) {
  std::array<std::uint64_t, 17> acc{};
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      const std::uint64_t p =
          static_cast<std::uint64_t>(load32(a, i)) * load32(b, j);
      acc[i + j] += p & 0xffffffffu;
      acc[i + j + 1] += (p >> 32) + (acc[i + j] >> 32);
      acc[i + j] &= 0xffffffffu;
    }
  }
  for (std::size_t i = 0; i < 8; ++i) acc[i] += load32(c, i);
  Bytes wide(17 * 4);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < 17; ++i) {
    const std::uint64_t v = acc[i] + carry;
    carry = v >> 32;
    for (std::size_t k = 0; k < 4; ++k) {
      wide[4 * i + k] = static_cast<std::uint8_t>(v >> (8 * k));
    }
  }
  return oracle_reduce(wide);
}

std::array<std::uint8_t, 64> wide_from(const std::array<std::uint8_t, 32>& lo,
                                       std::size_t shift_bytes = 0) {
  std::array<std::uint8_t, 64> w{};
  for (std::size_t i = 0; i < 32; ++i) w[i + shift_bytes] = lo[i];
  return w;
}

TEST(ScalarModL, ReduceMatchesBitSerialOracle) {
  std::array<std::uint8_t, 32> l{};
  for (std::size_t i = 0; i < 32; ++i) {
    l[i] = static_cast<std::uint8_t>(kOrder[i / 4] >> (8 * (i % 4)));
  }
  std::array<std::uint8_t, 32> l_minus_1 = l;
  l_minus_1[0] = static_cast<std::uint8_t>(l_minus_1[0] - 1);
  std::array<std::uint8_t, 64> two_l{};
  unsigned carry = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    const unsigned v = 2u * l[i] + carry;
    two_l[i] = static_cast<std::uint8_t>(v);
    carry = v >> 8;
  }
  two_l[32] = static_cast<std::uint8_t>(carry);
  std::array<std::uint8_t, 64> all_ones{};
  all_ones.fill(0xff);

  const std::array<std::array<std::uint8_t, 64>, 5> edges = {
      std::array<std::uint8_t, 64>{}, wide_from(l_minus_1), wide_from(l),
      two_l, all_ones};
  for (const auto& w : edges) {
    EXPECT_EQ(detail::scalar_reduce(w), oracle_reduce(w));
  }
  EXPECT_EQ(detail::scalar_reduce(wide_from(l_minus_1)), l_minus_1);
  const std::array<std::uint8_t, 32> zero{};
  EXPECT_EQ(detail::scalar_reduce(wide_from(l)), zero);
  EXPECT_EQ(detail::scalar_reduce(two_l), zero);

  DeterministicRandom rng(0x5c);
  for (int i = 0; i < 10000; ++i) {
    const Bytes w = rng.bytes(64);
    ASSERT_EQ(detail::scalar_reduce(w), oracle_reduce(w)) << i;
  }
}

TEST(ScalarModL, MulAddMatchesBitSerialOracle) {
  DeterministicRandom rng(0x3ad);
  const auto draw = [&rng] {
    std::array<std::uint8_t, 32> s;
    rng.fill(s);
    return s;
  };
  std::array<std::uint8_t, 32> ones;
  ones.fill(0xff);
  const std::array<std::uint8_t, 32> zero{};
  EXPECT_EQ(detail::scalar_mul_add(ones, ones, ones),
            oracle_mul_add(ones, ones, ones));
  EXPECT_EQ(detail::scalar_mul_add(zero, zero, zero), zero);
  for (int i = 0; i < 2000; ++i) {
    auto a = draw();
    const auto b = draw();
    const auto c = draw();
    if (i % 2) {  // clamped, as the signing scalar is used
      a[0] &= 248;
      a[31] &= 63;
      a[31] |= 64;
    }
    ASSERT_EQ(detail::scalar_mul_add(a, b, c), oracle_mul_add(a, b, c)) << i;
  }
}

}  // namespace
}  // namespace vnfsgx::crypto
