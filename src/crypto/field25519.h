// Field arithmetic over GF(2^255 - 19), shared by X25519 and Ed25519.
//
// Representation: five 51-bit limbs in 64-bit words (the "donna-64"
// radix-2^51 layout). The hot operations (add, sub, neg, mul, sq, cswap)
// are inline so the limbs of a point formula stay in registers.
//
// Limb-bound contract. A "loose" value has every limb < 2^51 + 2^18; it
// is what fe_mul, fe_sq, fe_sub, fe_neg, fe_mul_small and fe_from_bytes
// return, and what every constant and stored point coordinate is.
//   * fe_add is carry-free: its output limbs are the sums of its input
//     limbs. The sum of up to four loose values has limbs < 2^53 + 2^20.
//   * fe_mul and fe_sq accept limbs < 2^54, i.e. a sum of up to four
//     loose values (19·2^54 still fits the 64-bit premultiplied limbs and
//     the final 19·carry fits 64 bits).
//   * fe_sub(a, b) computes a + 8p - b, so b's limbs must be < 2^54 - 152
//     (again: up to four loose values summed); a's limbs only need a + 8p
//     not to overflow 64 bits.
//   * fe_to_bytes, fe_is_zero and fe_is_negative accept limbs < 2^54 and
//     fully reduce; values in [p, 2^255) encode as their residue.
//
// Curve constants that are usually transcribed from reference code
// (Edwards d, sqrt(-1), the Ed25519 base point) are *computed* at first use
// from their defining equations, eliminating transcription errors.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace vnfsgx::crypto {

struct Fe {
  std::uint64_t v[5];
};

namespace fe_detail {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

inline constexpr u64 kMask51 = (1ULL << 51) - 1;

/// Final carry of a multiply: fold the five 128-bit column sums into
/// loose limbs (one pass plus the 19·carry wrap into limb 0 and limb 1).
inline Fe carry_wide(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  Fe r;
  t1 += static_cast<u64>(t0 >> 51);
  r.v[0] = static_cast<u64>(t0) & kMask51;
  t2 += static_cast<u64>(t1 >> 51);
  r.v[1] = static_cast<u64>(t1) & kMask51;
  t3 += static_cast<u64>(t2 >> 51);
  r.v[2] = static_cast<u64>(t2) & kMask51;
  t4 += static_cast<u64>(t3 >> 51);
  r.v[3] = static_cast<u64>(t3) & kMask51;
  r.v[4] = static_cast<u64>(t4) & kMask51;
  r.v[0] += static_cast<u64>(t4 >> 51) * 19;
  r.v[1] += r.v[0] >> 51;
  r.v[0] &= kMask51;
  return r;
}

/// One carry pass: limbs < 2^64 in, limbs < 2^51 + 2^18 out (limb 0
/// carries the 19·c wrap).
inline Fe carry_once(Fe a) {
  a.v[1] += a.v[0] >> 51;
  a.v[0] &= kMask51;
  a.v[2] += a.v[1] >> 51;
  a.v[1] &= kMask51;
  a.v[3] += a.v[2] >> 51;
  a.v[2] &= kMask51;
  a.v[4] += a.v[3] >> 51;
  a.v[3] &= kMask51;
  a.v[0] += (a.v[4] >> 51) * 19;
  a.v[4] &= kMask51;
  return a;
}

}  // namespace fe_detail

inline Fe fe_zero() { return Fe{{0, 0, 0, 0, 0}}; }
inline Fe fe_one() { return Fe{{1, 0, 0, 0, 0}}; }
Fe fe_from_u64(std::uint64_t x);

/// Carry-free: out limbs = a limbs + b limbs (see the bound contract).
inline Fe fe_add(const Fe& a, const Fe& b) {
  return Fe{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
             a.v[3] + b.v[3], a.v[4] + b.v[4]}};
}

/// a - b + 8p, then one carry pass. 8p in radix 2^51 is
/// (2^54 - 152, 2^54 - 8, 2^54 - 8, 2^54 - 8, 2^54 - 8).
inline Fe fe_sub(const Fe& a, const Fe& b) {
  constexpr std::uint64_t k8p0 = (1ULL << 54) - 152;
  constexpr std::uint64_t k8pi = (1ULL << 54) - 8;
  return fe_detail::carry_once(
      Fe{{a.v[0] + k8p0 - b.v[0], a.v[1] + k8pi - b.v[1],
          a.v[2] + k8pi - b.v[2], a.v[3] + k8pi - b.v[3],
          a.v[4] + k8pi - b.v[4]}});
}

inline Fe fe_neg(const Fe& a) { return fe_sub(fe_zero(), a); }

inline Fe fe_mul(const Fe& a, const Fe& b) {
  using fe_detail::u128;
  using fe_detail::u64;
  const u64 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const u64 b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;

  const u128 t0 = static_cast<u128>(a0) * b0 + static_cast<u128>(a1) * b4_19 +
                  static_cast<u128>(a2) * b3_19 +
                  static_cast<u128>(a3) * b2_19 +
                  static_cast<u128>(a4) * b1_19;
  const u128 t1 = static_cast<u128>(a0) * b1 + static_cast<u128>(a1) * b0 +
                  static_cast<u128>(a2) * b4_19 +
                  static_cast<u128>(a3) * b3_19 +
                  static_cast<u128>(a4) * b2_19;
  const u128 t2 = static_cast<u128>(a0) * b2 + static_cast<u128>(a1) * b1 +
                  static_cast<u128>(a2) * b0 + static_cast<u128>(a3) * b4_19 +
                  static_cast<u128>(a4) * b3_19;
  const u128 t3 = static_cast<u128>(a0) * b3 + static_cast<u128>(a1) * b2 +
                  static_cast<u128>(a2) * b1 + static_cast<u128>(a3) * b0 +
                  static_cast<u128>(a4) * b4_19;
  const u128 t4 = static_cast<u128>(a0) * b4 + static_cast<u128>(a1) * b3 +
                  static_cast<u128>(a2) * b2 + static_cast<u128>(a3) * b1 +
                  static_cast<u128>(a4) * b0;
  return fe_detail::carry_wide(t0, t1, t2, t3, t4);
}

/// Dedicated squaring: 15 products instead of fe_mul's 25.
inline Fe fe_sq(const Fe& a) {
  using fe_detail::u128;
  using fe_detail::u64;
  const u64 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 a0_2 = a0 * 2, a1_2 = a1 * 2;
  const u64 a1_38 = a1 * 38, a2_38 = a2 * 38, a3_38 = a3 * 38;
  const u64 a3_19 = a3 * 19, a4_19 = a4 * 19;

  const u128 t0 = static_cast<u128>(a0) * a0 + static_cast<u128>(a1_38) * a4 +
                  static_cast<u128>(a2_38) * a3;
  const u128 t1 = static_cast<u128>(a0_2) * a1 +
                  static_cast<u128>(a2_38) * a4 + static_cast<u128>(a3_19) * a3;
  const u128 t2 = static_cast<u128>(a0_2) * a2 + static_cast<u128>(a1) * a1 +
                  static_cast<u128>(a3_38) * a4;
  const u128 t3 = static_cast<u128>(a0_2) * a3 +
                  static_cast<u128>(a1_2) * a2 + static_cast<u128>(a4_19) * a4;
  const u128 t4 = static_cast<u128>(a0_2) * a4 +
                  static_cast<u128>(a1_2) * a3 + static_cast<u128>(a2) * a2;
  return fe_detail::carry_wide(t0, t1, t2, t3, t4);
}

/// Multiply by a small scalar (< 2^17), used for a24 = 121665.
inline Fe fe_mul_small(const Fe& a, std::uint64_t s) {
  using fe_detail::u128;
  const u128 s128 = s;
  return fe_detail::carry_wide(a.v[0] * s128, a.v[1] * s128, a.v[2] * s128,
                               a.v[3] * s128, a.v[4] * s128);
}

/// Raise to an arbitrary 255-bit exponent given as 32 big-endian bytes.
/// Variable-time; acceptable because every exponent used is a public
/// curve constant.
Fe fe_pow(const Fe& base, const std::array<std::uint8_t, 32>& exp_be);

/// Multiplicative inverse (x^(p-2)); fe_invert(0) == 0. Uses the standard
/// curve25519 addition chain (254 squarings + 11 multiplies) instead of a
/// generic square-and-multiply walk.
Fe fe_invert(const Fe& a);

/// x^((p-5)/8) = x^(2^252 - 3), the exponent used by Ed25519 point
/// decompression (RFC 8032 §5.1.3). Shares the inversion addition chain.
Fe fe_pow22523(const Fe& a);

/// Load 32 little-endian bytes, ignoring the top bit (RFC 7748 masking).
Fe fe_from_bytes(ByteView in32);
/// Store fully reduced, 32 little-endian bytes.
std::array<std::uint8_t, 32> fe_to_bytes(const Fe& a);

bool fe_is_zero(const Fe& a);
/// Low bit of the fully reduced value (the Edwards "sign" bit).
int fe_is_negative(const Fe& a);

/// Constant-time conditional swap (swap iff bit == 1).
inline void fe_cswap(Fe& a, Fe& b, std::uint64_t bit) {
  const std::uint64_t mask = 0 - bit;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t x = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= x;
    b.v[i] ^= x;
  }
}

/// sqrt(-1) mod p, computed as 2^((p-1)/4).
const Fe& fe_sqrt_m1();

}  // namespace vnfsgx::crypto
