#include "crypto/field25519.h"

namespace vnfsgx::crypto {

using fe_detail::kMask51;
using fe_detail::u64;

Fe fe_from_u64(std::uint64_t x) {
  Fe r = fe_zero();
  r.v[0] = x & kMask51;
  r.v[1] = x >> 51;
  return r;
}

Fe fe_pow(const Fe& base, const std::array<std::uint8_t, 32>& exp_be) {
  Fe result = fe_one();
  bool started = false;
  for (const std::uint8_t byte : exp_be) {
    for (int bit = 7; bit >= 0; --bit) {
      if (started) result = fe_sq(result);
      if ((byte >> bit) & 1) {
        result = fe_mul(result, base);
        started = true;
      }
    }
  }
  return result;
}

namespace {

Fe fe_sqn(Fe x, int n) {
  for (int i = 0; i < n; ++i) x = fe_sq(x);
  return x;
}

// Shared prefix of the p-2 and (p-5)/8 addition chains: z^(2^250 - 1),
// plus the z^11 byproduct the inversion tail needs.
struct PowChain {
  Fe t250;  // z^(2^250 - 1)
  Fe z11;
};

PowChain fe_pow_chain(const Fe& z) {
  const Fe z2 = fe_sq(z);                                   // z^2
  const Fe z9 = fe_mul(z, fe_sqn(z2, 2));                   // z^9
  const Fe z11 = fe_mul(z2, z9);                            // z^11
  const Fe z_5_0 = fe_mul(z9, fe_sq(z11));                  // z^(2^5 - 1)
  const Fe z_10_0 = fe_mul(fe_sqn(z_5_0, 5), z_5_0);        // z^(2^10 - 1)
  const Fe z_20_0 = fe_mul(fe_sqn(z_10_0, 10), z_10_0);     // z^(2^20 - 1)
  const Fe z_40_0 = fe_mul(fe_sqn(z_20_0, 20), z_20_0);     // z^(2^40 - 1)
  const Fe z_50_0 = fe_mul(fe_sqn(z_40_0, 10), z_10_0);     // z^(2^50 - 1)
  const Fe z_100_0 = fe_mul(fe_sqn(z_50_0, 50), z_50_0);    // z^(2^100 - 1)
  const Fe z_200_0 = fe_mul(fe_sqn(z_100_0, 100), z_100_0); // z^(2^200 - 1)
  const Fe z_250_0 = fe_mul(fe_sqn(z_200_0, 50), z_50_0);   // z^(2^250 - 1)
  return {z_250_0, z11};
}

}  // namespace

Fe fe_invert(const Fe& a) {
  // a^(p-2) = a^(2^255 - 21) = (a^(2^250 - 1))^(2^5) * a^11.
  const PowChain c = fe_pow_chain(a);
  return fe_mul(fe_sqn(c.t250, 5), c.z11);
}

Fe fe_pow22523(const Fe& a) {
  // a^((p-5)/8) = a^(2^252 - 3) = (a^(2^250 - 1))^(2^2) * a.
  const PowChain c = fe_pow_chain(a);
  return fe_mul(fe_sqn(c.t250, 2), a);
}

Fe fe_from_bytes(ByteView in32) {
  std::uint8_t b[32];
  for (int i = 0; i < 32; ++i) b[i] = in32[static_cast<std::size_t>(i)];
  b[31] &= 0x7f;
  auto load64 = [&](int off, int bytes) {
    u64 v = 0;
    for (int i = bytes - 1; i >= 0; --i) v = (v << 8) | b[off + i];
    return v;
  };
  Fe r;
  // 51 bits each: bit offsets 0, 51, 102, 153, 204.
  r.v[0] = load64(0, 8) & kMask51;
  r.v[1] = (load64(6, 8) >> 3) & kMask51;
  r.v[2] = (load64(12, 8) >> 6) & kMask51;
  r.v[3] = (load64(19, 8) >> 1) & kMask51;
  r.v[4] = (load64(24, 8) >> 12) & kMask51;
  return r;
}

std::array<std::uint8_t, 32> fe_to_bytes(const Fe& a) {
  // One carry pass leaves limbs < 2^51 + 2^18, so the value t < 2p.
  Fe t = fe_detail::carry_once(a);
  // q = floor((t + 19) / 2^255) is 1 iff t >= p: propagate the carry of
  // t + 19 through the limbs and read what leaves the top.
  u64 q = (t.v[0] + 19) >> 51;
  q = (t.v[1] + q) >> 51;
  q = (t.v[2] + q) >> 51;
  q = (t.v[3] + q) >> 51;
  q = (t.v[4] + q) >> 51;
  // t - q·p = t + 19q - q·2^255: add 19q, carry, drop bit 255.
  t.v[0] += 19 * q;
  t.v[1] += t.v[0] >> 51;
  t.v[0] &= kMask51;
  t.v[2] += t.v[1] >> 51;
  t.v[1] &= kMask51;
  t.v[3] += t.v[2] >> 51;
  t.v[2] &= kMask51;
  t.v[4] += t.v[3] >> 51;
  t.v[3] &= kMask51;
  t.v[4] &= kMask51;

  // Pack 5 x 51 bits into four little-endian 64-bit words.
  const u64 w[4] = {t.v[0] | (t.v[1] << 51), (t.v[1] >> 13) | (t.v[2] << 38),
                    (t.v[2] >> 26) | (t.v[3] << 25),
                    (t.v[3] >> 39) | (t.v[4] << 12)};
  std::array<std::uint8_t, 32> out;
  for (int i = 0; i < 32; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(w[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

bool fe_is_zero(const Fe& a) {
  const auto b = fe_to_bytes(a);
  std::uint8_t acc = 0;
  for (auto x : b) acc |= x;
  return acc == 0;
}

int fe_is_negative(const Fe& a) { return fe_to_bytes(a)[0] & 1; }

const Fe& fe_sqrt_m1() {
  // 2^((p-1)/4) with (p-1)/4 = 2^253 - 5.
  static const Fe value = [] {
    std::array<std::uint8_t, 32> exp{};
    // 2^253 - 5 big-endian: 0x1f, then 30 x 0xff, then 0xfb.
    exp[0] = 0x1f;
    for (int i = 1; i < 31; ++i) exp[static_cast<std::size_t>(i)] = 0xff;
    exp[31] = 0xfb;
    return fe_pow(fe_from_u64(2), exp);
  }();
  return value;
}

}  // namespace vnfsgx::crypto
