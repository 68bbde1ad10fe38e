#include "crypto/gcm.h"

#include "common/error.h"
#include "crypto/ct.h"

#if defined(__x86_64__) || defined(__i386__)
#define VNFSGX_CLMUL_COMPILED 1
#include <immintrin.h>
#endif

namespace vnfsgx::crypto {

namespace {

struct U128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
};

// Carry-less 64x64 multiply, low 64 bits of the product, from ordinary
// integer multiplies (BearSSL's ghash_ctmul64 construction). Each operand
// is split into four masks keeping every fourth bit; in a product of two
// such masks, terms that land on the same bit position are at least 4
// positions apart in each operand, so at most 16 ones sum into any
// position and their carries only reach the holes that the final masks
// discard. No branch and no memory index depends on the operands.
inline std::uint64_t clmul_lo(std::uint64_t x, std::uint64_t y) {
  constexpr std::uint64_t m0 = 0x1111111111111111ULL;
  constexpr std::uint64_t m1 = 0x2222222222222222ULL;
  constexpr std::uint64_t m2 = 0x4444444444444444ULL;
  constexpr std::uint64_t m3 = 0x8888888888888888ULL;
  const std::uint64_t x0 = x & m0, x1 = x & m1, x2 = x & m2, x3 = x & m3;
  const std::uint64_t y0 = y & m0, y1 = y & m1, y2 = y & m2, y3 = y & m3;
  const std::uint64_t z0 = (x0 * y0) ^ (x1 * y3) ^ (x2 * y2) ^ (x3 * y1);
  const std::uint64_t z1 = (x0 * y1) ^ (x1 * y0) ^ (x2 * y3) ^ (x3 * y2);
  const std::uint64_t z2 = (x0 * y2) ^ (x1 * y1) ^ (x2 * y0) ^ (x3 * y3);
  const std::uint64_t z3 = (x0 * y3) ^ (x1 * y2) ^ (x2 * y1) ^ (x3 * y0);
  return (z0 & m0) | (z1 & m1) | (z2 & m2) | (z3 & m3);
}

// Bit reversal of a 64-bit word.
inline std::uint64_t rev64(std::uint64_t x) {
  x = ((x & 0x5555555555555555ULL) << 1) | ((x >> 1) & 0x5555555555555555ULL);
  x = ((x & 0x3333333333333333ULL) << 2) | ((x >> 2) & 0x3333333333333333ULL);
  x = ((x & 0x0f0f0f0f0f0f0f0fULL) << 4) | ((x >> 4) & 0x0f0f0f0f0f0f0f0fULL);
  x = ((x & 0x00ff00ff00ff00ffULL) << 8) | ((x >> 8) & 0x00ff00ff00ff00ffULL);
  x = ((x & 0x0000ffff0000ffffULL) << 16) | ((x >> 16) & 0x0000ffff0000ffffULL);
  return (x << 32) | (x >> 32);
}

// Bit-reflected multiplication in GF(2^128) with the GCM polynomial
// x^128 + x^7 + x^2 + x + 1, constant-time. Karatsuba over the two 64-bit
// halves; the high half of each 128-bit partial product is the bit-reversed
// low half of the product of the bit-reversed operands. The 256-bit result
// is shifted left one bit (GCM's reflection) and reduced by shifts. This is
// the software path on CPUs without PCLMUL; tests check it against the
// bit-serial reference below, the hardware multiplier and the NIST vectors.
U128 gf_mul(U128 x, U128 y) {
  const std::uint64_t x0 = x.lo, x1 = x.hi, y0 = y.lo, y1 = y.hi;
  const std::uint64_t x0r = rev64(x0), x1r = rev64(x1);
  const std::uint64_t y0r = rev64(y0), y1r = rev64(y1);
  const std::uint64_t z0 = clmul_lo(x0, y0);
  const std::uint64_t z1 = clmul_lo(x1, y1);
  std::uint64_t z2 = clmul_lo(x0 ^ x1, y0 ^ y1);
  std::uint64_t z0h = clmul_lo(x0r, y0r);
  std::uint64_t z1h = clmul_lo(x1r, y1r);
  std::uint64_t z2h = clmul_lo(x0r ^ x1r, y0r ^ y1r);
  z2 ^= z0 ^ z1;
  z2h ^= z0h ^ z1h;
  z0h = rev64(z0h) >> 1;
  z1h = rev64(z1h) >> 1;
  z2h = rev64(z2h) >> 1;

  // The 255-bit product v3:v2:v1:v0, shifted left one bit.
  std::uint64_t v0 = z0;
  std::uint64_t v1 = z0h ^ z2;
  std::uint64_t v2 = z1 ^ z2h;
  std::uint64_t v3 = z1h;
  v3 = (v3 << 1) | (v2 >> 63);
  v2 = (v2 << 1) | (v1 >> 63);
  v1 = (v1 << 1) | (v0 >> 63);
  v0 <<= 1;

  // Fold the low 128 bits into the high 128 bits modulo the polynomial.
  v2 ^= v0 ^ (v0 >> 1) ^ (v0 >> 2) ^ (v0 >> 7);
  v1 ^= (v0 << 63) ^ (v0 << 62) ^ (v0 << 57);
  v3 ^= v1 ^ (v1 >> 1) ^ (v1 >> 2) ^ (v1 >> 7);
  v2 ^= (v1 << 63) ^ (v1 << 62) ^ (v1 << 57);
  return U128{v3, v2};
}

// Multiply by x: right shift with the reduction constant 0xE1 << 120
// folded back in when the x^127 coefficient (the lsb) drops out.
inline U128 mul_x(U128 v) {
  const std::uint64_t lsb_mask = 0 - (v.lo & 1);
  v.lo = (v.lo >> 1) | (v.hi << 63);
  v.hi = (v.hi >> 1) ^ (lsb_mask & 0xe100000000000000ULL);
  return v;
}

// The same product by the right-shift algorithm of SP 800-38D, one bit of
// X per step: Z starts at 0, V at Y; for each bit of X (MSB first) XOR V
// into Z when the bit is set, then multiply V by x. Only the test hook
// ghash_mul_reference runs it: it is the spec-level oracle that gf_mul and
// the hardware multiplier are checked against.
U128 gf_mul_bitwise(U128 x, U128 y) {
  U128 z{0, 0};
  U128 v = y;
  for (int i = 0; i < 128; ++i) {
    const std::uint64_t bit =
        (i < 64) ? (x.hi >> (63 - i)) & 1 : (x.lo >> (127 - i)) & 1;
    const std::uint64_t mask = 0 - bit;
    z.hi ^= v.hi & mask;
    z.lo ^= v.lo & mask;
    v = mul_x(v);
  }
  return z;
}

U128 load_block(const std::uint8_t* p) {
  U128 b;
  for (int i = 0; i < 8; ++i) b.hi = (b.hi << 8) | p[i];
  for (int i = 8; i < 16; ++i) b.lo = (b.lo << 8) | p[i];
  return b;
}

void store_block(U128 b, std::uint8_t* p) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(b.hi >> (56 - i * 8));
  for (int i = 0; i < 8; ++i) p[8 + i] = static_cast<std::uint8_t>(b.lo >> (56 - i * 8));
}

// Whole GHASH (AAD, ciphertext, length block) on the branchless gf_mul:
// no table lookups and no data-dependent branches.
U128 ghash_gfmul(U128 h, ByteView aad, ByteView ciphertext) {
  U128 y{0, 0};
  auto update = [&](ByteView data) {
    std::size_t off = 0;
    const std::size_t full_end = data.size() & ~static_cast<std::size_t>(15);
    while (off < full_end) {
      const U128 x = load_block(data.data() + off);
      y.hi ^= x.hi;
      y.lo ^= x.lo;
      y = gf_mul(y, h);
      off += 16;
    }
    if (off < data.size()) {
      std::uint8_t block[16] = {0};
      for (std::size_t i = 0; off + i < data.size(); ++i) block[i] = data[off + i];
      const U128 x = load_block(block);
      y.hi ^= x.hi;
      y.lo ^= x.lo;
      y = gf_mul(y, h);
    }
  };
  update(aad);
  update(ciphertext);
  // Length block: bit lengths of AAD and ciphertext.
  y.hi ^= static_cast<std::uint64_t>(aad.size()) * 8;
  y.lo ^= static_cast<std::uint64_t>(ciphertext.size()) * 8;
  return gf_mul(y, h);
}

#if defined(VNFSGX_CLMUL_COMPILED)

bool cpu_has_clmul() {
  static const bool available = __builtin_cpu_supports("pclmul") &&
                                __builtin_cpu_supports("ssse3") &&
                                __builtin_cpu_supports("sse2");
  return available;
}

// Carry-less GF(2^128) multiply of byte-swapped GCM blocks (Gueron &
// Kounavis, Intel CLMUL white paper): four PCLMULQDQ partial products, a
// 1-bit left shift to absorb GCM's bit reflection, then reduction mod
// x^128 + x^7 + x^2 + x + 1 by shifts. No lookups, no branches —
// constant-time by construction.
__attribute__((target("pclmul,sse2"))) __m128i gfmul_clmul(__m128i a,
                                                           __m128i b) {
  __m128i tmp3 = _mm_clmulepi64_si128(a, b, 0x00);
  __m128i tmp4 = _mm_clmulepi64_si128(a, b, 0x10);
  __m128i tmp5 = _mm_clmulepi64_si128(a, b, 0x01);
  __m128i tmp6 = _mm_clmulepi64_si128(a, b, 0x11);
  tmp4 = _mm_xor_si128(tmp4, tmp5);
  tmp5 = _mm_slli_si128(tmp4, 8);
  tmp4 = _mm_srli_si128(tmp4, 8);
  tmp3 = _mm_xor_si128(tmp3, tmp5);
  tmp6 = _mm_xor_si128(tmp6, tmp4);
  __m128i tmp7 = _mm_srli_epi32(tmp3, 31);
  __m128i tmp8 = _mm_srli_epi32(tmp6, 31);
  tmp3 = _mm_slli_epi32(tmp3, 1);
  tmp6 = _mm_slli_epi32(tmp6, 1);
  __m128i tmp9 = _mm_srli_si128(tmp7, 12);
  tmp8 = _mm_slli_si128(tmp8, 4);
  tmp7 = _mm_slli_si128(tmp7, 4);
  tmp3 = _mm_or_si128(tmp3, tmp7);
  tmp6 = _mm_or_si128(tmp6, tmp8);
  tmp6 = _mm_or_si128(tmp6, tmp9);
  tmp7 = _mm_slli_epi32(tmp3, 31);
  tmp8 = _mm_slli_epi32(tmp3, 30);
  tmp9 = _mm_slli_epi32(tmp3, 25);
  tmp7 = _mm_xor_si128(tmp7, tmp8);
  tmp7 = _mm_xor_si128(tmp7, tmp9);
  tmp8 = _mm_srli_si128(tmp7, 4);
  tmp7 = _mm_slli_si128(tmp7, 12);
  tmp3 = _mm_xor_si128(tmp3, tmp7);
  __m128i tmp2 = _mm_srli_epi32(tmp3, 1);
  tmp4 = _mm_srli_epi32(tmp3, 2);
  tmp5 = _mm_srli_epi32(tmp3, 7);
  tmp2 = _mm_xor_si128(tmp2, tmp4);
  tmp2 = _mm_xor_si128(tmp2, tmp5);
  tmp2 = _mm_xor_si128(tmp2, tmp8);
  tmp3 = _mm_xor_si128(tmp3, tmp2);
  tmp6 = _mm_xor_si128(tmp6, tmp3);
  return tmp6;
}

// Fold full blocks plus a zero-padded tail of `data` into the accumulator.
// The BSWAP shuffle turns memory order into the byte-swapped form gfmul
// expects (same layout as U128 {hi, lo} packed into one register).
__attribute__((target("pclmul,ssse3,sse2"))) void ghash_update_clmul(
    __m128i* y, __m128i h, const std::uint8_t* data, std::size_t len) {
  const __m128i bswap =
      _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  std::size_t off = 0;
  for (; off + 16 <= len; off += 16) {
    const __m128i x = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + off)), bswap);
    *y = gfmul_clmul(_mm_xor_si128(*y, x), h);
  }
  if (off < len) {
    std::uint8_t block[16] = {0};
    for (std::size_t i = 0; off + i < len; ++i) block[i] = data[off + i];
    const __m128i x = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block)), bswap);
    *y = gfmul_clmul(_mm_xor_si128(*y, x), h);
  }
}

// Whole GHASH (AAD, ciphertext, length block) on the PCLMUL path; the
// accumulator stays in a register across blocks.
__attribute__((target("pclmul,ssse3,sse2"))) U128 ghash_clmul(
    U128 hk, ByteView aad, ByteView ciphertext) {
  const __m128i h = _mm_set_epi64x(static_cast<long long>(hk.hi),
                                   static_cast<long long>(hk.lo));
  __m128i y = _mm_setzero_si128();
  ghash_update_clmul(&y, h, aad.data(), aad.size());
  ghash_update_clmul(&y, h, ciphertext.data(), ciphertext.size());
  const __m128i lengths = _mm_set_epi64x(
      static_cast<long long>(static_cast<std::uint64_t>(aad.size()) * 8),
      static_cast<long long>(static_cast<std::uint64_t>(ciphertext.size()) *
                             8));
  y = gfmul_clmul(_mm_xor_si128(y, lengths), h);
  std::uint64_t out[2];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), y);
  return U128{out[1], out[0]};
}

__attribute__((target("pclmul,sse2"))) U128 ghash_mul_clmul_impl(U128 x,
                                                                 U128 y) {
  const __m128i a = _mm_set_epi64x(static_cast<long long>(x.hi),
                                   static_cast<long long>(x.lo));
  const __m128i b = _mm_set_epi64x(static_cast<long long>(y.hi),
                                   static_cast<long long>(y.lo));
  std::uint64_t out[2];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), gfmul_clmul(a, b));
  return U128{out[1], out[0]};
}

#endif  // VNFSGX_CLMUL_COMPILED

}  // namespace

bool ghash_hw_available() {
#if defined(VNFSGX_CLMUL_COMPILED)
  return cpu_has_clmul();
#else
  return false;
#endif
}

AesGcm::AesGcm(ByteView key) : aes_(key) {
  AesBlock zero{};
  AesBlock h = aes_.encrypt_block(zero);
  const U128 hb = load_block(h.data());
  ghash_key_->h_hi = hb.hi;
  ghash_key_->h_lo = hb.lo;
  // The stack copy of H is key material too.
  secure_memzero(h.data(), h.size());
}

AesBlock AesGcm::ghash(ByteView aad, ByteView ciphertext) const {
  const U128 h{ghash_key_->h_hi, ghash_key_->h_lo};
  AesBlock out;
#if defined(VNFSGX_CLMUL_COMPILED)
  if (cpu_has_clmul()) {
    store_block(ghash_clmul(h, aad, ciphertext), out.data());
    return out;
  }
#endif
  store_block(ghash_gfmul(h, aad, ciphertext), out.data());
  return out;
}

void AesGcm::seal_in_place(ByteView nonce, std::uint8_t* data, std::size_t len,
                           ByteView aad, std::uint8_t* tag_out) const {
  if (nonce.size() != kGcmNonceSize) {
    throw CryptoError("AES-GCM nonce must be 12 bytes");
  }
  // J0 = nonce || 0x00000001; first counter for data is inc32(J0).
  AesBlock j0{};
  std::copy(nonce.begin(), nonce.end(), j0.begin());
  j0[15] = 1;
  AesBlock ctr = j0;
  ctr[15] = 2;

  aes_ctr_xor(aes_, ctr, ByteView(data, len), data);

  const AesBlock s = ghash(aad, ByteView(data, len));
  const AesBlock tag_mask = aes_.encrypt_block(j0);
  for (std::size_t i = 0; i < kGcmTagSize; ++i) {
    tag_out[i] = static_cast<std::uint8_t>(s[i] ^ tag_mask[i]);
  }
}

bool AesGcm::open_in_place(ByteView nonce, std::uint8_t* data, std::size_t len,
                           ByteView aad, ByteView tag) const {
  if (nonce.size() != kGcmNonceSize) {
    throw CryptoError("AES-GCM nonce must be 12 bytes");
  }
  if (tag.size() != kGcmTagSize) return false;
  AesBlock j0{};
  std::copy(nonce.begin(), nonce.end(), j0.begin());
  j0[15] = 1;

  const AesBlock s = ghash(aad, ByteView(data, len));
  const AesBlock tag_mask = aes_.encrypt_block(j0);
  std::uint8_t expected[kGcmTagSize];
  for (std::size_t i = 0; i < kGcmTagSize; ++i) {
    expected[i] = static_cast<std::uint8_t>(s[i] ^ tag_mask[i]);
  }
  if (!ct_equal(ByteView(expected, kGcmTagSize), tag)) return false;

  AesBlock ctr = j0;
  ctr[15] = 2;
  aes_ctr_xor(aes_, ctr, ByteView(data, len), data);
  return true;
}

Bytes AesGcm::seal(ByteView nonce, ByteView plaintext, ByteView aad) const {
  Bytes out(plaintext.size() + kGcmTagSize);
  std::copy(plaintext.begin(), plaintext.end(), out.begin());
  seal_in_place(nonce, out.data(), plaintext.size(), aad,
                out.data() + plaintext.size());
  return out;
}

std::optional<Bytes> AesGcm::open(ByteView nonce, ByteView ciphertext_and_tag,
                                  ByteView aad) const {
  if (ciphertext_and_tag.size() < kGcmTagSize) return std::nullopt;
  const std::size_t ct_len = ciphertext_and_tag.size() - kGcmTagSize;
  Bytes plaintext(ciphertext_and_tag.begin(),
                  ciphertext_and_tag.begin() + static_cast<std::ptrdiff_t>(ct_len));
  if (!open_in_place(nonce, plaintext.data(), ct_len, aad,
                     ciphertext_and_tag.subspan(ct_len))) {
    return std::nullopt;
  }
  return plaintext;
}

namespace detail {

AesBlock ghash_mul_reference(const AesBlock& x, const AesBlock& y) {
  const U128 z = gf_mul_bitwise(load_block(x.data()), load_block(y.data()));
  AesBlock out;
  store_block(z, out.data());
  return out;
}

AesBlock ghash_mul_software(const AesBlock& x, const AesBlock& y) {
  const U128 z = gf_mul(load_block(x.data()), load_block(y.data()));
  AesBlock out;
  store_block(z, out.data());
  return out;
}

AesBlock ghash_software(const AesBlock& h, ByteView aad, ByteView ciphertext) {
  AesBlock out;
  store_block(ghash_gfmul(load_block(h.data()), aad, ciphertext), out.data());
  return out;
}

AesBlock ghash_mul_clmul(const AesBlock& x, const AesBlock& y) {
#if defined(VNFSGX_CLMUL_COMPILED)
  if (cpu_has_clmul()) {
    const U128 z = ghash_mul_clmul_impl(load_block(x.data()), load_block(y.data()));
    AesBlock out;
    store_block(z, out.data());
    return out;
  }
#endif
  return ghash_mul_software(x, y);
}

}  // namespace detail

}  // namespace vnfsgx::crypto
