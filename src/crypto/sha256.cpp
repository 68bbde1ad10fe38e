#include "crypto/sha256.h"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#define VNFSGX_SHANI_COMPILED 1
#include <immintrin.h>
#endif

namespace vnfsgx::crypto {

namespace {

alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#if defined(VNFSGX_SHANI_COMPILED)

bool cpu_has_shani() {
  static const bool available = __builtin_cpu_supports("sha") &&
                                __builtin_cpu_supports("sse4.1") &&
                                __builtin_cpu_supports("ssse3");
  return available;
}

// SHA-NI compression (Intel SHA extensions). The state lives in two
// registers in the ABEF/CDGH order SHA256RNDS2 consumes; each group of four
// rounds adds K to four schedule words and runs two RNDS2 steps, and
// MSG1/MSG2 extend the schedule four words at a time from the rolling
// window X[0..3] = W[4r .. 4r+15]. The state stays in registers across all
// `nblocks` blocks. No data-dependent lookups or branches.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
    std::size_t nblocks) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i cdgh =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xb1);    // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1b);  // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xf0);

  for (; nblocks > 0; --nblocks, data += kSha256BlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i x[4];
    for (int i = 0; i < 4; ++i) {
      x[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          bswap);
    }
#pragma GCC unroll 16
    for (int r = 0; r < 16; ++r) {
      __m128i wk = _mm_add_epi32(
          x[r & 3], _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[4 * r])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0e);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (r < 12) {
        // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16] for the four
        // words of group r + 4, replacing group r in the window.
        __m128i w = _mm_sha256msg1_epu32(x[r & 3], x[(r + 1) & 3]);
        w = _mm_add_epi32(w, _mm_alignr_epi8(x[(r + 3) & 3], x[(r + 2) & 3], 4));
        x[r & 3] = _mm_sha256msg2_epu32(w, x[(r + 3) & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1b);    // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xb1);   // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xf0);  // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), cdgh);
}

#endif  // VNFSGX_SHANI_COMPILED

// The one dispatch point: SHA-NI when the CPU has it, else portable.
inline void compress(std::array<std::uint32_t, 8>& state,
                     const std::uint8_t* data, std::size_t nblocks) {
#if defined(VNFSGX_SHANI_COMPILED)
  if (cpu_has_shani()) {
    compress_shani(state, data, nblocks);
    return;
  }
#endif
  detail::sha256_compress_portable(state, data, nblocks);
}

}  // namespace

bool sha256_hw_available() {
#if defined(VNFSGX_SHANI_COMPILED)
  return cpu_has_shani();
#else
  return false;
#endif
}

namespace detail {

void sha256_compress_portable(std::array<std::uint32_t, 8>& state,
                              const std::uint8_t* data, std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += kSha256BlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             data[i * 4 + 3];
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

void sha256_compress_shani(std::array<std::uint32_t, 8>& state,
                           const std::uint8_t* data, std::size_t nblocks) {
  compress(state, data, nblocks);
}

}  // namespace detail

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(ByteView data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buffer_len_ > 0) {
    const std::size_t take =
        std::min(data.size(), kSha256BlockSize - buffer_len_);
    std::copy_n(data.begin(), take,
                buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_));
    buffer_len_ += take;
    off = take;
    if (buffer_len_ < kSha256BlockSize) return;
    compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const std::size_t nblocks = (data.size() - off) / kSha256BlockSize;
  if (nblocks > 0) {
    compress(state_, data.data() + off, nblocks);
    off += nblocks * kSha256BlockSize;
  }
  std::copy(data.begin() + static_cast<std::ptrdiff_t>(off), data.end(),
            buffer_.begin());
  buffer_len_ = data.size() - off;
}

Sha256Digest Sha256::finish() {
  // Pad in place: 0x80, zeros, then the 64-bit big-endian bit length in the
  // last eight bytes — one block, or two when the tail leaves no room.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kSha256BlockSize - 8) {
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_),
              buffer_.end(), std::uint8_t{0});
    compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_),
            buffer_.end() - 8, std::uint8_t{0});
  for (int i = 0; i < 8; ++i) {
    buffer_[kSha256BlockSize - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - i * 8));
  }
  compress(state_, buffer_.data(), 1);
  buffer_len_ = 0;

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Bytes sha256(ByteView data) {
  const Sha256Digest d = Sha256::hash(data);
  return Bytes(d.begin(), d.end());
}

}  // namespace vnfsgx::crypto
