#include "crypto/ed25519.h"

#include <cstring>
#include <vector>

#include "common/error.h"
#include "crypto/field25519.h"
#include "crypto/sha512.h"

namespace vnfsgx::crypto {

namespace {

// ---------------------------------------------------------------------------
// Scalar arithmetic modulo the group order
//   L = 2^252 + 27742317777372353535851937790883648493.
// Scalars travel as 32 little-endian bytes. Reduction works on signed
// 21-bit limbs (the ref10 layout): limb 12 sits at 2^252, and since
// 2^252 ≡ -(L - 2^252) mod L, a high limb folds into the six limbs 12
// places below it, multiplied by the 21-bit signed digits of L - 2^252.
// Every step is a fixed sequence of multiplies, adds and arithmetic shifts
// with no data-dependent branch or memory index, so the secret scalars of
// signing (the nonce r and the key scalar a) are reduced in constant time.
// ---------------------------------------------------------------------------

using Scalar = std::array<std::uint8_t, 32>;
using ScalarLimbs = std::array<std::int64_t, 24>;

// L - 2^252 in signed radix 2^21.
constexpr std::int64_t kLowL[6] = {666643, 470296, 654183,
                                   -997805, 136657, -683901};
constexpr std::int64_t kRadix = std::int64_t{1} << 21;

// Fold limb i (>= 12) into limbs i-12 .. i-7.
void fold_limb(ScalarLimbs& s, std::size_t i) {
  for (std::size_t j = 0; j < 6; ++j) s[i - 12 + j] += s[i] * kLowL[j];
  s[i] = 0;
}

// Centered carry: leaves limb i in [-2^20, 2^20).
void carry_centered(ScalarLimbs& s, std::size_t i) {
  const std::int64_t c = (s[i] + (kRadix >> 1)) >> 21;
  s[i + 1] += c;
  s[i] -= c * kRadix;
}

// Centered carries of every second limb, first .. last.
void carry_centered_from(ScalarLimbs& s, std::size_t first, std::size_t last) {
  for (std::size_t k = first; k <= last; k += 2) {
    carry_centered(s, k);
  }
}

// Floor carry: leaves limb i in [0, 2^21).
void carry_floor(ScalarLimbs& s, std::size_t i) {
  const std::int64_t c = s[i] >> 21;
  s[i + 1] += c;
  s[i] -= c * kRadix;
}

// Little-endian bits [21·i, 21·i + 21) of `in` (bits past the end are 0);
// the last limb of a 32- or 64-byte string takes all remaining bits.
std::int64_t load_limb(ByteView in, std::size_t i, std::size_t limbs) {
  const std::size_t bit = 21 * i;
  std::uint64_t v = 0;
  for (std::size_t k = 0; k < 8 && bit / 8 + k < in.size(); ++k) {
    v |= std::uint64_t{in[bit / 8 + k]} << (8 * k);
  }
  v >>= bit % 8;
  if (i + 1 < limbs) v &= static_cast<std::uint64_t>(kRadix - 1);
  return static_cast<std::int64_t>(v);
}

// Reduce limbs s[0..23] (each carried to ~21 bits, s[23] < 2^30) mod L.
Scalar reduce_limbs(ScalarLimbs& s) {
  // The limb indices below are fixed; only the limb values are secret.
  for (std::size_t i = 23; i >= 18; --i) fold_limb(s, i);
  carry_centered_from(s, 6, 16);
  carry_centered_from(s, 7, 15);
  for (std::size_t i = 17; i >= 12; --i) fold_limb(s, i);
  carry_centered_from(s, 0, 10);
  carry_centered_from(s, 1, 11);
  fold_limb(s, 12);
  for (std::size_t i = 0; i <= 11; ++i) carry_floor(s, i);
  fold_limb(s, 12);
  for (std::size_t i = 0; i <= 10; ++i) carry_floor(s, i);

  // s[0..11] are now in [0, 2^21) and encode the canonical residue.
  Scalar out{};
  std::uint64_t acc = 0;
  int bits = 0;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < 12; ++i) {
    acc |= static_cast<std::uint64_t>(s[i]) << bits;
    bits += 21;
    while (bits >= 8 && pos < out.size()) {
      out[pos++] = static_cast<std::uint8_t>(acc);
      acc >>= 8;
      bits -= 8;
    }
  }
  if (pos < out.size()) out[pos] = static_cast<std::uint8_t>(acc);
  return out;
}

// Reduce a 64-byte little-endian string (a SHA-512 output) modulo L.
Scalar scalar_reduce(ByteView wide64) {
  ScalarLimbs s{};
  for (std::size_t i = 0; i < 24; ++i) s[i] = load_limb(wide64, i, 24);
  return reduce_limbs(s);
}

// (a·b + c) mod L for 32-byte little-endian a, b, c (any value < 2^256).
Scalar scalar_mul_add(const Scalar& a, const Scalar& b, const Scalar& c) {
  std::int64_t al[12], bl[12];
  ScalarLimbs s{};
  for (std::size_t i = 0; i < 12; ++i) {
    al[i] = load_limb(a, i, 12);
    bl[i] = load_limb(b, i, 12);
    s[i] = load_limb(c, i, 12);
  }
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) s[i + j] += al[i] * bl[j];
  }
  carry_centered_from(s, 0, 22);
  carry_centered_from(s, 1, 21);
  return reduce_limbs(s);
}

// s < L. Only ever applied to the public signature scalar.
bool scalar_is_canonical(const Scalar& s) {
  // L little-endian.
  static constexpr Scalar kL = {
      0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
      0xa2, 0xde, 0xf9, 0xde, 0x14, 0,    0,    0,    0,    0,    0,
      0,    0,    0,    0,    0,    0,    0,    0,    0,    0x10};
  // Borrow out of s - L is 1 iff s < L.
  int borrow = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    borrow = (s[i] - kL[i] - borrow) < 0 ? 1 : 0;
  }
  return borrow == 1;
}

// ---------------------------------------------------------------------------
// Edwards curve group: -x^2 + y^2 = 1 + d x^2 y^2 over GF(2^255-19),
// extended homogeneous coordinates (X : Y : Z : T), T = XY/Z.
// ---------------------------------------------------------------------------

struct Point {
  Fe x, y, z, t;
};

const Fe& edwards_d() {
  // d = -121665/121666, computed rather than transcribed.
  static const Fe value =
      fe_neg(fe_mul(fe_from_u64(121665), fe_invert(fe_from_u64(121666))));
  return value;
}

const Fe& edwards_2d() {
  static const Fe value = fe_add(edwards_d(), edwards_d());
  return value;
}

Point point_identity() {
  return Point{fe_zero(), fe_one(), fe_one(), fe_zero()};
}

// Unified addition (add-2008-hwcd-3 for a = -1).
Point point_add(const Point& p, const Point& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), fe_sub(q.y, q.x));
  const Fe b = fe_mul(fe_add(p.y, p.x), fe_add(q.y, q.x));
  const Fe c = fe_mul(fe_mul(p.t, q.t), edwards_2d());
  const Fe zz = fe_mul(p.z, q.z);
  const Fe d = fe_add(zz, zz);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  return Point{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// Doubling (dbl-2008-hwcd).
Point point_double(const Point& p) {
  const Fe a = fe_sq(p.x);
  const Fe b = fe_sq(p.y);
  const Fe zz = fe_sq(p.z);
  const Fe c = fe_add(zz, zz);
  const Fe h = fe_add(a, b);
  const Fe e = fe_sub(h, fe_sq(fe_add(p.x, p.y)));
  const Fe g = fe_sub(a, b);
  const Fe f = fe_add(c, g);
  return Point{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

Point point_neg(const Point& p) {
  return Point{fe_neg(p.x), p.y, p.z, fe_neg(p.t)};
}

// Scalar multiplication, MSB-first double-and-add over the 256-bit scalar
// encoding. Variable-time; signatures here protect simulated systems, and
// the test suite exercises correctness, not side channels. Kept as the
// reference ladder the windowed paths are cross-checked against.
Point point_scalar_mul(const Point& p, const std::array<std::uint8_t, 32>& scalar_le) {
  Point r = point_identity();
  for (int byte_idx = 31; byte_idx >= 0; --byte_idx) {
    for (int bit = 7; bit >= 0; --bit) {
      r = point_double(r);
      // ct-ok: double-and-add reference ladder, used only to cross-check
      // the windowed implementation (see function comment above).
      if ((scalar_le[static_cast<std::size_t>(byte_idx)] >> bit) & 1) {
        r = point_add(r, p);
      }
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Windowed fixed-base multiplication and Straus double-scalar multiplication.
//
// Precomputed points are stored in affine Niels form (y+x, y-x, 2dxy with
// Z = 1), which makes a mixed addition cost 7 field multiplies instead of
// the 9 of the general formula. The base table holds (j+1)·16^(2i)·B for
// i < 32, j < 8, so a·B is 64 mixed additions + 4 doublings and no
// per-scalar doubling chain at all. All of this is variable-time (secret-
// dependent table offsets and skips) — see docs/PROTOCOL.md.
// ---------------------------------------------------------------------------

const Point& base_point();

struct Niels {
  Fe yplusx, yminusx, xy2d;
};

// Mixed addition P + Q (add-2008-hwcd-3 with Z2 = 1).
Point point_madd(const Point& p, const Niels& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), q.yminusx);
  const Fe b = fe_mul(fe_add(p.y, p.x), q.yplusx);
  const Fe c = fe_mul(p.t, q.xy2d);
  const Fe d = fe_add(p.z, p.z);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  return Point{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// Mixed subtraction P - Q: add the negated Niels point (swap y±x, -2dxy).
Point point_msub(const Point& p, const Niels& q) {
  return point_madd(p, Niels{q.yminusx, q.yplusx, fe_neg(q.xy2d)});
}

// Convert extended points to affine Niels with one shared inversion
// (Montgomery batch-inversion trick) — 3 multiplies per point instead of a
// ~250-multiply inversion each.
std::vector<Niels> to_niels_batch(const std::vector<Point>& pts) {
  const std::size_t n = pts.size();
  std::vector<Fe> prefix(n);
  prefix[0] = pts[0].z;
  for (std::size_t i = 1; i < n; ++i) prefix[i] = fe_mul(prefix[i - 1], pts[i].z);
  Fe inv = fe_invert(prefix[n - 1]);
  std::vector<Fe> zinv(n);
  for (std::size_t i = n - 1; i > 0; --i) {
    zinv[i] = fe_mul(inv, prefix[i - 1]);
    inv = fe_mul(inv, pts[i].z);
  }
  zinv[0] = inv;
  std::vector<Niels> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Fe x = fe_mul(pts[i].x, zinv[i]);
    const Fe y = fe_mul(pts[i].y, zinv[i]);
    out[i] = Niels{fe_add(y, x), fe_sub(y, x),
                   fe_mul(fe_mul(x, y), edwards_2d())};
  }
  return out;
}

// A fixed-window table of P: table[r][j] = (j+1)·2^(shift·r)·P for
// r < Rows, j < 8, converted to Niels form with one shared inversion.
template <std::size_t Rows>
std::array<std::array<Niels, 8>, Rows> window_table(const Point& p,
                                                    int shift) {
  std::vector<Point> pts;
  pts.reserve(Rows * 8);
  Point row_base = p;  // 2^(shift·r)·P for the current row
  for (std::size_t r = 0; r < Rows; ++r) {
    Point q = row_base;
    for (int j = 0; j < 8; ++j) {
      pts.push_back(q);
      if (j < 7) q = point_add(q, row_base);
    }
    if (r + 1 < Rows) {
      for (int k = 0; k < shift; ++k) row_base = point_double(row_base);
    }
  }
  const std::vector<Niels> niels = to_niels_batch(pts);
  std::array<std::array<Niels, 8>, Rows> table;
  for (std::size_t r = 0; r < Rows; ++r) {
    for (std::size_t j = 0; j < 8; ++j) table[r][j] = niels[r * 8 + j];
  }
  return table;
}

// base_table()[i][j] = (j+1)·16^(2i)·B, built once at first use.
const std::array<std::array<Niels, 8>, 32>& base_table() {
  static const auto value = window_table<32>(base_point(), 8);
  return value;
}

// Odd multiples B, 3B, ..., 15B for the Straus/wNAF verification path.
const std::array<Niels, 8>& base_odd_table() {
  static const std::array<Niels, 8> value = [] {
    std::vector<Point> pts;
    pts.reserve(8);
    const Point b2 = point_double(base_point());
    Point q = base_point();
    for (int j = 0; j < 8; ++j) {
      pts.push_back(q);
      if (j < 7) q = point_add(q, b2);
    }
    const std::vector<Niels> niels = to_niels_batch(pts);
    std::array<Niels, 8> table;
    for (int j = 0; j < 8; ++j) table[static_cast<std::size_t>(j)] = niels[static_cast<std::size_t>(j)];
    return table;
  }();
  return value;
}

// Signed radix-16 recoding: 64 digits in [-8, 8], Σ e[i]·16^i = scalar.
// Requires scalar < 2^255 (true for clamped scalars and values reduced
// mod L): the top nibble is then at most 7, so with its carry the top
// digit stays within the table's 8 multiples.
std::array<std::int8_t, 64> to_radix16(const std::array<std::uint8_t, 32>& a) {
  std::array<std::int8_t, 64> e;
  for (int i = 0; i < 32; ++i) {
    e[static_cast<std::size_t>(2 * i)] =
        static_cast<std::int8_t>(a[static_cast<std::size_t>(i)] & 15);
    e[static_cast<std::size_t>(2 * i + 1)] =
        static_cast<std::int8_t>((a[static_cast<std::size_t>(i)] >> 4) & 15);
  }
  std::int8_t carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(
        e[static_cast<std::size_t>(i)] + carry);
    carry = static_cast<std::int8_t>((e[static_cast<std::size_t>(i)] + 8) >> 4);
    e[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(
        e[static_cast<std::size_t>(i)] - (carry << 4));
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);
  return e;
}

Point madd_digit(const Point& h, const std::array<Niels, 8>& window,
                 std::int8_t digit) {
  if (digit > 0) return point_madd(h, window[static_cast<std::size_t>(digit - 1)]);
  if (digit < 0) return point_msub(h, window[static_cast<std::size_t>(-digit - 1)]);
  return h;
}

// a·B via the precomputed window table: odd digit positions first (their
// windows are one factor of 16 short), one ×16, then the even positions.
Point base_scalar_mul(const std::array<std::uint8_t, 32>& scalar_le) {
  const auto& table = base_table();
  const auto e = to_radix16(scalar_le);
  Point h = point_identity();
  for (int i = 1; i < 64; i += 2) {
    h = madd_digit(h, table[static_cast<std::size_t>(i / 2)],
                   e[static_cast<std::size_t>(i)]);
  }
  for (int k = 0; k < 4; ++k) h = point_double(h);
  for (int i = 0; i < 64; i += 2) {
    h = madd_digit(h, table[static_cast<std::size_t>(i / 2)],
                   e[static_cast<std::size_t>(i)]);
  }
  return h;
}

// The table an Ed25519VerifyingKey holds: (j+1)·16^(4r)·(-A), r < 16.
using KeyTable = std::array<std::array<Niels, 8>, 16>;

// k·(-A) + s·B from -A's key table and the base table. Digit position
// i = 4r + p of k sits in key row r at pass p; the passes run p = 3, 2, 1,
// 0 with a ×16 (4 doublings) between them, so pass p's additions end up
// multiplied by 16^p. The base table's rows are 16^(2q) apart, so s's odd
// digits join pass 1 and its even digits pass 0: 12 doublings in all.
Point held_double_scalarmult(const KeyTable& key, const Scalar& k,
                             const Scalar& s) {
  const auto& base = base_table();
  const auto ek = to_radix16(k);
  const auto es = to_radix16(s);
  Point h = point_identity();
  for (std::size_t pass = 4; pass-- > 0;) {
    if (pass < 3) {
      for (int d = 0; d < 4; ++d) h = point_double(h);
    }
    for (std::size_t r = 0; r < 16; ++r) {
      h = madd_digit(h, key[r], ek[4 * r + pass]);
    }
    if (pass < 2) {
      for (std::size_t q = 0; q < 32; ++q) {
        h = madd_digit(h, base[q], es[2 * q + pass]);
      }
    }
  }
  return h;
}

// Sliding-window NAF recoding, width 5: digits are 0 or odd in [-15, 15],
// with the usual sparsity (~1 nonzero digit per 6 positions).
void slide(std::int8_t r[256], const std::array<std::uint8_t, 32>& a) {
  for (int i = 0; i < 256; ++i) {
    r[i] = static_cast<std::int8_t>(1 & (a[static_cast<std::size_t>(i >> 3)] >> (i & 7)));
  }
  for (int i = 0; i < 256; ++i) {
    if (!r[i]) continue;
    for (int b = 1; b <= 6 && i + b < 256; ++b) {
      if (!r[i + b]) continue;
      if (r[i] + (r[i + b] << b) <= 15) {
        r[i] = static_cast<std::int8_t>(r[i] + (r[i + b] << b));
        r[i + b] = 0;
      } else if (r[i] - (r[i + b] << b) >= -15) {
        r[i] = static_cast<std::int8_t>(r[i] - (r[i + b] << b));
        for (int k = i + b; k < 256; ++k) {
          if (!r[k]) {
            r[k] = 1;
            break;
          }
          r[k] = 0;
        }
      } else {
        break;
      }
    }
  }
}

// Straus/Shamir: a·A + b·B in one interleaved pass with shared doublings.
// A's odd multiples are built per call (extended coords); B's come from the
// static Niels table.
Point double_scalarmult_vartime(const std::array<std::uint8_t, 32>& a_scalar,
                                const Point& a_point,
                                const std::array<std::uint8_t, 32>& b_scalar) {
  std::int8_t aslide[256];
  std::int8_t bslide[256];
  slide(aslide, a_scalar);
  slide(bslide, b_scalar);

  std::array<Point, 8> ai;  // A, 3A, 5A, ..., 15A
  ai[0] = a_point;
  const Point a2 = point_double(a_point);
  for (int j = 1; j < 8; ++j) {
    ai[static_cast<std::size_t>(j)] = point_add(ai[static_cast<std::size_t>(j - 1)], a2);
  }
  const auto& bi = base_odd_table();

  Point h = point_identity();
  int i = 255;
  while (i >= 0 && !aslide[i] && !bslide[i]) --i;
  for (; i >= 0; --i) {
    h = point_double(h);
    if (aslide[i] > 0) {
      h = point_add(h, ai[static_cast<std::size_t>(aslide[i] / 2)]);
    } else if (aslide[i] < 0) {
      h = point_add(h, point_neg(ai[static_cast<std::size_t>(-aslide[i] / 2)]));
    }
    if (bslide[i] > 0) {
      h = point_madd(h, bi[static_cast<std::size_t>(bslide[i] / 2)]);
    } else if (bslide[i] < 0) {
      h = point_msub(h, bi[static_cast<std::size_t>(-bslide[i] / 2)]);
    }
  }
  return h;
}

const Point& base_point() {
  // y = 4/5, x recovered from the curve equation with even x (sign bit 0).
  static const Point value = [] {
    const Fe y = fe_mul(fe_from_u64(4), fe_invert(fe_from_u64(5)));
    // x^2 = (y^2 - 1) / (d y^2 + 1)
    const Fe y2 = fe_sq(y);
    const Fe u = fe_sub(y2, fe_one());
    const Fe v = fe_add(fe_mul(edwards_d(), y2), fe_one());
    // Candidate root: (u/v)^((p+3)/8) = u v^3 (u v^7)^((p-5)/8)
    const Fe v3 = fe_mul(fe_sq(v), v);
    const Fe v7 = fe_mul(fe_sq(v3), v);
    Fe x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, v7)));
    const Fe vx2 = fe_mul(v, fe_sq(x));
    if (!fe_is_zero(fe_sub(vx2, u))) x = fe_mul(x, fe_sqrt_m1());
    if (fe_is_negative(x)) x = fe_neg(x);
    return Point{x, y, fe_one(), fe_mul(x, y)};
  }();
  return value;
}

std::array<std::uint8_t, 32> point_encode(const Point& p) {
  const Fe zinv = fe_invert(p.z);
  const Fe x = fe_mul(p.x, zinv);
  const Fe y = fe_mul(p.y, zinv);
  std::array<std::uint8_t, 32> out = fe_to_bytes(y);
  out[31] = static_cast<std::uint8_t>(
      out[31] | (static_cast<std::uint8_t>(fe_is_negative(x)) << 7));
  return out;
}

std::optional<Point> point_decode(ByteView in) {
  if (in.size() != 32) return std::nullopt;
  const int sign = in[31] >> 7;
  const Fe y = fe_from_bytes(in);
  // Reject non-canonical y encodings (y >= p).
  {
    const auto canonical = fe_to_bytes(y);
    std::uint8_t masked_last = static_cast<std::uint8_t>(in[31] & 0x7f);
    bool same = true;
    for (int i = 0; i < 31; ++i) {
      if (canonical[static_cast<std::size_t>(i)] != in[static_cast<std::size_t>(i)]) {
        same = false;
        break;
      }
    }
    if (canonical[31] != masked_last) same = false;
    if (!same) return std::nullopt;
  }
  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_one());
  const Fe v = fe_add(fe_mul(edwards_d(), y2), fe_one());
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, v7)));
  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (fe_is_zero(fe_sub(vx2, u))) {
    // x is a root.
  } else if (fe_is_zero(fe_add(vx2, u))) {
    x = fe_mul(x, fe_sqrt_m1());
  } else {
    return std::nullopt;
  }
  if (fe_is_zero(x) && sign == 1) return std::nullopt;
  if (fe_is_negative(x) != sign) x = fe_neg(x);
  return Point{x, y, fe_one(), fe_mul(x, y)};
}

std::array<std::uint8_t, 32> clamp_scalar(const std::uint8_t h[32]) {
  std::array<std::uint8_t, 32> a;
  std::memcpy(a.data(), h, 32);
  a[0] &= 248;
  a[31] &= 63;
  a[31] |= 64;
  return a;
}

// The checks every verification path makes on the signature before any
// point arithmetic: its length and a canonical s (< L). Returns s.
std::optional<Scalar> signature_scalar(ByteView signature) {
  if (signature.size() != kEd25519SignatureSize) return std::nullopt;
  Scalar s{};
  std::memcpy(s.data(), signature.data() + 32, 32);
  // ct-ok: s is the signature scalar, a public input to verification.
  if (!scalar_is_canonical(s)) return std::nullopt;
  return s;
}

// The challenge scalar k = SHA512(R || A || M) mod L.
Scalar challenge(ByteView signature, const Ed25519PublicKey& public_key,
                 ByteView message) {
  Sha512 hk;
  hk.update(signature.subspan(0, 32));
  hk.update(public_key);
  hk.update(message);
  return scalar_reduce(hk.finish());
}

// k·(-A) + s·B == R, compared by encoding. R is never decoded: an R that
// does not decode, or decodes from a non-canonical encoding, never equals
// the canonical encoding of the computed point.
bool matches_r(const Point& check, ByteView signature) {
  const auto check_enc = point_encode(check);
  return std::memcmp(check_enc.data(), signature.data(), 32) == 0;
}

// The shared input validation of single and batch verification: the
// signature checks above, a decodable A, and the challenge scalar. R is
// not decoded here; batch verification decodes it.
struct DecodedVerify {
  Point a;      // public-key point
  Scalar s{};   // canonical scalar s
  Scalar k{};
};

std::optional<DecodedVerify> decode_for_verify(
    const Ed25519PublicKey& public_key, ByteView message, ByteView signature) {
  const auto s = signature_scalar(signature);
  // ct-ok: verification inputs (public key, signature) are public values.
  if (!s) return std::nullopt;
  const auto a_point = point_decode(public_key);
  // ct-ok: the public key is a public input to verification.
  if (!a_point) return std::nullopt;
  return DecodedVerify{*a_point, *s, challenge(signature, public_key, message)};
}

bool point_is_identity(const Point& p) {
  // (X : Y : Z) is the identity iff x == 0 and y == z (affine (0, 1)).
  return fe_is_zero(p.x) && fe_is_zero(fe_sub(p.y, p.z));
}

}  // namespace

Ed25519SigningKey::Ed25519SigningKey(const Ed25519Seed& seed) {
  const Zeroizing<Sha512Digest> h = Sha512::hash(seed);
  scalar_ = clamp_scalar(h->data());
  std::memcpy(prefix_->data(), h->data() + 32, 32);
  public_key_ = point_encode(base_scalar_mul(scalar_));
}

Ed25519SigningKey Ed25519SigningKey::generate(RandomSource& rng) {
  Zeroizing<Ed25519Seed> seed;
  rng.fill(seed);
  return Ed25519SigningKey(seed);
}

Ed25519Signature Ed25519SigningKey::sign(ByteView message) const {
  // r = SHA512(prefix || M) mod L
  Sha512 hr;
  hr.update(*prefix_);
  hr.update(message);
  const Zeroizing<Scalar> r = scalar_reduce(hr.finish());
  const auto r_enc = point_encode(base_scalar_mul(r));

  // k = SHA512(R || A || M) mod L
  Sha512 hk;
  hk.update(r_enc);
  hk.update(public_key_);
  hk.update(message);
  const Scalar k = scalar_reduce(hk.finish());

  // s = (r + k * a) mod L
  const Scalar s = scalar_mul_add(k, scalar_, r);

  Ed25519Signature sig;
  std::memcpy(sig.data(), r_enc.data(), 32);
  std::memcpy(sig.data() + 32, s.data(), 32);
  return sig;
}

Ed25519PublicKey ed25519_public_key(const Ed25519Seed& seed) {
  return Ed25519SigningKey(seed).public_key();
}

Ed25519KeyPair ed25519_generate(RandomSource& rng) {
  Ed25519KeyPair kp;
  rng.fill(kp.seed);
  kp.public_key = ed25519_public_key(kp.seed);
  return kp;
}

Ed25519Signature ed25519_sign(const Ed25519Seed& seed, ByteView message) {
  return Ed25519SigningKey(seed).sign(message);
}

bool ed25519_verify(const Ed25519PublicKey& public_key, ByteView message,
                    ByteView signature) {
  const auto decoded = decode_for_verify(public_key, message, signature);
  // ct-ok: verification inputs (public key, signature) are public values.
  if (!decoded) return false;

  // Check s*B == R + k*A  <=>  k*(-A) + s*B == R, computed in one
  // interleaved Straus pass with shared doublings.
  return matches_r(
      double_scalarmult_vartime(decoded->k, point_neg(decoded->a), decoded->s),
      signature);
}

struct Ed25519VerifyingKey::Table {
  Ed25519PublicKey public_key{};
  KeyTable neg_a;  // neg_a[0][0] is -A itself
};

Ed25519VerifyingKey::Ed25519VerifyingKey(std::shared_ptr<const Table> table)
    : table_(std::move(table)) {}

std::optional<Ed25519VerifyingKey> Ed25519VerifyingKey::from_public_key(
    const Ed25519PublicKey& public_key) {
  const auto a_point = point_decode(public_key);
  // ct-ok: the public key is a public input to verification.
  if (!a_point) return std::nullopt;
  auto table = std::make_shared<Table>();
  table->public_key = public_key;
  table->neg_a = window_table<16>(point_neg(*a_point), 16);
  return Ed25519VerifyingKey(std::move(table));
}

const Ed25519PublicKey& Ed25519VerifyingKey::public_key() const {
  return table_->public_key;
}

bool Ed25519VerifyingKey::verify(ByteView message, ByteView signature) const {
  // The checks of ed25519_verify in the same order; A decoded at build.
  const auto s = signature_scalar(signature);
  // ct-ok: s is the signature scalar, a public input to verification.
  if (!s) return false;
  const Scalar k = challenge(signature, table_->public_key, message);
  return matches_r(held_double_scalarmult(table_->neg_a, k, *s), signature);
}

std::vector<bool> ed25519_verify_batch(std::span<const Ed25519BatchItem> items,
                                       RandomSource* rng) {
  const std::size_t n = items.size();
  std::vector<bool> ok(n, false);
  if (n == 0) return ok;

  // Input validation identical to single verify; invalid items (R
  // included: the combined equation needs R as a point) are settled here
  // and never enter the combined equation.
  struct Candidate {
    std::size_t index;
    DecodedVerify decoded;
    Point r;     // signature R point
    Scalar z{};  // 128-bit blinding coefficient
  };
  std::vector<Candidate> candidates;
  candidates.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto decoded = decode_for_verify(items[i].public_key, items[i].message,
                                     items[i].signature);
    if (!decoded) continue;
    const auto r_point = point_decode(items[i].signature.subspan(0, 32));
    if (r_point) candidates.push_back({i, std::move(*decoded), *r_point});
  }
  if (candidates.empty()) return ok;

  // A single survivor gains nothing from the batch equation.
  if (candidates.size() == 1) {
    const auto& item = items[candidates[0].index];
    ok[candidates[0].index] =
        ed25519_verify(item.public_key, item.message, item.signature);
    return ok;
  }

  // Blinding coefficients: 128 bits each, either from the caller's RNG or
  // derived by hashing the whole batch (the derivation commits every z_i to
  // all signatures, so an adversary cannot pick signatures afterwards).
  Sha512Digest batch_digest{};
  if (!rng) {
    Sha512 h;
    h.update(to_bytes("vnfsgx-ed25519-batch-v1"));
    for (const Candidate& c : candidates) {
      const auto& item = items[c.index];
      h.update(item.public_key);
      h.update(item.signature);
      h.update(Sha512::hash(item.message));
    }
    batch_digest = h.finish();
  }
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    Scalar& z = candidates[j].z;  // 16 random bytes < L: already reduced
    if (rng) {
      std::array<std::uint8_t, 16> raw{};
      rng->fill(raw);
      std::copy(raw.begin(), raw.end(), z.begin());
    } else {
      Sha512 h;
      h.update(batch_digest);
      std::array<std::uint8_t, 8> idx{};
      for (int b = 0; b < 8; ++b) {
        idx[static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(j >> (8 * b));
      }
      h.update(idx);
      const Sha512Digest zd = h.finish();
      std::copy(zd.begin(), zd.begin() + 16, z.begin());
    }
    z[0] |= 1;  // never zero: a zero coefficient drops its item
  }

  // Batch equation scalars:
  //   per item:  z_i (for R_i) and z_i*k_i mod L (for A_i),
  //   combined:  Σ z_i*s_i mod L (for the subtracted base term).
  // One Straus pass over all 2·m+1 terms shares the 256-double chain that
  // single verification pays per signature.
  struct Term {
    std::array<Point, 8> odd;  // P, 3P, ..., 15P
    std::array<std::int8_t, 256> digits;
  };
  std::vector<Term> terms(2 * candidates.size());
  Scalar s_total{};
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    const Candidate& c = candidates[j];
    const Scalar zk = scalar_mul_add(c.z, c.decoded.k, Scalar{});
    s_total = scalar_mul_add(c.z, c.decoded.s, s_total);

    Term& tr = terms[2 * j];      // z_i · R_i
    Term& ta = terms[2 * j + 1];  // (z_i·k_i) · A_i
    slide(tr.digits.data(), c.z);
    slide(ta.digits.data(), zk);
    for (Term* t : {&tr, &ta}) {
      const Point& p = (t == &tr) ? c.r : c.decoded.a;
      t->odd[0] = p;
      const Point p2 = point_double(p);
      for (int m = 1; m < 8; ++m) {
        t->odd[static_cast<std::size_t>(m)] =
            point_add(t->odd[static_cast<std::size_t>(m - 1)], p2);
      }
    }
  }
  std::array<std::int8_t, 256> base_digits;
  slide(base_digits.data(), s_total);
  const auto& base_odd = base_odd_table();

  int top = 255;
  const auto any_digit_at = [&](int i) {
    if (base_digits[static_cast<std::size_t>(i)]) return true;
    for (const Term& t : terms) {
      if (t.digits[static_cast<std::size_t>(i)]) return true;
    }
    return false;
  };
  while (top >= 0 && !any_digit_at(top)) --top;

  Point h = point_identity();
  for (int i = top; i >= 0; --i) {
    h = point_double(h);
    for (const Term& t : terms) {
      const std::int8_t d = t.digits[static_cast<std::size_t>(i)];
      if (d > 0) {
        h = point_add(h, t.odd[static_cast<std::size_t>(d / 2)]);
      } else if (d < 0) {
        h = point_add(h, point_neg(t.odd[static_cast<std::size_t>(-d / 2)]));
      }
    }
    // The base term is subtracted, so its additions flip sign.
    const std::int8_t d = base_digits[static_cast<std::size_t>(i)];
    if (d > 0) {
      h = point_msub(h, base_odd[static_cast<std::size_t>(d / 2)]);
    } else if (d < 0) {
      h = point_madd(h, base_odd[static_cast<std::size_t>(-d / 2)]);
    }
  }

  if (point_is_identity(h)) {
    for (const Candidate& c : candidates) ok[c.index] = true;
    return ok;
  }
  // The combination failed: at least one signature is bad. Re-verify each
  // survivor individually so the verdicts stay bit-exact with single verify
  // and the culprit is identified precisely.
  for (const Candidate& c : candidates) {
    const auto& item = items[c.index];
    ok[c.index] = ed25519_verify(item.public_key, item.message, item.signature);
  }
  return ok;
}

std::array<std::uint8_t, 32> ed25519_base_montgomery_u(
    const std::array<std::uint8_t, 32>& scalar_le) {
  const Point p = base_scalar_mul(scalar_le);
  // u = (1+y)/(1-y) with affine y = Y/Z, so u = (Z+Y)/(Z-Y). A clamped
  // scalar is never 0 mod L (no multiple of odd L in [2^254, 2^255) is
  // divisible by 8), so k·B is never the identity and Z-Y is invertible.
  return fe_to_bytes(fe_mul(fe_add(p.z, p.y), fe_invert(fe_sub(p.z, p.y))));
}

namespace detail {

std::array<std::uint8_t, 32> base_mul_ladder(
    const std::array<std::uint8_t, 32>& scalar_le) {
  return point_encode(point_scalar_mul(base_point(), scalar_le));
}

std::array<std::uint8_t, 32> base_mul_windowed(
    const std::array<std::uint8_t, 32>& scalar_le) {
  return point_encode(base_scalar_mul(scalar_le));
}

std::optional<std::array<std::uint8_t, 32>> point_add_encoded(
    const std::array<std::uint8_t, 32>& p,
    const std::array<std::uint8_t, 32>& q) {
  const auto pp = point_decode(p);
  const auto qq = point_decode(q);
  if (!pp || !qq) return std::nullopt;
  return point_encode(point_add(*pp, *qq));
}

std::array<std::uint8_t, 32> scalar_reduce(ByteView wide64) {
  return crypto::scalar_reduce(wide64);
}

std::array<std::uint8_t, 32> scalar_mul_add(
    const std::array<std::uint8_t, 32>& a,
    const std::array<std::uint8_t, 32>& b,
    const std::array<std::uint8_t, 32>& c) {
  return crypto::scalar_mul_add(a, b, c);
}

}  // namespace detail

}  // namespace vnfsgx::crypto
