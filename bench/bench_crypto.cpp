// SUB-CRYPTO: throughput/latency of the from-scratch primitives every other
// experiment sits on. Calibrates the absolute numbers reported by the
// workflow benches (see EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "crypto/ed25519.h"
#include "crypto/field25519.h"
#include "crypto/gcm.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/random.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"

namespace vnfsgx::crypto {
namespace {

void BM_Sha256(benchmark::State& state) {
  DeterministicRandom rng(1);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

// The two SHA-256 compression paths on the same 16 KiB: arg 0 = portable,
// arg 1 = SHA-NI (falls back to portable on CPUs without it; the label
// says which ran). BM_Sha256 above runs whichever the CPU dispatches to.
void BM_Sha256Compress(benchmark::State& state) {
  DeterministicRandom rng(4);
  constexpr std::size_t kBlocks = 256;
  const Bytes data = rng.bytes(kBlocks * kSha256BlockSize);
  const bool hw = state.range(0) == 1;
  std::array<std::uint32_t, 8> h{};
  for (auto _ : state) {
    if (hw) {
      detail::sha256_compress_shani(h, data.data(), kBlocks);
    } else {
      detail::sha256_compress_portable(h, data.data(), kBlocks);
    }
    benchmark::DoNotOptimize(h);
  }
  state.SetLabel(!hw ? "portable"
                     : (sha256_hw_available() ? "sha-ni" : "sha-ni absent"));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Sha256Compress)->Arg(0)->Arg(1);

void BM_HmacSha256(benchmark::State& state) {
  DeterministicRandom rng(2);
  const Bytes key = rng.bytes(32);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_AesGcmSeal(benchmark::State& state) {
  DeterministicRandom rng(3);
  const AesGcm gcm(rng.bytes(16));
  const Bytes nonce = rng.bytes(12);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.seal(nonce, data, {}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AesGcmSeal)->Arg(64)->Arg(1024)->Arg(16384);

void BM_AesGcmOpen(benchmark::State& state) {
  DeterministicRandom rng(3);
  const AesGcm gcm(rng.bytes(16));
  const Bytes nonce = rng.bytes(12);
  const Bytes sealed =
      gcm.seal(nonce, rng.bytes(static_cast<std::size_t>(state.range(0))), {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.open(nonce, sealed, {}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AesGcmOpen)->Arg(64)->Arg(1024)->Arg(16384);

void BM_AesGcmSealInPlace(benchmark::State& state) {
  // The TLS record path: no allocation, ciphertext over the plaintext.
  DeterministicRandom rng(3);
  const AesGcm gcm(rng.bytes(16));
  const Bytes nonce = rng.bytes(12);
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  Bytes buf = rng.bytes(len + kGcmTagSize);
  for (auto _ : state) {
    gcm.seal_in_place(nonce, buf.data(), len, {}, buf.data() + len);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AesGcmSealInPlace)->Arg(64)->Arg(1024)->Arg(16384);

void BM_AesGcmKeySetup(benchmark::State& state) {
  // Per-key cost paid by every TLS session and sealing context: the AES
  // key schedule plus the GHASH key H.
  DeterministicRandom rng(3);
  const Bytes key = rng.bytes(16);
  for (auto _ : state) {
    const AesGcm gcm(key);
    benchmark::DoNotOptimize(&gcm);
  }
}
BENCHMARK(BM_AesGcmKeySetup);

void BM_GhashSoftware(benchmark::State& state) {
  // The software GHASH (branchless bit-at-a-time multiply) that CPUs
  // without PCLMULQDQ run; PCLMUL hosts never take it in AesGcm.
  DeterministicRandom rng(3);
  AesBlock h;
  const Bytes hb = rng.bytes(16);
  std::copy(hb.begin(), hb.end(), h.begin());
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(detail::ghash_software(h, {}, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GhashSoftware)->Arg(64)->Arg(1024)->Arg(16384);

// SUB-25519 field and scalar primitives. Each iteration feeds its result
// back in, so the numbers are latencies of a dependent chain, as in the
// ladder and the point formulas.
Fe bench_fe(std::uint64_t seed) {
  DeterministicRandom rng(seed);
  std::array<std::uint8_t, 32> b;
  rng.fill(b);
  return fe_from_bytes(b);
}

void BM_FeMul(benchmark::State& state) {
  Fe x = bench_fe(10);
  const Fe y = bench_fe(11);
  for (auto _ : state) {
    x = fe_mul(x, y);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FeMul);

void BM_FeSq(benchmark::State& state) {
  Fe x = bench_fe(12);
  for (auto _ : state) {
    x = fe_sq(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FeSq);

void BM_FeInvert(benchmark::State& state) {
  Fe x = bench_fe(13);
  for (auto _ : state) {
    x = fe_invert(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FeInvert);

void BM_FeToBytes(benchmark::State& state) {
  const Fe x = bench_fe(14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fe_to_bytes(x));
  }
}
BENCHMARK(BM_FeToBytes);

// One 64-byte reduction mod L (every SHA-512 output Ed25519 hashes).
void BM_ScalarReduce(benchmark::State& state) {
  DeterministicRandom rng(15);
  std::array<std::uint8_t, 64> wide;
  rng.fill(wide);
  for (auto _ : state) {
    const auto r = detail::scalar_reduce(wide);
    std::copy(r.begin(), r.end(), wide.begin());
    benchmark::DoNotOptimize(wide);
  }
}
BENCHMARK(BM_ScalarReduce);

void BM_X25519SharedSecret(benchmark::State& state) {
  DeterministicRandom rng(4);
  const auto a = x25519_generate(rng);
  const auto b = x25519_generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(x25519_shared(a.private_key, b.public_key));
  }
}
BENCHMARK(BM_X25519SharedSecret);

void BM_Ed25519KeyGen(benchmark::State& state) {
  DeterministicRandom rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_generate(rng));
  }
}
BENCHMARK(BM_Ed25519KeyGen);

void BM_Ed25519Sign(benchmark::State& state) {
  DeterministicRandom rng(6);
  const auto kp = ed25519_generate(rng);
  const Bytes msg = rng.bytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_sign(kp.seed, msg));
  }
}
BENCHMARK(BM_Ed25519Sign);

// Signing with a key expanded once, as every long-lived signer does.
void BM_Ed25519SignExpanded(benchmark::State& state) {
  DeterministicRandom rng(6);
  const Ed25519SigningKey key = Ed25519SigningKey::generate(rng);
  const Bytes msg = rng.bytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(msg));
  }
}
BENCHMARK(BM_Ed25519SignExpanded);

void BM_Ed25519Verify(benchmark::State& state) {
  DeterministicRandom rng(7);
  const auto kp = ed25519_generate(rng);
  const Bytes msg = rng.bytes(256);
  const auto sig = ed25519_sign(kp.seed, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ed25519_verify(kp.public_key, msg, ByteView(sig.data(), sig.size())));
  }
}
BENCHMARK(BM_Ed25519Verify);

// The same verify under a held key: the table of -A is built before the
// loop, as every long-lived verifier holds it.
void BM_Ed25519VerifyHeld(benchmark::State& state) {
  DeterministicRandom rng(7);
  const auto kp = ed25519_generate(rng);
  const Bytes msg = rng.bytes(256);
  const auto sig = ed25519_sign(kp.seed, msg);
  const auto key = Ed25519VerifyingKey::from_public_key(kp.public_key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        key->verify(msg, ByteView(sig.data(), sig.size())));
  }
}
BENCHMARK(BM_Ed25519VerifyHeld);

// What holding a key costs once: decode A and build its table.
void BM_Ed25519VerifyingKeyBuild(benchmark::State& state) {
  DeterministicRandom rng(7);
  const auto kp = ed25519_generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Ed25519VerifyingKey::from_public_key(kp.public_key));
  }
}
BENCHMARK(BM_Ed25519VerifyingKeyBuild);

void BM_HkdfExpandLabel(benchmark::State& state) {
  DeterministicRandom rng(8);
  const Bytes secret = rng.bytes(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hkdf_expand_label(secret, "key", {}, 32));
  }
}
BENCHMARK(BM_HkdfExpandLabel);

}  // namespace
}  // namespace vnfsgx::crypto
