// SHA-256 (FIPS 180-4).
//
// Used for: enclave measurements (MRENCLAVE extend chain), IMA file digests,
// certificate signatures (via Ed25519ph-style prehash), HKDF/HMAC, and the
// TLS transcript hash.
//
// Two compression paths behind one dispatch point: SHA-NI (the x86 SHA
// extensions, runtime-detected and used whenever the CPU has them) and the
// portable FIPS 180-4 rounds, which are the fallback and the test oracle.
// Both are constant-time: neither branches on nor indexes memory by data.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace vnfsgx::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
inline constexpr std::size_t kSha256BlockSize = 64;

using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// True when this build and CPU run SHA-256 rounds in hardware (SHA-NI).
bool sha256_hw_available();

/// Incremental SHA-256. Copyable: copying forks the hash state, which the
/// TLS transcript hash uses to snapshot at each handshake message.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(ByteView data);
  /// Finalizes into `out`. The object must be reset() before reuse.
  Sha256Digest finish();

  static Sha256Digest hash(ByteView data) {
    Sha256 h;
    h.update(data);
    return h.finish();
  }

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kSha256BlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Convenience: digest as a Bytes vector.
Bytes sha256(ByteView data);

namespace detail {

/// Test hooks: fold `nblocks` consecutive 64-byte blocks into `state` with
/// the portable rounds and with SHA-NI. The FIPS vectors pin the composite;
/// these pin the compression function itself on arbitrary states so the two
/// paths can be cross-checked. The SHA-NI hook falls back to the portable
/// path on CPUs without it (check sha256_hw_available() first).
void sha256_compress_portable(std::array<std::uint32_t, 8>& state,
                              const std::uint8_t* data, std::size_t nblocks);
void sha256_compress_shani(std::array<std::uint32_t, 8>& state,
                           const std::uint8_t* data, std::size_t nblocks);

}  // namespace detail

}  // namespace vnfsgx::crypto
