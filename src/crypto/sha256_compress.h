// SHA-256 compression bodies: internal to the crypto module and its tests.
//
// Every hash in the library reduces to one compression of a 64-byte block
// into an 8-word chaining state. Two bodies implement it:
//
//   portable   FIPS 180-4 in plain C++, the reference every other body must
//              match bit for bit.
//   sha-ni     the x86 SHA extensions (sha256rnds2 for the rounds,
//              sha256msg1/2 for the message schedule). Compiled only on
//              x86-64, under a function-level target attribute, so the
//              build needs no -msha and the binary still runs on CPUs
//              without the extensions.
//
// compress() runs the body chosen once per process from CPUID: sha-ni when
// the CPU has SHA and SSE4.1, portable otherwise. Nothing configures it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/sha256.h"

namespace ropuf::crypto::detail {

/// The eight 32-bit chaining words H0..H7.
using Sha256State = std::array<std::uint32_t, 8>;

/// FIPS 180-4 initial hash value.
inline constexpr Sha256State kSha256Init = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                            0xa54ff53a, 0x510e527f, 0x9b05688c,
                                            0x1f83d9ab, 0x5be0cd19};

/// SHA-256 processes 64-byte blocks.
inline constexpr std::size_t kSha256BlockBytes = 64;

/// One compression: folds a 64-byte block into `state`.
using CompressFn = void (*)(Sha256State& state, const std::uint8_t* block);

/// The reference body.
void compress_portable(Sha256State& state, const std::uint8_t* block);

/// The SHA-NI body when this build targets x86-64 and the CPU has the SHA
/// extensions; nullptr otherwise.
CompressFn sha_ni_compress();

/// The body every hash in the library runs, chosen on first use.
CompressFn active_compress();

/// "sha-ni" or "portable": the name of active_compress() (bench contexts).
const char* active_compress_name();

/// Folds one block through the active body.
inline void compress(Sha256State& state, const std::uint8_t* block) {
  active_compress()(state, block);
}

/// Hashes `data` on top of `state`, which has already absorbed `absorbed`
/// bytes (a multiple of the block size), then pads and returns the digest.
/// sha256() is finish(kSha256Init, 0, ...); a keyed HMAC state continues
/// with absorbed = 64. `body` compresses every block.
Sha256Digest finish(Sha256State state, std::uint64_t absorbed, const std::uint8_t* data,
                    std::size_t size, CompressFn body);

}  // namespace ropuf::crypto::detail
