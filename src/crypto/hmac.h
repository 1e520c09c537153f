// HMAC-SHA256 (RFC 2104 / FIPS 198-1) over the self-contained SHA-256.
//
// The protocol-v2 authentication primitive: a prover that recovered its
// fuzzy-extractor key proves possession by MACing a server nonce, so the
// wire never carries raw response bits and a replayed transcript fails
// (docs/protocol_v2.md). Keys longer than the 64-byte SHA-256 block are
// hashed first, exactly as the RFC prescribes; tests pin the RFC 4231
// vectors.
//
// The K^ipad and K^opad blocks depend on the key alone, so HmacKey
// compresses them once (RFC 2104 section 4) and keeps the two chaining
// states. A tag over a message of up to 55 bytes then costs two
// compressions, and it allocates nothing.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/sha256.h"

namespace ropuf::crypto {

/// An HMAC-SHA256 key with its inner and outer states precomputed.
class HmacKey {
 public:
  /// Any key length; keys past one block are hashed first.
  HmacKey(const std::uint8_t* key, std::size_t key_size);
  explicit HmacKey(const Sha256Digest& key) : HmacKey(key.data(), key.size()) {}

  /// HMAC-SHA256 of `data` under this key (any message length).
  Sha256Digest tag(const std::uint8_t* data, std::size_t size) const;

 private:
  /// Chaining states after one block of K^ipad / K^opad.
  std::array<std::uint32_t, 8> inner_{};
  std::array<std::uint32_t, 8> outer_{};
};

/// HMAC-SHA256 of `data` under `key` (any key length).
Sha256Digest hmac_sha256(const std::uint8_t* key, std::size_t key_size,
                         const std::uint8_t* data, std::size_t data_size);

/// Convenience overloads.
Sha256Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                         const std::vector<std::uint8_t>& data);
Sha256Digest hmac_sha256(const std::string& key, const std::string& data);

}  // namespace ropuf::crypto
