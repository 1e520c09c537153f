#include "crypto/hmac.h"

#include <cstring>

#include "crypto/sha256_compress.h"

namespace ropuf::crypto {

HmacKey::HmacKey(const std::uint8_t* key, std::size_t key_size) {
  constexpr std::size_t kBlock = detail::kSha256BlockBytes;
  // K' = key hashed down when longer than a block, zero-padded to the block.
  std::array<std::uint8_t, kBlock> padded{};
  if (key_size > kBlock) {
    const Sha256Digest reduced = sha256(key, key_size);
    std::memcpy(padded.data(), reduced.data(), reduced.size());
  } else if (key_size > 0) {
    std::memcpy(padded.data(), key, key_size);
  }

  std::array<std::uint8_t, kBlock> block{};
  for (std::size_t i = 0; i < kBlock; ++i) block[i] = static_cast<std::uint8_t>(padded[i] ^ 0x36u);
  inner_ = detail::kSha256Init;
  detail::compress(inner_, block.data());
  for (std::size_t i = 0; i < kBlock; ++i) block[i] = static_cast<std::uint8_t>(padded[i] ^ 0x5cu);
  outer_ = detail::kSha256Init;
  detail::compress(outer_, block.data());
}

Sha256Digest HmacKey::tag(const std::uint8_t* data, std::size_t size) const {
  // inner = H((K' ^ ipad) || data), outer = H((K' ^ opad) || inner): each
  // continues from its keyed state, one block already absorbed.
  const detail::CompressFn body = detail::active_compress();
  const Sha256Digest inner =
      detail::finish(inner_, detail::kSha256BlockBytes, data, size, body);
  return detail::finish(outer_, detail::kSha256BlockBytes, inner.data(), inner.size(),
                        body);
}

Sha256Digest hmac_sha256(const std::uint8_t* key, std::size_t key_size,
                         const std::uint8_t* data, std::size_t data_size) {
  return HmacKey(key, key_size).tag(data, data_size);
}

Sha256Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                         const std::vector<std::uint8_t>& data) {
  return hmac_sha256(key.data(), key.size(), data.data(), data.size());
}

Sha256Digest hmac_sha256(const std::string& key, const std::string& data) {
  return hmac_sha256(reinterpret_cast<const std::uint8_t*>(key.data()),
                     key.size(),
                     reinterpret_cast<const std::uint8_t*>(data.data()),
                     data.size());
}

}  // namespace ropuf::crypto
