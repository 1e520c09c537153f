#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/hmac.h"
#include "crypto/sha256_compress.h"

namespace ropuf::crypto {
namespace {

struct Body {
  const char* name;
  detail::CompressFn fn;
};

/// Every compression body this build and CPU can run: the portable
/// reference always, SHA-NI where the CPU has it.
std::vector<Body> bodies() {
  std::vector<Body> out = {{"portable", &detail::compress_portable}};
  if (detail::CompressFn sha_ni = detail::sha_ni_compress()) out.push_back({"sha-ni", sha_ni});
  return out;
}

const std::uint8_t* bytes(const std::string& s) {
  return reinterpret_cast<const std::uint8_t*>(s.data());
}

Sha256Digest sha256_via(detail::CompressFn body, const std::uint8_t* data, std::size_t size) {
  return detail::finish(detail::kSha256Init, 0, data, size, body);
}

/// RFC 2104 spelled out over whole buffers, hashing through `body`: the
/// reference the keyed-state HmacKey must match.
Sha256Digest hmac_via(detail::CompressFn body, const std::uint8_t* key, std::size_t key_size,
                      const std::uint8_t* data, std::size_t data_size) {
  std::vector<std::uint8_t> padded(detail::kSha256BlockBytes, 0);
  if (key_size > padded.size()) {
    const Sha256Digest reduced = sha256_via(body, key, key_size);
    std::copy(reduced.begin(), reduced.end(), padded.begin());
  } else {
    std::copy(key, key + key_size, padded.begin());
  }
  std::vector<std::uint8_t> inner;
  for (const std::uint8_t b : padded) inner.push_back(static_cast<std::uint8_t>(b ^ 0x36u));
  inner.insert(inner.end(), data, data + data_size);
  const Sha256Digest inner_digest = sha256_via(body, inner.data(), inner.size());
  std::vector<std::uint8_t> outer;
  for (const std::uint8_t b : padded) outer.push_back(static_cast<std::uint8_t>(b ^ 0x5cu));
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return sha256_via(body, outer.data(), outer.size());
}

/// sha256(message) as hex, after checking that every compression body
/// gives the same digest — so each vector below pins every body.
std::string sha_hex(const std::string& message) {
  const std::string dispatched = to_hex(sha256(message));
  for (const Body& body : bodies()) {
    EXPECT_EQ(to_hex(sha256_via(body.fn, bytes(message), message.size())), dispatched)
        << body.name;
  }
  return dispatched;
}

TEST(Sha256, EmptyInputVector) {
  EXPECT_EQ(sha_hex(std::string()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(sha_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  // FIPS 180-4 test vector: 448-bit message spanning the padding boundary.
  EXPECT_EQ(sha_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, QuickBrownFox) {
  EXPECT_EQ(sha_hex("The quick brown fox jumps over the lazy dog"),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256, MillionAs) {
  // FIPS 180-4 long-message vector.
  EXPECT_EQ(sha_hex(std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, PaddingBoundaryLengths) {
  // 55/56/63/64/65 bytes cross every padding branch; results must be stable
  // and distinct.
  std::vector<std::string> hashes;
  for (const std::size_t len : {55u, 56u, 63u, 64u, 65u}) {
    hashes.push_back(sha_hex(std::string(len, 'x')));
  }
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    for (std::size_t j = i + 1; j < hashes.size(); ++j) EXPECT_NE(hashes[i], hashes[j]);
  }
}

TEST(Sha256, Nist896BitVector) {
  // FIPS 180-4 four-block vector: the 896-bit message, the longest of the
  // standard byte-oriented test vectors.
  EXPECT_EQ(sha_hex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                    "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256, SingleBitChangeAvalanches) {
  std::vector<std::uint8_t> a(32, 0);
  std::vector<std::uint8_t> b = a;
  b[7] ^= 0x01;
  const auto da = sha256(a);
  const auto db = sha256(b);
  int differing_bits = 0;
  for (std::size_t i = 0; i < da.size(); ++i) {
    differing_bits += __builtin_popcount(static_cast<unsigned>(da[i] ^ db[i]));
  }
  EXPECT_GT(differing_bits, 90);   // ~128 expected of 256
  EXPECT_LT(differing_bits, 166);
}

// ------------------------------------------------------------- HMAC-SHA256
// RFC 4231 test cases 1-7. The protocol-v2 proof tag and nonce factory
// both stand on HmacKey, so the full vector set is pinned here, through
// hmac_sha256, HmacKey::tag and the RFC 2104 reference on every body.

std::string hmac_hex(const std::string& key, const std::string& data) {
  const std::string dispatched = to_hex(hmac_sha256(key, data));
  EXPECT_EQ(to_hex(HmacKey(bytes(key), key.size()).tag(bytes(data), data.size())), dispatched);
  for (const Body& body : bodies()) {
    EXPECT_EQ(to_hex(hmac_via(body.fn, bytes(key), key.size(), bytes(data), data.size())),
              dispatched)
        << body.name;
  }
  return dispatched;
}

TEST(HmacSha256, Rfc4231Case1) {
  EXPECT_EQ(hmac_hex(std::string(20, '\x0b'), "Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  // A key shorter than the digest size.
  EXPECT_EQ(hmac_hex("Jefe", "what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  EXPECT_EQ(hmac_hex(std::string(20, '\xaa'), std::string(50, '\xdd')),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case4) {
  std::string key;
  for (int b = 0x01; b <= 0x19; ++b) key.push_back(static_cast<char>(b));
  EXPECT_EQ(hmac_hex(key, std::string(50, '\xcd')),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacSha256, Rfc4231Case5Truncated) {
  // The RFC publishes only the first 128 bits of this case's output.
  EXPECT_EQ(hmac_hex(std::string(20, '\x0c'), "Test With Truncation").substr(0, 32),
            "a3b6167473100ee06e0c796c2955552b");
}

TEST(HmacSha256, Rfc4231Case6LargerThanBlockSizeKey) {
  // A 131-byte key exceeds the 64-byte SHA-256 block, so the RFC requires
  // hashing the key first — the branch this case exists to pin.
  EXPECT_EQ(hmac_hex(std::string(131, '\xaa'),
                     "Test Using Larger Than Block-Size Key - Hash Key First"),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, Rfc4231Case7LargerThanBlockSizeKeyAndData) {
  EXPECT_EQ(hmac_hex(std::string(131, '\xaa'),
                     "This is a test using a larger than block-size key and a "
                     "larger than block-size data. The key needs to be hashed "
                     "before being used by the HMAC algorithm."),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacSha256, PointerAndContainerOverloadsAgree) {
  const std::vector<std::uint8_t> key = {0x0b, 0x0b, 0x0b};
  const std::vector<std::uint8_t> data = {'H', 'i'};
  const Sha256Digest via_vectors = hmac_sha256(key, data);
  const Sha256Digest via_pointers =
      hmac_sha256(key.data(), key.size(), data.data(), data.size());
  EXPECT_EQ(to_hex(via_vectors), to_hex(via_pointers));
}

TEST(HmacSha256, EmptyKeyAndMessageAreDefined) {
  // HMAC with an empty key / empty message is well-defined; pin the value
  // so a refactor cannot silently change it.
  EXPECT_EQ(hmac_hex("", ""),
            "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
}

// -------------------------------------------------------- body parity

TEST(Sha256Compress, ShaNiMatchesPortableOnRandomStatesAndBlocks) {
  const detail::CompressFn sha_ni = detail::sha_ni_compress();
  if (sha_ni == nullptr) {
    GTEST_SKIP() << "this CPU lacks the SHA extensions (or the build is not x86-64): "
                    "only the portable body runs here";
  }
  Rng rng(0x5a4e1);
  std::uint8_t block[detail::kSha256BlockBytes];
  for (int trial = 0; trial < 20000; ++trial) {
    detail::Sha256State state{};
    for (std::uint32_t& word : state) word = static_cast<std::uint32_t>(rng.next_u64());
    for (std::uint8_t& b : block) b = static_cast<std::uint8_t>(rng.next_u64());
    detail::Sha256State portable = state;
    detail::compress_portable(portable, block);
    sha_ni(state, block);
    ASSERT_EQ(state, portable) << "trial " << trial;
  }
}

TEST(Sha256Compress, ActiveBodyIsShaNiExactlyWhenTheCpuHasIt) {
  const bool has_sha_ni = detail::sha_ni_compress() != nullptr;
  EXPECT_EQ(detail::active_compress() != &detail::compress_portable, has_sha_ni);
  EXPECT_STREQ(detail::active_compress_name(), has_sha_ni ? "sha-ni" : "portable");
}

TEST(Sha256Parity, HashAndHmacMatchThePortableReferenceOnRandomInputs) {
  // Messages of every length 0-300 cross the 55/56/64-byte padding edges
  // several times; keys of 0-130 bytes cross the hash-the-key-first path.
  Rng rng(0x9a217);
  std::vector<std::uint8_t> message(300);
  std::vector<std::uint8_t> key(130);
  for (std::size_t size = 0; size <= message.size(); ++size) {
    for (std::uint8_t& b : message) b = static_cast<std::uint8_t>(rng.next_u64());
    for (std::uint8_t& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
    const std::size_t key_size = static_cast<std::size_t>(rng.uniform_below(key.size() + 1));
    const std::uint8_t* m = message.data();
    const std::uint8_t* k = key.data();

    EXPECT_EQ(sha256(m, size), sha256_via(&detail::compress_portable, m, size))
        << "message " << size;
    const Sha256Digest reference =
        hmac_via(&detail::compress_portable, k, key_size, m, size);
    EXPECT_EQ(hmac_sha256(k, key_size, m, size), reference)
        << "message " << size << ", key " << key_size;
    EXPECT_EQ(HmacKey(k, key_size).tag(m, size), reference)
        << "message " << size << ", key " << key_size;
  }
  for (std::size_t key_size = 0; key_size <= key.size(); ++key_size) {
    for (std::uint8_t& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
    const std::size_t size = static_cast<std::size_t>(rng.uniform_below(message.size() + 1));
    EXPECT_EQ(HmacKey(key.data(), key_size).tag(message.data(), size),
              hmac_via(&detail::compress_portable, key.data(), key_size, message.data(), size))
        << "message " << size << ", key " << key_size;
  }
}

}  // namespace
}  // namespace ropuf::crypto
