#include "crypto/sha256.h"

#include <cstring>

#include "crypto/sha256_compress.h"

// The SHA-NI body needs x86-64 and GCC/Clang's target attribute.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ROPUF_SHA256_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace ropuf::crypto {
namespace detail {
namespace {

constexpr std::uint32_t kRoundConstants[64] = {
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

inline std::uint32_t rotr(std::uint32_t x, int k) { return (x >> k) | (x << (32 - k)); }

#ifdef ROPUF_SHA256_SHA_NI

// Byte order within each 32-bit lane: SHA-256 words are big-endian.
__attribute__((target("sha,sse4.1"))) inline __m128i load_be(const std::uint8_t* p) {
  const __m128i swap = _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), swap);
}

// The SHA-NI body. sha256rnds2 runs two rounds on the state split into
// (A,B,E,F) and (C,D,G,H) halves; each 4-word group of the schedule is
// W[j] = msg2(msg1(W[j-4], W[j-3]) + (W[j-2]:W[j-1] >> 1 word), W[j-1]).
__attribute__((target("sha,sse4.1"))) void compress_sha_ni_body(Sha256State& state,
                                                                 const std::uint8_t* block) {
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  __m128i w[4];
#pragma GCC unroll 16
  for (int j = 0; j < 16; ++j) {
    __m128i& group = w[j & 3];
    if (j < 4) {
      group = load_be(block + 16 * j);
    } else {
      const __m128i prev = w[(j + 3) & 3];
      const __m128i shifted = _mm_alignr_epi8(prev, w[(j + 2) & 3], 4);
      group = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(group, w[(j + 1) & 3]), shifted), prev);
    }
    __m128i wk = _mm_add_epi32(
        group, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * j])));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    wk = _mm_shuffle_epi32(wk, 0x0e);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return sse41 && (ebx & bit_SHA) != 0;
}

#endif

}  // namespace

void compress_portable(Sha256State& h, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) | (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) | std::uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
  std::uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = hh + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    hh = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
  h[5] += f;
  h[6] += g;
  h[7] += hh;
}

CompressFn sha_ni_compress() {
#ifdef ROPUF_SHA256_SHA_NI
  static const bool available = cpu_has_sha_ni();
  return available ? &compress_sha_ni_body : nullptr;
#else
  return nullptr;
#endif
}

CompressFn active_compress() {
  static const CompressFn body = [] {
    const CompressFn sha_ni = sha_ni_compress();
    return sha_ni != nullptr ? sha_ni : &compress_portable;
  }();
  return body;
}

const char* active_compress_name() {
  return active_compress() == &compress_portable ? "portable" : "sha-ni";
}

Sha256Digest finish(Sha256State state, std::uint64_t absorbed, const std::uint8_t* data,
                    std::size_t size, CompressFn body) {
  std::size_t offset = 0;
  while (size - offset >= kSha256BlockBytes) {
    body(state, data + offset);
    offset += kSha256BlockBytes;
  }

  // Final padding: 0x80, zeros, 64-bit big-endian bit length.
  std::uint8_t tail[2 * kSha256BlockBytes];
  const std::size_t rem = size - offset;
  const std::size_t tail_len = (rem < 56) ? kSha256BlockBytes : 2 * kSha256BlockBytes;
  if (rem > 0) std::memcpy(tail, data + offset, rem);
  tail[rem] = 0x80;
  std::memset(tail + rem + 1, 0, tail_len - 8 - rem - 1);
  const std::uint64_t bit_len =
      __builtin_bswap64((absorbed + static_cast<std::uint64_t>(size)) * 8);
  std::memcpy(tail + tail_len - 8, &bit_len, 8);
  body(state, tail);
  if (tail_len > kSha256BlockBytes) body(state, tail + kSha256BlockBytes);

  Sha256Digest digest;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint32_t word = __builtin_bswap32(state[i]);
    std::memcpy(digest.data() + 4 * i, &word, 4);
  }
  return digest;
}

}  // namespace detail

Sha256Digest sha256(const std::uint8_t* data, std::size_t size) {
  return detail::finish(detail::kSha256Init, 0, data, size, detail::active_compress());
}

Sha256Digest sha256(const std::vector<std::uint8_t>& data) {
  return sha256(data.data(), data.size());
}

Sha256Digest sha256(const std::string& data) {
  return sha256(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
}

std::string to_hex(const Sha256Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

}  // namespace ropuf::crypto
