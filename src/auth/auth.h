// Cryptographic session authentication for protocol v2 (docs/protocol_v2.md).
//
// v1 verdicts are raw Hamming comparisons, which makes the verifier a
// distance oracle (attack/harvest.h mines it bit-for-bit). v2 removes the
// response bits from the wire entirely:
//
//   enrollment   provision_auth() runs the code-offset fuzzy extractor's
//                Gen on the enrollment response: per-device public helper
//                blocks + a derived key. The registry record carries the
//                helper and SHA-256(key) (a key check value) — never the
//                key itself.
//   server       derive_key() re-runs Rep on the *clean* enrollment
//                response (zero errors, exact recovery) and cross-checks
//                the KCV, so corrupt helper material surfaces as a
//                detectable failure instead of a garbage key.
//   prover       recover_key() runs Rep on the noisy re-measurement; within
//                the code's correction radius the same key comes back.
//   exchange     the server sends a fresh nonce; the prover returns
//                HMAC(key, nonce || request_id || device_id); the server
//                compares in constant time. Replays fail because the
//                server-side session is consumed on first use; harvested
//                CRPs are useless because no response bits ever travel.
//
// The code table maps a device's enrolled pair count to the strongest
// standard code whose single block fits: BCH(15,7) down to repetition(3).
// Codes are constructed once per process and shared (construction builds
// the syndrome table; instances are immutable and thread-safe).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"
#include "crypto/cyclic_code.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "puf/schemes.h"

namespace ropuf::auth {

/// 16-byte server nonce carried by the kAuthChallenge frame.
using Nonce = std::array<std::uint8_t, 16>;
/// 32-byte HMAC-SHA256 tag carried by the kAuthProof frame.
using Tag = std::array<std::uint8_t, 32>;

/// Registered auth code identifiers (record field `auth_code_id`).
/// 0 means unprovisioned; unknown ids are a record defect.
inline constexpr std::uint8_t kCodeNone = 0;
inline constexpr std::uint8_t kCodeRepetition3 = 1;
inline constexpr std::uint8_t kCodeRepetition5 = 2;
inline constexpr std::uint8_t kCodeHamming74 = 3;
inline constexpr std::uint8_t kCodeBch157 = 4;

/// The shared instance for a code id; nullptr for kCodeNone or an unknown
/// id (callers map that to their corrupt-record verdict).
const crypto::CyclicCode* code_for_id(std::uint8_t code_id);

/// Strongest code whose block fits `pair_count` response bits: BCH(15,7)
/// at >= 15 pairs, Hamming(7,4) at >= 7, repetition(5)/(3) below, kCodeNone
/// when even 3 bits are unavailable.
std::uint8_t code_id_for_pairs(std::size_t pair_count);

/// Runs fuzzy-extractor Gen over the enrollment response and stores the
/// helper blocks, code id and key check value on the enrollment. Devices
/// too small for any code (< 3 pairs) are left unprovisioned. `rng` drives
/// the per-block random messages; minting forks one independent stream per
/// device so existing fleet streams stay bit-identical.
void provision_auth(puf::ConfigurableEnrollment& enrollment, Rng& rng);

/// A record's at-rest v2 auth material, exactly as the registry stores it
/// (docs/registry.md): the code id, the helper blocks and the key check
/// value. Verifier records keep this much of an enrollment and derive the
/// key from it only when a v2 proof first needs one.
struct AuthMaterial {
  std::uint8_t code_id = kCodeNone;
  std::vector<BitVec> helper;
  std::array<std::uint8_t, 32> key_check{};

  /// Whether the record carries v2 auth material.
  bool provisioned() const { return !helper.empty(); }
  /// Response bits the helper blocks cover (block count x block width).
  std::size_t covered_bits() const {
    return helper.empty() ? 0 : helper.size() * helper.front().size();
  }
};

/// Server-side key derivation: Rep over the clean enrollment response plus
/// the stored helper, cross-checked against the key check value. nullopt
/// when the material is unprovisioned, the code id is unknown, the helper
/// geometry is inconsistent, or the KCV does not match — all of which a
/// verifier reports as a corrupt record.
std::optional<crypto::Sha256Digest> derive_key(const BitVec& response,
                                               const AuthMaterial& material);

/// derive_key over an enrollment's response and auth fields.
std::optional<crypto::Sha256Digest> derive_enrollment_key(
    const puf::ConfigurableEnrollment& enrollment);

/// Prover-side key recovery: Rep over a noisy re-measurement of the
/// enrolled response. nullopt when any block decodes outside the code's
/// radius (the prover then cannot produce a valid tag — fails closed).
std::optional<crypto::Sha256Digest> recover_key(
    const BitVec& noisy_response, const puf::ConfigurableEnrollment& enrollment);

/// HMAC(key, nonce || request_id || device_id), ids little-endian.
Tag prove(const crypto::HmacKey& key, const Nonce& nonce, std::uint64_t request_id,
          std::uint64_t device_id);
/// prove() under a raw key (keys its HMAC states per call).
Tag prove(const crypto::Sha256Digest& key, const Nonce& nonce,
          std::uint64_t request_id, std::uint64_t device_id);

/// Constant-time tag comparison (no early-out on the first differing byte).
bool verify_tag(const crypto::HmacKey& key, const Nonce& nonce, std::uint64_t request_id,
                std::uint64_t device_id, const Tag& tag);
/// verify_tag() under a raw key.
bool verify_tag(const crypto::Sha256Digest& key, const Nonce& nonce,
                std::uint64_t request_id, std::uint64_t device_id,
                const Tag& tag);

/// Branch-free byte-string equality.
bool constant_time_equal(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t size);

/// Challenge-nonce source: nonce = first 16 bytes of
/// HMAC(K, counter || device_id || request_id) over an atomic counter, so
/// every challenge from one factory is fresh (replays fail). The counter
/// starts at 0 in every process, so K decides whether two processes repeat
/// each other: the default constructor draws K from the kernel, which keeps
/// a proof recorded against one server lifetime from answering the next;
/// a fixed seed makes test transcripts reproducible. Verdicts never depend
/// on nonce *values* — a recovered key MACs any nonce correctly — which is
/// what keeps online digests parity-comparable across shard placements and
/// thread budgets.
class NonceFactory {
 public:
  /// K = 32 bytes from getrandom(2); throws when the kernel cannot supply them.
  NonceFactory();
  /// Deterministic stream: K = SHA-256(seed, 8 bytes little-endian).
  explicit NonceFactory(std::uint64_t seed);

  /// Thread-safe; each call consumes one counter value.
  Nonce next(std::uint64_t device_id, std::uint64_t request_id);

 private:
  explicit NonceFactory(const crypto::Sha256Digest& key) : key_(key) {}

  crypto::HmacKey key_;
  std::atomic<std::uint64_t> counter_{0};
};

}  // namespace ropuf::auth
