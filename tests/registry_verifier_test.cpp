// Parity property for the verifier's record reader. read_verifier_fields
// skips the configuration columns, margins and helper data that
// decode_enrollment_record materializes, so it must still reject exactly the
// payloads the reference decoder rejects, and on every other payload yield
// the decoded response and auth material bit for bit (hence the same v2
// key). The sweep covers every record of minted fleets in both selection
// cases, with and without helper data and auth tails, plus truncations,
// seeded byte flips and hand-crafted defects. A last case pins the snapshot
// payload lookup against the decoding one across deltas and tombstones.
#include "registry/registry.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "auth/auth.h"
#include "common/rng.h"
#include "registry/epoch.h"
#include "registry/format.h"

namespace ropuf::registry {
namespace {

std::string encode(const puf::ConfigurableEnrollment& enrollment) {
  ByteWriter writer;
  encode_enrollment_record(writer, enrollment);
  return writer.take();
}

/// One labelled record payload.
struct Payload {
  std::string label;
  std::string bytes;
  std::size_t stages = 0;
  std::size_t pairs = 0;
  bool has_helper = false;
  bool has_auth = false;
};

/// Every record of small minted fleets (both selection cases, pair counts
/// on both sides of each auth code's threshold and of a 64-bit word), each
/// in four variants: as minted (v2, auth tail), with helper data added, with
/// the auth tail stripped (a format-v1 record), and with both changes.
std::vector<Payload> fleet_payloads() {
  std::vector<Payload> payloads;
  Rng helper_rng(0x4e1de2);
  for (const puf::SelectionCase mode :
       {puf::SelectionCase::kSameConfig, puf::SelectionCase::kIndependent}) {
    for (const std::size_t pairs : {2u, 5u, 16u, 31u, 70u}) {
      FleetSpec spec;
      spec.devices = 4;
      spec.stages = pairs > 64 ? 2 : 3 + pairs % 4;
      spec.pairs = pairs;
      spec.mode = mode;
      spec.seed = 0x51de + pairs;
      for (const DeviceRecord& record : mint_fleet(spec)) {
        for (const bool with_helper : {false, true}) {
          for (const bool with_auth : {true, false}) {
            puf::ConfigurableEnrollment e = record.enrollment;
            if (with_helper) {
              e.helper.resize(pairs);
              for (puf::PairHelperData& h : e.helper) {
                h = puf::PairHelperData{helper_rng.gaussian(0.0, 3.0),
                                        helper_rng.uniform() < 0.3};
              }
            }
            if (!with_auth) {
              e.auth_code_id = auth::kCodeNone;
              e.auth_helper.clear();
              e.auth_key_check.fill(0);
            }
            payloads.push_back(Payload{
                "device " + std::to_string(record.device_id) + " pairs " +
                    std::to_string(pairs) + (with_helper ? " +helper" : "") +
                    (e.has_auth() ? " +auth" : ""),
                encode(e), spec.stages, pairs, with_helper, e.has_auth()});
          }
        }
      }
    }
  }
  return payloads;
}

/// Reader against reference on one payload: both throw FormatError
/// (kBadRecord), or neither does and the reader's fields equal the decoded
/// enrollment's. Any other exception escapes and fails the test.
/// Returns whether the payload was accepted.
bool expect_parity(std::string_view payload, const std::string& label) {
  std::optional<puf::ConfigurableEnrollment> decoded;
  try {
    decoded = decode_enrollment_record(payload);
  } catch (const FormatError& error) {
    EXPECT_EQ(error.defect(), Defect::kBadRecord) << label;
  }
  std::optional<VerifierFields> read;
  try {
    read = read_verifier_fields(payload);
  } catch (const FormatError& error) {
    EXPECT_EQ(error.defect(), Defect::kBadRecord) << label;
  }
  EXPECT_EQ(read.has_value(), decoded.has_value())
      << label << ": the reader " << (read ? "accepts" : "rejects")
      << " a payload the reference decoder "
      << (decoded ? "accepts" : "rejects");
  if (!read.has_value() || !decoded.has_value()) return false;
  EXPECT_EQ(read->response, decoded->response()) << label;
  EXPECT_EQ(read->auth.code_id, decoded->auth_code_id) << label;
  EXPECT_EQ(read->auth.helper, decoded->auth_helper) << label;
  EXPECT_EQ(read->auth.key_check, decoded->auth_key_check) << label;
  EXPECT_EQ(read->auth.provisioned(), decoded->has_auth()) << label;
  EXPECT_EQ(auth::derive_key(read->response, read->auth),
            auth::derive_enrollment_key(*decoded))
      << label;
  return true;
}

// Column offsets of the payload layout (docs/registry.md), for crafting.
std::size_t words(std::size_t bits) { return (bits + 63) / 64; }
std::size_t margins_offset(const Payload& p) {
  return 16 + 2 * words(p.pairs * p.stages) * 8 + words(p.pairs) * 8 +
         (p.has_helper ? words(p.pairs) * 8 : 0);
}
std::size_t auth_offset(const Payload& p) {
  return margins_offset(p) + p.pairs * 8 * (p.has_helper ? 2 : 1);
}

void poke_f64(std::string& bytes, std::size_t offset, double value) {
  std::uint64_t pattern = 0;
  std::memcpy(&pattern, &value, sizeof(pattern));
  for (std::size_t b = 0; b < 8; ++b) {
    bytes[offset + b] = static_cast<char>((pattern >> (8 * b)) & 0xff);
  }
}

void poke_u16(std::string& bytes, std::size_t offset, std::uint16_t value) {
  bytes[offset] = static_cast<char>(value & 0xff);
  bytes[offset + 1] = static_cast<char>(value >> 8);
}

/// The first payload with the given shape.
const Payload& first_with(const std::vector<Payload>& payloads, bool helper, bool auth) {
  for (const Payload& p : payloads) {
    if (p.has_helper == helper && p.has_auth == auth) return p;
  }
  throw std::runtime_error("no payload of the requested shape");
}

TEST(VerifierReader, EveryMintedRecordReadsLikeItsDecode) {
  const std::vector<Payload> payloads = fleet_payloads();
  std::size_t with_auth = 0, with_helper = 0, unprovisioned_keys = 0;
  for (const Payload& p : payloads) {
    ASSERT_TRUE(expect_parity(p.bytes, p.label));
    with_auth += p.has_auth ? 1 : 0;
    with_helper += p.has_helper ? 1 : 0;
    const VerifierFields fields = read_verifier_fields(p.bytes);
    if (!auth::derive_key(fields.response, fields.auth).has_value()) ++unprovisioned_keys;
  }
  // The sweep really covers each shape: v1 and v2 records, with and without
  // helper data; a v2 record's key derives, a v1 record's does not.
  EXPECT_GT(with_auth, 0u);
  EXPECT_LT(with_auth, payloads.size());
  EXPECT_EQ(with_helper, payloads.size() / 2);
  EXPECT_EQ(unprovisioned_keys, payloads.size() - with_auth);
}

TEST(VerifierReader, EveryTruncationIsRejectedByBoth) {
  const std::vector<Payload> payloads = fleet_payloads();
  for (const bool helper : {false, true}) {
    for (const bool auth : {false, true}) {
      const Payload& p = first_with(payloads, helper, auth);
      for (std::size_t length = 0; length < p.bytes.size(); ++length) {
        const std::string_view cut(p.bytes.data(), length);
        EXPECT_FALSE(expect_parity(cut, p.label + " cut to " + std::to_string(length)));
      }
    }
  }
}

TEST(VerifierReader, SeededByteFlipsKeepParity) {
  const std::vector<Payload> payloads = fleet_payloads();
  Rng rng(0xf11b5);
  std::size_t accepted = 0, rejected = 0;
  for (std::size_t trial = 0; trial < 6000; ++trial) {
    const Payload& p = payloads[rng.uniform_below(payloads.size())];
    std::string bytes = p.bytes;
    const std::size_t offset = rng.uniform_below(bytes.size());
    const auto mask = static_cast<char>(1 + rng.uniform_below(255));
    bytes[offset] = static_cast<char>(bytes[offset] ^ mask);
    if (expect_parity(bytes, p.label + " flip at " + std::to_string(offset))) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // Flips land in checked fields and in free bit columns alike.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(VerifierReader, CraftedDefectsAreRejectedByBoth) {
  const std::vector<Payload> payloads = fleet_payloads();
  const Payload& v2 = first_with(payloads, /*helper=*/true, /*auth=*/true);
  const Payload& v1 = first_with(payloads, /*helper=*/false, /*auth=*/false);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t tail = auth_offset(v2);

  struct Craft {
    std::string label;
    std::string bytes;
  };
  std::vector<Craft> crafts;
  const auto craft = [&](const std::string& label, const Payload& base,
                         auto&& tamper) {
    std::string bytes = base.bytes;
    tamper(bytes);
    crafts.push_back(Craft{label, std::move(bytes)});
  };
  craft("mode byte 2", v2, [](std::string& b) { b[0] = 2; });
  craft("helper flag 2", v2, [](std::string& b) { b[1] = 2; });
  craft("unknown flag bit", v2, [](std::string& b) { poke_u16(b, 2, 0x3); });
  craft("unknown flag bit on v1", v1, [](std::string& b) { poke_u16(b, 2, 0x8000); });
  craft("auth flag without a tail", v1, [](std::string& b) { poke_u16(b, 2, 0x1); });
  craft("zero stages", v2, [](std::string& b) { std::memset(&b[4], 0, 4); });
  craft("zero pairs", v2, [](std::string& b) { std::memset(&b[8], 0, 4); });
  craft("pairs past the bound", v2, [](std::string& b) { b[11] = 0x7f; });
  craft("NaN margin", v2,
        [&](std::string& b) { poke_f64(b, margins_offset(v2) + 8, nan); });
  craft("NaN margin on v1", v1,
        [&](std::string& b) { poke_f64(b, margins_offset(v1), nan); });
  craft("infinite helper offset", v2, [&](std::string& b) {
    poke_f64(b, margins_offset(v2) + v2.pairs * 8, -inf);
  });
  craft("auth code id 0", v2, [&](std::string& b) { b[tail] = 0; });
  craft("zero helper blocks", v2, [&](std::string& b) { b[tail + 1] = 0; });
  craft("zero block width", v2, [&](std::string& b) { poke_u16(b, tail + 2, 0); });
  craft("blocks wider than the pairs", v2, [&](std::string& b) {
    poke_u16(b, tail + 2, static_cast<std::uint16_t>(v2.pairs + 1));
  });
  craft("block count past the pairs", v2,
        [&](std::string& b) { b[tail + 1] = static_cast<char>(v2.pairs); });
  craft("short auth tail", v2, [](std::string& b) { b.pop_back(); });
  craft("long auth tail", v2, [](std::string& b) { b.push_back('\0'); });
  craft("trailing byte on v1", v1, [](std::string& b) { b.push_back('\0'); });
  for (const Craft& c : crafts) {
    EXPECT_FALSE(expect_parity(c.bytes, c.label)) << c.label << " was accepted";
  }

  // An unregistered code id is a well-formed record whose key cannot
  // derive: both readers accept it, and the key is disengaged either way.
  std::string unknown_code = v2.bytes;
  unknown_code[tail] = 9;
  ASSERT_TRUE(expect_parity(unknown_code, "unknown code id"));
  const VerifierFields fields = read_verifier_fields(unknown_code);
  EXPECT_FALSE(auth::derive_key(fields.response, fields.auth).has_value());
}

TEST(SnapshotPayloadLookup, ResolvesLikeTheDecodingLookup) {
  // Base {1, 2, 3}; delta 1 replaces 2 and adds 4; delta 2 retires 3 and
  // replaces 4 again. The payload lookup must pick the same winner (or the
  // same absence) as find for every id, including one never enrolled.
  const auto enrollment = [](std::uint64_t seed) {
    FleetSpec spec;
    spec.devices = 1;
    spec.pairs = 16;
    spec.seed = seed;
    return mint_fleet(spec).front().enrollment;
  };
  RegistryBuilder base;
  for (std::uint64_t id = 1; id <= 3; ++id) base.add(id, enrollment(id));
  DeltaBuilder first;
  first.upsert(2, enrollment(20));
  first.upsert(4, enrollment(40));
  DeltaBuilder second;
  second.retire(3);
  second.upsert(4, enrollment(41));
  const RegistrySnapshot snapshot(
      3, Registry::from_bytes(base.build()),
      {DeltaSegment::from_bytes(first.build()), DeltaSegment::from_bytes(second.build())});

  for (std::uint64_t id = 1; id <= 5; ++id) {
    const std::optional<std::string_view> payload = snapshot.find_payload(id);
    const std::optional<puf::ConfigurableEnrollment> found = snapshot.find(id);
    ASSERT_EQ(payload.has_value(), found.has_value()) << "id " << id;
    EXPECT_EQ(payload.has_value(), snapshot.contains(id)) << "id " << id;
    if (payload.has_value()) {
      EXPECT_EQ(read_verifier_fields(*payload).response, found->response()) << "id " << id;
    }
  }
  EXPECT_EQ(snapshot.find(2)->response(), enrollment(20).response());
  EXPECT_EQ(snapshot.find(4)->response(), enrollment(41).response());
  EXPECT_FALSE(snapshot.find_payload(3).has_value());
}

}  // namespace
}  // namespace ropuf::registry
