// Binary wire primitives for the enrollment registry (see docs/registry.md).
//
// The registry file is a little-endian byte stream assembled from three
// CRC32-checked sections (header, device index, packed records). This header
// provides the pieces every producer and consumer shares:
//
//  * crc32 — the IEEE 802.3 polynomial (reflected, init/xorout 0xffffffff),
//    the same checksum zlib and PNG use, table-driven.
//  * ByteWriter / ByteReader — explicit little-endian packing, so a registry
//    written on any host loads on any other. No struct memcpy, no padding.
//  * FormatError — a ropuf::Error subclass tagged with *which* structural
//    defect was detected, so corruption tests (and operators) can tell a
//    truncated download from a bit-rotted index from a bad record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.h"

namespace ropuf::registry {

/// CRC32 (IEEE, reflected) of `size` bytes. `seed` chains incremental
/// updates: crc32(b, crc32(a)) == crc32(a + b).
std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0);

/// The structural defect a registry load can detect. Each maps to exactly
/// one check in the load path, so tests can assert the *right* check fired.
enum class Defect {
  kTruncated,    ///< file shorter than the structure it claims to hold
  kBadMagic,     ///< leading magic bytes are not "ROPUFREG"
  kBadVersion,   ///< format version this reader does not understand
  kHeaderCrc,    ///< header bytes fail their checksum
  kIndexCrc,     ///< device-index section fails its checksum
  kRecordsCrc,   ///< records section fails its checksum
  kBadIndex,     ///< index entries unsorted, duplicated, or out of bounds
  kBadRecord,    ///< a device record's payload is internally inconsistent
};

/// Stable human-readable name for a defect (used in error messages).
const char* defect_name(Defect defect);

/// Load-time failure tagged with the defect that was detected.
class FormatError : public Error {
 public:
  FormatError(Defect defect, const std::string& what)
      : Error(std::string("registry format error [") + defect_name(defect) + "]: " +
              what),
        defect_(defect) {}

  Defect defect() const { return defect_; }

 private:
  Defect defect_;
};

/// Appends little-endian scalars to a growing byte string.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// IEEE-754 doubles travel as their 64-bit pattern, so round-trips are
  /// bit-exact (including -0.0; the library never stores NaN margins).
  void f64(double v);
  void raw(std::string_view bytes) { bytes_.append(bytes); }

  std::size_t size() const { return bytes_.size(); }
  const std::string& bytes() const { return bytes_; }
  std::string take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

// --------------------------------------------------- sectioned container
//
// The base registry ("ROPUFREG", registry.h) and the append-only delta
// segments ("ROPUFDLT", epoch.h) share one container layout: a 68-byte
// header, a fixed-width device index sorted by id, and a records section,
// each CRC32-checked. The helpers below are the shared producer/consumer
// halves so the two formats cannot drift apart structurally.

/// Header byte count of every sectioned registry image.
inline constexpr std::size_t kHeaderBytes = 68;
/// Header bytes the header CRC covers (everything before the CRC itself).
inline constexpr std::size_t kHeaderCrcSpan = 64;
/// Bytes per index entry: u64 device id, u64 record offset, u64 record size.
inline constexpr std::size_t kIndexEntryBytes = 24;

/// Little-endian u64 at `offset`; the caller guarantees bounds (index reads
/// after validate_sections proved the geometry).
std::uint64_t read_u64_at(std::string_view bytes, std::size_t offset);

/// find_index_position's not-found answer.
inline constexpr std::size_t kIndexNpos = static_cast<std::size_t>(-1);

/// Binary search over a validated index of `count` entries at
/// `index_offset` (ids strictly ascending): the position of `device_id`,
/// or kIndexNpos.
std::size_t find_index_position(std::string_view bytes, std::size_t index_offset,
                                std::size_t count, std::uint64_t device_id);

/// The validated section geometry of an image (offsets relative to byte 0).
struct SectionGeometry {
  std::uint64_t device_count = 0;
  std::size_t index_offset = 0;
  std::size_t records_offset = 0;
  std::size_t records_size = 0;
  /// The version the file actually declares (<= the reader's version).
  std::uint32_t version = 0;
};

/// Validates a sectioned image end to end — magic, version, all three CRCs,
/// section geometry, index invariants (strictly ascending ids, every entry
/// inside the records section) — and returns the geometry. Throws
/// FormatError with the specific Defect otherwise. `version` is the newest
/// format this reader understands; older versions back to 1 are accepted
/// (the container layout is version-stable — only record payloads grew) and
/// reported in SectionGeometry::version. `allow_tombstones` admits size-0
/// index entries (delta tombstones, which must carry offset 0); the base
/// registry passes false, keeping its historical behavior of rejecting
/// nothing at the index level and failing such entries at decode.
SectionGeometry validate_sections(std::string_view view, std::string_view magic,
                                  std::uint32_t version, bool allow_tombstones);

/// The producer half of validate_sections: assembles header + index +
/// records with all three CRCs filled in. `device_count` must match the
/// index size (index.size() == device_count * kIndexEntryBytes).
std::string assemble_sections(std::string_view magic, std::uint32_t version,
                              std::uint64_t device_count, std::string_view index,
                              std::string_view records);

/// Reads little-endian scalars off a byte view; any read past the end
/// throws FormatError with the defect the caller is decoding under.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, Defect on_overrun)
      : bytes_(bytes), on_overrun_(on_overrun) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) const;

  std::string_view bytes_;
  Defect on_overrun_;
  std::size_t pos_ = 0;
};

}  // namespace ropuf::registry
