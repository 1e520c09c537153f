#include "registry/format.h"

#include <array>
#include <cstring>

namespace ropuf::registry {
namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::string_view bytes, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (const char byte : bytes) {
    c = table[(c ^ static_cast<std::uint8_t>(byte)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

const char* defect_name(Defect defect) {
  switch (defect) {
    case Defect::kTruncated: return "truncated";
    case Defect::kBadMagic: return "bad-magic";
    case Defect::kBadVersion: return "bad-version";
    case Defect::kHeaderCrc: return "header-crc";
    case Defect::kIndexCrc: return "index-crc";
    case Defect::kRecordsCrc: return "records-crc";
    case Defect::kBadIndex: return "bad-index";
    case Defect::kBadRecord: return "bad-record";
  }
  return "unknown";
}

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::f64(double v) {
  std::uint64_t pattern = 0;
  static_assert(sizeof(pattern) == sizeof(v));
  std::memcpy(&pattern, &v, sizeof(pattern));
  u64(pattern);
}

void ByteReader::need(std::size_t n) const {
  if (remaining() < n) {
    throw FormatError(on_overrun_, "read of " + std::to_string(n) +
                                       " bytes at offset " + std::to_string(pos_) +
                                       " overruns the " +
                                       std::to_string(bytes_.size()) + "-byte region");
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint16_t ByteReader::u16() {
  const std::uint16_t lo = u8();
  const std::uint16_t hi = u8();
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t ByteReader::u32() {
  const std::uint32_t lo = u16();
  const std::uint32_t hi = u16();
  return lo | (hi << 16);
}

std::uint64_t ByteReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

double ByteReader::f64() {
  const std::uint64_t pattern = u64();
  double v = 0.0;
  std::memcpy(&v, &pattern, sizeof(v));
  return v;
}

// ----------------------------------------------------- sectioned container

std::uint64_t read_u64_at(std::string_view bytes, std::size_t offset) {
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < 8; ++b) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[offset + b]))
         << (8 * b);
  }
  return v;
}

std::size_t find_index_position(std::string_view bytes, std::size_t index_offset,
                                std::size_t count, std::uint64_t device_id) {
  std::size_t lo = 0, hi = count;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::uint64_t mid_id = read_u64_at(bytes, index_offset + mid * kIndexEntryBytes);
    if (mid_id == device_id) return mid;
    if (mid_id < device_id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return kIndexNpos;
}

SectionGeometry validate_sections(std::string_view view, std::string_view magic,
                                  std::uint32_t version, bool allow_tombstones) {
  const std::string magic_name(magic);
  if (view.size() < magic.size()) {
    throw FormatError(Defect::kTruncated, "file is " + std::to_string(view.size()) +
                                              " bytes, shorter than the magic");
  }
  if (std::memcmp(view.data(), magic.data(), magic.size()) != 0) {
    throw FormatError(Defect::kBadMagic, "leading bytes are not " + magic_name);
  }
  if (view.size() < kHeaderBytes) {
    throw FormatError(Defect::kTruncated, "file is " + std::to_string(view.size()) +
                                              " bytes, shorter than the header");
  }
  ByteReader header(view.substr(0, kHeaderBytes), Defect::kTruncated);
  header.u64();  // magic, already checked
  const std::uint32_t file_version = header.u32();
  const std::uint32_t header_bytes = header.u32();
  if (file_version == 0 || file_version > version) {
    throw FormatError(Defect::kBadVersion,
                      "version " + std::to_string(file_version) +
                          ", this reader handles 1.." + std::to_string(version));
  }
  if (header_bytes != kHeaderBytes) {
    throw FormatError(Defect::kBadVersion,
                      "header claims " + std::to_string(header_bytes) +
                          " bytes, version " + std::to_string(version) + " defines " +
                          std::to_string(kHeaderBytes));
  }
  const std::uint64_t device_count = header.u64();
  const std::uint64_t index_offset = header.u64();
  const std::uint64_t index_size = header.u64();
  const std::uint64_t records_offset = header.u64();
  const std::uint64_t records_size = header.u64();
  const std::uint32_t index_crc = header.u32();
  const std::uint32_t records_crc = header.u32();
  const std::uint32_t header_crc = header.u32();
  if (header_crc != crc32(view.substr(0, kHeaderCrcSpan))) {
    throw FormatError(Defect::kHeaderCrc, "stored header checksum does not match");
  }

  // Section geometry. The header CRC already vouches for these fields, so a
  // mismatch here means the file body was cut or grew, not that a field bit
  // rotted. A CRC is no defense against a *crafted* header, though, so every
  // bound is checked against the actual view size before any derived
  // arithmetic: device_count is capped first, which makes the index_size
  // product and the records_offset sum provably non-wrapping in u64.
  if (index_offset != kHeaderBytes ||
      device_count > (view.size() - kHeaderBytes) / kIndexEntryBytes ||
      index_size != device_count * kIndexEntryBytes) {
    throw FormatError(Defect::kBadIndex, "index geometry inconsistent with header");
  }
  if (records_offset != index_offset + index_size) {
    throw FormatError(Defect::kBadIndex, "records section does not follow the index");
  }
  if (records_size != view.size() - records_offset) {
    throw FormatError(Defect::kTruncated,
                      "file is " + std::to_string(view.size()) + " bytes, header wants " +
                          std::to_string(records_size) + "-byte records at offset " +
                          std::to_string(records_offset));
  }
  if (index_crc != crc32(view.substr(index_offset, index_size))) {
    throw FormatError(Defect::kIndexCrc, "stored index checksum does not match");
  }
  if (records_crc != crc32(view.substr(records_offset, records_size))) {
    throw FormatError(Defect::kRecordsCrc, "stored records checksum does not match");
  }

  // Index invariants: strictly ascending ids, every entry inside the
  // records section. A tombstone (size 0) carries no payload, so its offset
  // must be 0 — a nonzero offset there means the entry bits rotted in a way
  // the CRCs cannot have missed, i.e. the file was crafted.
  std::uint64_t previous_id = 0;
  for (std::uint64_t i = 0; i < device_count; ++i) {
    const std::size_t entry = index_offset + i * kIndexEntryBytes;
    const std::uint64_t id = read_u64_at(view, entry);
    const std::uint64_t offset = read_u64_at(view, entry + 8);
    const std::uint64_t size = read_u64_at(view, entry + 16);
    if (i > 0 && id <= previous_id) {
      throw FormatError(Defect::kBadIndex, "device ids not strictly ascending");
    }
    previous_id = id;
    if (allow_tombstones && size == 0 && offset != 0) {
      throw FormatError(Defect::kBadIndex,
                        "tombstone entry " + std::to_string(i) + " carries an offset");
    }
    if (offset > records_size || size > records_size - offset) {
      throw FormatError(Defect::kBadIndex,
                        "index entry " + std::to_string(i) + " points outside records");
    }
  }

  SectionGeometry geometry;
  geometry.device_count = device_count;
  geometry.index_offset = static_cast<std::size_t>(index_offset);
  geometry.records_offset = static_cast<std::size_t>(records_offset);
  geometry.records_size = static_cast<std::size_t>(records_size);
  geometry.version = file_version;
  return geometry;
}

std::string assemble_sections(std::string_view magic, std::uint32_t version,
                              std::uint64_t device_count, std::string_view index,
                              std::string_view records) {
  ByteWriter header;
  header.raw(magic);
  header.u32(version);
  header.u32(static_cast<std::uint32_t>(kHeaderBytes));
  header.u64(device_count);
  header.u64(kHeaderBytes);
  header.u64(index.size());
  header.u64(kHeaderBytes + index.size());
  header.u64(records.size());
  header.u32(crc32(index));
  header.u32(crc32(records));
  header.u32(crc32(header.bytes()));  // over exactly the kHeaderCrcSpan bytes above

  std::string file = header.take();
  file += index;
  file += records;
  return file;
}

}  // namespace ropuf::registry
