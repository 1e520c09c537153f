#include "registry/registry.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "auth/auth.h"
#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "puf/measurement.h"
#include "silicon/environment.h"

#if defined(__unix__) || defined(__APPLE__)
#define ROPUF_REGISTRY_HAVE_MMAP 1
#include <sys/mman.h>
#include <sys/stat.h>
#endif

namespace ropuf::registry {
namespace {

// ------------------------------------------------------------- file layout
//
//   [0,8)    magic "ROPUFREG"
//   [8,12)   u32 format version
//   [12,16)  u32 header byte count (kHeaderBytes)
//   [16,24)  u64 device count
//   [24,32)  u64 index offset          [32,40)  u64 index size
//   [40,48)  u64 records offset        [48,56)  u64 records size
//   [56,60)  u32 index CRC32           [60,64)  u32 records CRC32
//   [64,68)  u32 header CRC32 (over bytes [0,64))
//
// followed by the index (kIndexEntryBytes per device, sorted by id) and the
// records section. See docs/registry.md for the record payload layout.

constexpr char kMagic[8] = {'R', 'O', 'P', 'U', 'F', 'R', 'E', 'G'};

// Record flags (the u16 at payload offset 2, reserved-as-zero in v1).
// Unknown bits are a kBadRecord defect so future flags cannot be silently
// ignored by old readers that happen to accept the container version.
constexpr std::uint16_t kFlagHasAuth = 0x1;

// Decode-time sanity bounds: far above any real board, low enough that a
// corrupt size field cannot drive a huge allocation before the payload-size
// cross-check rejects it.
constexpr std::size_t kMaxStages = 1u << 12;
constexpr std::size_t kMaxPairs = 1u << 24;

/// Streams bits LSB-first into whole u64 words; each column is flushed to a
/// word boundary so columns stay independently addressable.
class BitPacker {
 public:
  explicit BitPacker(ByteWriter& writer) : writer_(writer) {}
  void push(bool bit) {
    word_ |= static_cast<std::uint64_t>(bit) << used_;
    if (++used_ == 64) flush();
  }
  void flush() {
    if (used_ == 0) return;
    writer_.u64(word_);
    word_ = 0;
    used_ = 0;
  }

 private:
  ByteWriter& writer_;
  std::uint64_t word_ = 0;
  unsigned used_ = 0;
};

/// Mirror of BitPacker: pulls bits off word-aligned columns.
class BitUnpacker {
 public:
  explicit BitUnpacker(ByteReader& reader) : reader_(reader) {}
  bool pull() {
    if (avail_ == 0) {
      word_ = reader_.u64();
      avail_ = 64;
    }
    const bool bit = (word_ & 1u) != 0;
    word_ >>= 1;
    --avail_;
    return bit;
  }
  void align() {
    word_ = 0;
    avail_ = 0;
  }

 private:
  ByteReader& reader_;
  std::uint64_t word_ = 0;
  unsigned avail_ = 0;
};

std::size_t bit_words(std::size_t bits) { return (bits + 63) / 64; }

/// Exact payload size of a record's v1 columns, the decoder's first
/// integrity check. The v2 auth tail (if flagged) follows these bytes and
/// is sized from its own geometry fields.
std::size_t record_payload_bytes(std::size_t stages, std::size_t pairs,
                                 bool has_helper) {
  const std::size_t config_bits = pairs * stages;
  std::size_t bytes = 16;                            // fixed prefix
  bytes += 2 * bit_words(config_bits) * 8;           // top + bottom configs
  bytes += bit_words(pairs) * 8;                     // response bits
  if (has_helper) bytes += bit_words(pairs) * 8;     // dark-bit mask
  bytes += pairs * 8;                                // margins
  if (has_helper) bytes += pairs * 8;                // helper offsets
  return bytes;
}

/// Byte size of the v2 auth tail: geometry prefix, word-aligned helper
/// blocks, 32-byte key check value.
std::size_t auth_tail_bytes(std::size_t block_count, std::size_t block_bits) {
  return 4 + block_count * bit_words(block_bits) * 8 + 32;
}

FormatError bad_record(const std::string& what) {
  return FormatError(Defect::kBadRecord, what);
}

/// A record's checked 16-byte prefix.
struct RecordPrefix {
  std::uint8_t mode = 0;
  bool has_helper = false;
  bool has_auth = false;
  std::size_t stages = 0;
  std::size_t pairs = 0;
};

/// Reads the prefix off `reader` and checks everything it fixes: mode byte,
/// helper flag, flag bits, stage and pair bounds, and the payload size
/// (exactly the v1 columns, or at least them when an auth tail follows).
/// Both record readers start here, so they agree on every column offset.
RecordPrefix read_record_prefix(ByteReader& reader, std::size_t payload_size) {
  const std::uint8_t mode = reader.u8();
  const std::uint8_t helper_flag = reader.u8();
  const std::uint16_t flags = reader.u16();
  const std::uint32_t stages = reader.u32();
  const std::uint32_t pairs = reader.u32();
  reader.u32();  // reserved

  if (mode > 1) throw bad_record("mode byte must be 0 (case1) or 1 (case2)");
  if (helper_flag > 1) throw bad_record("helper flag must be 0 or 1");
  if ((flags & ~kFlagHasAuth) != 0) {
    throw bad_record("unknown record flag bits 0x" + std::to_string(flags));
  }
  if (stages == 0 || stages > kMaxStages) throw bad_record("implausible stage count");
  if (pairs == 0 || pairs > kMaxPairs) throw bad_record("implausible pair count");
  RecordPrefix prefix{mode, helper_flag == 1, (flags & kFlagHasAuth) != 0, stages, pairs};
  const std::size_t base_bytes = record_payload_bytes(stages, pairs, prefix.has_helper);
  if (prefix.has_auth ? payload_size < base_bytes : payload_size != base_bytes) {
    throw bad_record("payload is " + std::to_string(payload_size) + " bytes, layout " +
                     std::to_string(stages) + "x" + std::to_string(pairs) + " needs " +
                     std::to_string(base_bytes) +
                     (prefix.has_auth ? " plus an auth tail" : ""));
  }
  return prefix;
}

/// One word-aligned bit column of `bits` bits.
BitVec read_bit_column(ByteReader& reader, std::size_t bits) {
  BitUnpacker unpacker(reader);
  BitVec column(bits);
  for (std::size_t b = 0; b < bits; ++b) column.set(b, unpacker.pull());
  return column;
}

/// One f64 that must be finite (margins and helper offsets).
double read_finite(ByteReader& reader, const char* what) {
  const double value = reader.f64();
  if (!std::isfinite(value)) throw bad_record(what);
  return value;
}

/// The v2 auth tail after the v1 columns: geometry checked against the
/// enrolled pair count and against the bytes left, then the helper blocks
/// and the key check value.
auth::AuthMaterial read_auth_tail(ByteReader& reader, std::size_t pairs) {
  auth::AuthMaterial material;
  material.code_id = reader.u8();
  const std::uint8_t block_count = reader.u8();
  const std::uint16_t block_bits = reader.u16();
  if (material.code_id == 0) throw bad_record("auth flag set with code id 0");
  if (block_count == 0 || block_bits == 0) {
    throw bad_record("implausible auth helper geometry");
  }
  if (static_cast<std::size_t>(block_count) * block_bits > pairs) {
    throw bad_record("auth helper wider than the enrolled response");
  }
  const std::size_t tail_bytes = auth_tail_bytes(block_count, block_bits) - 4;
  if (reader.remaining() != tail_bytes) {
    throw bad_record("auth tail is " + std::to_string(reader.remaining()) +
                     " bytes past its geometry, " + std::to_string(block_count) + "x" +
                     std::to_string(block_bits) + " needs " + std::to_string(tail_bytes));
  }
  material.helper.reserve(block_count);
  for (std::size_t b = 0; b < block_count; ++b) {
    material.helper.push_back(read_bit_column(reader, block_bits));
  }
  for (std::uint8_t& byte : material.key_check) byte = reader.u8();
  return material;
}

}  // namespace

void encode_enrollment_record(ByteWriter& writer,
                              const puf::ConfigurableEnrollment& e) {
  const std::size_t stages = e.layout.stages;
  const std::size_t pairs = e.layout.pair_count;
  const bool has_helper = !e.helper.empty();
  const bool has_auth = e.has_auth();
  writer.u8(e.mode == puf::SelectionCase::kSameConfig ? 0 : 1);
  writer.u8(has_helper ? 1 : 0);
  writer.u16(has_auth ? kFlagHasAuth : 0);
  writer.u32(static_cast<std::uint32_t>(stages));
  writer.u32(static_cast<std::uint32_t>(pairs));
  writer.u32(0);

  BitPacker packer(writer);
  for (const puf::Selection& sel : e.selections) {
    for (std::size_t s = 0; s < stages; ++s) packer.push(sel.top_config.get(s));
  }
  packer.flush();
  for (const puf::Selection& sel : e.selections) {
    for (std::size_t s = 0; s < stages; ++s) packer.push(sel.bottom_config.get(s));
  }
  packer.flush();
  for (const puf::Selection& sel : e.selections) packer.push(sel.bit);
  packer.flush();
  if (has_helper) {
    for (const puf::PairHelperData& h : e.helper) packer.push(h.masked);
    packer.flush();
  }
  for (const puf::Selection& sel : e.selections) writer.f64(sel.margin);
  if (has_helper) {
    for (const puf::PairHelperData& h : e.helper) writer.f64(h.offset_ps);
  }
  if (has_auth) {
    const std::size_t block_bits = e.auth_helper.front().size();
    writer.u8(e.auth_code_id);
    writer.u8(static_cast<std::uint8_t>(e.auth_helper.size()));
    writer.u16(static_cast<std::uint16_t>(block_bits));
    BitPacker helper_packer(writer);
    for (const BitVec& block : e.auth_helper) {
      for (std::size_t b = 0; b < block.size(); ++b) helper_packer.push(block.get(b));
      helper_packer.flush();  // each block word-aligned, like every column
    }
    for (const std::uint8_t byte : e.auth_key_check) writer.u8(byte);
  }
}

puf::ConfigurableEnrollment decode_enrollment_record(std::string_view payload) {
  static obs::Counter& decoded =
      obs::Registry::instance().counter("registry.records_decoded");
  decoded.add(1);

  ByteReader reader(payload, Defect::kBadRecord);
  const RecordPrefix prefix = read_record_prefix(reader, payload.size());
  const std::size_t stages = prefix.stages;
  const std::size_t pairs = prefix.pairs;

  puf::ConfigurableEnrollment e;
  e.mode = prefix.mode == 0 ? puf::SelectionCase::kSameConfig
                            : puf::SelectionCase::kIndependent;
  e.layout.stages = stages;
  e.layout.pair_count = pairs;
  e.selections.resize(pairs);

  BitUnpacker unpacker(reader);
  for (puf::Selection& sel : e.selections) {
    BitVec config(stages);
    for (std::size_t s = 0; s < stages; ++s) config.set(s, unpacker.pull());
    sel.top_config = std::move(config);
  }
  unpacker.align();
  for (puf::Selection& sel : e.selections) {
    BitVec config(stages);
    for (std::size_t s = 0; s < stages; ++s) config.set(s, unpacker.pull());
    sel.bottom_config = std::move(config);
  }
  unpacker.align();
  for (puf::Selection& sel : e.selections) sel.bit = unpacker.pull();
  unpacker.align();
  if (prefix.has_helper) {
    e.helper.resize(pairs);
    for (puf::PairHelperData& h : e.helper) h.masked = unpacker.pull();
    unpacker.align();
  }
  for (puf::Selection& sel : e.selections) {
    sel.margin = read_finite(reader, "non-finite margin");
  }
  if (prefix.has_helper) {
    for (puf::PairHelperData& h : e.helper) {
      h.offset_ps = read_finite(reader, "non-finite helper offset");
    }
  }
  if (prefix.has_auth) {
    auth::AuthMaterial material = read_auth_tail(reader, pairs);
    e.auth_code_id = material.code_id;
    e.auth_helper = std::move(material.helper);
    e.auth_key_check = material.key_check;
  }
  if (!reader.exhausted()) throw bad_record("trailing bytes after record payload");
  return e;
}

VerifierFields read_verifier_fields(std::string_view payload) {
  static obs::Counter& decoded =
      obs::Registry::instance().counter("registry.records_decoded");
  decoded.add(1);

  // The same prefix checks and column walk as decode_enrollment_record;
  // only the response column and the auth tail are kept.
  ByteReader reader(payload, Defect::kBadRecord);
  const RecordPrefix prefix = read_record_prefix(reader, payload.size());
  const std::size_t pairs = prefix.pairs;
  reader.skip(2 * bit_words(pairs * prefix.stages) * 8);  // top + bottom configs
  VerifierFields fields;
  fields.response = read_bit_column(reader, pairs);
  if (prefix.has_helper) reader.skip(bit_words(pairs) * 8);  // dark-bit mask
  for (std::size_t p = 0; p < pairs; ++p) read_finite(reader, "non-finite margin");
  if (prefix.has_helper) {
    for (std::size_t p = 0; p < pairs; ++p) read_finite(reader, "non-finite helper offset");
  }
  if (prefix.has_auth) fields.auth = read_auth_tail(reader, pairs);
  if (!reader.exhausted()) throw bad_record("trailing bytes after record payload");
  return fields;
}

void validate_enrollment(const puf::ConfigurableEnrollment& e) {
  ROPUF_REQUIRE(e.layout.stages > 0 && e.layout.stages <= kMaxStages,
                "enrollment stage count out of range");
  ROPUF_REQUIRE(e.layout.pair_count > 0 && e.layout.pair_count <= kMaxPairs,
                "enrollment pair count out of range");
  ROPUF_REQUIRE(e.selections.size() == e.layout.pair_count,
                "selection count does not match the layout");
  ROPUF_REQUIRE(e.helper.empty() || e.helper.size() == e.layout.pair_count,
                "helper data must be empty or cover every pair");
  for (const puf::Selection& sel : e.selections) {
    ROPUF_REQUIRE(sel.top_config.size() == e.layout.stages &&
                      sel.bottom_config.size() == e.layout.stages,
                  "configuration arity does not match the layout");
    ROPUF_REQUIRE(std::isfinite(sel.margin), "non-finite enrollment margin");
  }
  for (const puf::PairHelperData& h : e.helper) {
    ROPUF_REQUIRE(std::isfinite(h.offset_ps), "non-finite helper offset");
  }
  if (e.has_auth()) {
    ROPUF_REQUIRE(e.auth_code_id != 0, "auth helper present without a code id");
    ROPUF_REQUIRE(e.auth_helper.size() <= 255,
                  "auth helper block count out of range");
    const std::size_t block_bits = e.auth_helper.front().size();
    ROPUF_REQUIRE(block_bits > 0 && block_bits <= 0xffff,
                  "auth helper block width out of range");
    for (const BitVec& block : e.auth_helper) {
      ROPUF_REQUIRE(block.size() == block_bits,
                    "auth helper blocks must share one width");
    }
    ROPUF_REQUIRE(e.auth_helper.size() * block_bits <= e.layout.pair_count,
                  "auth helper wider than the enrolled response");
  } else {
    ROPUF_REQUIRE(e.auth_code_id == 0, "auth code id without helper data");
  }
}

double RegistryStats::bias_percent() const {
  return total_pairs == 0 ? 0.0
                          : 100.0 * static_cast<double>(ones) /
                                static_cast<double>(total_pairs);
}

double RegistryStats::mean_abs_margin() const {
  return total_pairs == 0 ? 0.0 : margin_abs_sum / static_cast<double>(total_pairs);
}

// ------------------------------------------------------------------ builder

void RegistryBuilder::add(std::uint64_t device_id,
                          puf::ConfigurableEnrollment enrollment) {
  validate_enrollment(enrollment);
  ROPUF_REQUIRE(ids_.insert(device_id).second,
                "duplicate device id " + std::to_string(device_id));
  records_.push_back(DeviceRecord{device_id, std::move(enrollment)});
}

std::string RegistryBuilder::build() const {
  std::vector<const DeviceRecord*> sorted;
  sorted.reserve(records_.size());
  for (const DeviceRecord& record : records_) sorted.push_back(&record);
  std::sort(sorted.begin(), sorted.end(),
            [](const DeviceRecord* a, const DeviceRecord* b) {
              return a->device_id < b->device_id;
            });

  ByteWriter records;
  ByteWriter index;
  for (const DeviceRecord* record : sorted) {
    const std::size_t offset = records.size();
    encode_enrollment_record(records, record->enrollment);
    index.u64(record->device_id);
    index.u64(offset);
    index.u64(records.size() - offset);
  }
  return assemble_sections(std::string_view(kMagic, sizeof(kMagic)), kFormatVersion,
                           records_.size(), index.bytes(), records.bytes());
}

void RegistryBuilder::write_file(const std::string& path) const {
  write_file_atomic(path, build());
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  namespace fs = std::filesystem;
  static std::atomic<std::uint64_t> sequence{0};
  const fs::path target(path);
  const fs::path dir = target.has_parent_path() ? target.parent_path() : fs::path(".");
  // pid + sequence is unique among live writers, so an existing file by
  // this name is a dead writer's leftover and is safe to overwrite.
  const std::string temp =
      (dir / ("." + target.filename().string() + ".tmp-" + std::to_string(::getpid()) +
              "-" + std::to_string(sequence++)))
          .string();
  std::FILE* file = std::fopen(temp.c_str(), "wb");
  ROPUF_REQUIRE(file != nullptr, "cannot create " + temp + ": " + std::strerror(errno));
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  ok = std::fflush(file) == 0 && ok;
  ok = ok && ::fsync(::fileno(file)) == 0;
  ok = std::fclose(file) == 0 && ok;
  ok = ok && std::rename(temp.c_str(), path.c_str()) == 0;
  if (!ok) {
    const int error = errno;
    std::remove(temp.c_str());
    ROPUF_REQUIRE(false, "failed writing " + path + ": " + std::strerror(error));
  }
  // The rename is durable once the directory entry is. Best effort: some
  // filesystems refuse fsync on a directory, and the file is in place.
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

// ----------------------------------------------------------------- registry

Registry Registry::from_bytes(std::string bytes) {
  auto owned = std::make_shared<const std::string>(std::move(bytes));
  const std::string_view view(*owned);
  return adopt(owned, view);
}

FileBytes load_file_bytes(const std::string& path) {
#if ROPUF_REGISTRY_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  ROPUF_REQUIRE(fd >= 0, "cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw Error("cannot stat " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size > 0) {
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (addr != MAP_FAILED) {
      std::shared_ptr<const void> owner(addr, [size](const void* p) {
        ::munmap(const_cast<void*>(p), size);
      });
      return {std::move(owner), std::string_view(static_cast<const char*>(addr), size)};
    }
    // fall through to the read path (e.g. filesystems without mmap support)
  } else {
    ::close(fd);
  }
#endif
  std::ifstream in(path, std::ios::binary);
  ROPUF_REQUIRE(in.good(), "cannot open " + path);
  auto owned = std::make_shared<const std::string>(std::istreambuf_iterator<char>(in),
                                                   std::istreambuf_iterator<char>());
  const std::string_view view(*owned);
  return {std::move(owned), view};
}

Registry Registry::load_file(const std::string& path) {
  FileBytes file = load_file_bytes(path);
  return adopt(std::move(file.owner), file.view);
}

Registry Registry::adopt(std::shared_ptr<const void> owner, std::string_view view) {
  static obs::Counter& loads = obs::Registry::instance().counter("registry.loads");
  static obs::Histogram& load_us =
      obs::Registry::instance().latency_histogram("registry.load_us");
  const obs::ScopedLatency load_timer(load_us);

  const SectionGeometry geometry =
      validate_sections(view, std::string_view(kMagic, sizeof(kMagic)), kFormatVersion,
                        /*allow_tombstones=*/false);

  Registry registry;
  registry.owner_ = std::move(owner);
  registry.bytes_ = view;
  registry.device_count_ = geometry.device_count;
  registry.index_offset_ = geometry.index_offset;
  registry.records_offset_ = geometry.records_offset;
  loads.add(1);
  return registry;
}

std::size_t Registry::index_entry_offset(std::size_t i) const {
  return index_offset_ + i * kIndexEntryBytes;
}

std::uint64_t Registry::device_id_at(std::size_t i) const {
  ROPUF_REQUIRE(i < device_count_, "device index out of range");
  return read_u64_at(bytes_, index_entry_offset(i));
}

std::size_t Registry::index_position(std::uint64_t device_id) const {
  return find_index_position(bytes_, index_offset_, device_count_, device_id);
}

bool Registry::contains(std::uint64_t device_id) const {
  return index_position(device_id) != kIndexNpos;
}

std::string_view Registry::payload_at(std::size_t i) const {
  const std::size_t entry = index_entry_offset(i);
  const std::uint64_t offset = read_u64_at(bytes_, entry + 8);
  const std::uint64_t size = read_u64_at(bytes_, entry + 16);
  return bytes_.substr(records_offset_ + offset, size);
}

std::optional<std::string_view> Registry::find_payload(std::uint64_t device_id) const {
  static obs::Counter& lookups = obs::Registry::instance().counter("registry.lookups");
  lookups.add(1);
  const std::size_t position = index_position(device_id);
  if (position == kIndexNpos) return std::nullopt;
  return payload_at(position);
}

std::optional<puf::ConfigurableEnrollment> Registry::find(
    std::uint64_t device_id) const {
  const std::optional<std::string_view> payload = find_payload(device_id);
  if (!payload.has_value()) return std::nullopt;
  return decode_enrollment_record(*payload);
}

puf::ConfigurableEnrollment Registry::lookup(std::uint64_t device_id) const {
  auto enrollment = find(device_id);
  ROPUF_REQUIRE(enrollment.has_value(),
                "unknown device " + std::to_string(device_id));
  return std::move(*enrollment);
}

RegistryStats Registry::stats() const {
  RegistryStats stats;
  stats.devices = device_count_;
  for (std::size_t i = 0; i < device_count_; ++i) {
    const puf::ConfigurableEnrollment e = decode_enrollment_record(payload_at(i));
    (e.mode == puf::SelectionCase::kSameConfig ? stats.case1_devices
                                               : stats.case2_devices) += 1;
    if (!e.helper.empty()) stats.helper_devices += 1;
    if (i == 0) {
      stats.min_stages = stats.max_stages = e.layout.stages;
      stats.min_pairs = stats.max_pairs = e.layout.pair_count;
    } else {
      stats.min_stages = std::min(stats.min_stages, e.layout.stages);
      stats.max_stages = std::max(stats.max_stages, e.layout.stages);
      stats.min_pairs = std::min(stats.min_pairs, e.layout.pair_count);
      stats.max_pairs = std::max(stats.max_pairs, e.layout.pair_count);
    }
    stats.total_pairs += e.layout.pair_count;
    for (const puf::Selection& sel : e.selections) {
      if (sel.bit) stats.ones += 1;
      stats.margin_abs_sum += std::abs(sel.margin);
    }
    for (const puf::PairHelperData& h : e.helper) {
      if (h.masked) stats.masked_pairs += 1;
    }
  }
  return stats;
}

// ------------------------------------------------------------ fleet import

std::vector<MintedDevice> mint_fleet_with_chips(const FleetSpec& spec) {
  ROPUF_REQUIRE(spec.devices > 0, "fleet must contain at least one device");
  ROPUF_REQUIRE(spec.stages > 0 && spec.stages <= kMaxStages,
                "fleet stage count out of range");
  ROPUF_REQUIRE(spec.pairs > 0 && spec.pairs <= kMaxPairs,
                "fleet pair count out of range");
  static obs::Counter& minted =
      obs::Registry::instance().counter("registry.devices_minted");

  const puf::BoardLayout layout{spec.stages, spec.pairs};
  const std::size_t grid_cols = 2 * spec.stages;
  const std::size_t grid_rows = spec.pairs;

  // Order-sensitive work happens serially up front (the parallel.h
  // contract): per-device chip and measurement streams are forked in device
  // order, and device ids are drawn from their own SplitMix64 stream
  // (redrawing the vanishingly rare collision or zero).
  sil::Fab fab(spec.process, spec.seed);
  Rng measurement_base(spec.seed ^ 0x9e3779b97f4a7c15ull);
  // The auth stream is forked from its own base so v2 provisioning never
  // perturbs the pre-existing chip/measurement/id streams — a v1-era spec
  // still mints bit-identical silicon and enrollments.
  Rng auth_base(spec.seed ^ 0xa0745ecull);
  std::vector<Rng> chip_rngs;
  std::vector<Rng> measurement_rngs;
  std::vector<Rng> auth_rngs;
  std::vector<std::uint64_t> ids;
  chip_rngs.reserve(spec.devices);
  measurement_rngs.reserve(spec.devices);
  auth_rngs.reserve(spec.devices);
  ids.reserve(spec.devices);
  std::unordered_set<std::uint64_t> used_ids;
  std::uint64_t id_state = spec.seed ^ 0x1d5c0de;
  for (std::size_t i = 0; i < spec.devices; ++i) {
    chip_rngs.push_back(fab.fork_chip_stream());
    measurement_rngs.push_back(measurement_base.fork());
    auth_rngs.push_back(auth_base.fork());
    std::uint64_t id = 0;
    do {
      id = splitmix64(id_state);
    } while (id == 0 || !used_ids.insert(id).second);
    ids.push_back(id);
  }

  puf::UnitMeasurementSpec measurement;
  measurement.noise_sigma_ps = spec.noise_sigma_ps;
  auto devices = parallel_transform<MintedDevice>(
      spec.devices, spec.threads,
      [&](std::size_t i) {
        sil::Chip chip = fab.fabricate_with(chip_rngs[i], grid_cols, grid_rows);
        const auto values = puf::measure_unit_ddiffs(chip, sil::nominal_op(),
                                                     measurement, measurement_rngs[i]);
        MintedDevice device{ids[i], std::move(chip),
                            puf::configurable_enroll(values, layout, spec.mode)};
        auth::provision_auth(device.enrollment, auth_rngs[i]);
        return device;
      },
      /*grain=*/8);
  minted.add(spec.devices);
  return devices;
}

std::vector<DeviceRecord> mint_fleet(const FleetSpec& spec) {
  std::vector<DeviceRecord> records;
  std::vector<MintedDevice> devices = mint_fleet_with_chips(spec);
  records.reserve(devices.size());
  for (MintedDevice& device : devices) {
    records.push_back(DeviceRecord{device.device_id, std::move(device.enrollment)});
  }
  return records;
}

std::string build_fleet_registry(const FleetSpec& spec) {
  RegistryBuilder builder;
  for (DeviceRecord& record : mint_fleet(spec)) {
    builder.add(record.device_id, std::move(record.enrollment));
  }
  return builder.build();
}

}  // namespace ropuf::registry
