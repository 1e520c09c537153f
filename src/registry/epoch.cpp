#include "registry/epoch.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ropuf::registry {
namespace {

constexpr char kDeltaMagic[8] = {'R', 'O', 'P', 'U', 'F', 'D', 'L', 'T'};

}  // namespace

// ------------------------------------------------------------ delta builder

void DeltaBuilder::upsert(std::uint64_t device_id,
                          puf::ConfigurableEnrollment enrollment) {
  validate_enrollment(enrollment);
  ROPUF_REQUIRE(ids_.insert(device_id).second,
                "duplicate device id " + std::to_string(device_id) +
                    " in delta segment");
  entries_.push_back(Entry{device_id, false, std::move(enrollment)});
}

void DeltaBuilder::retire(std::uint64_t device_id) {
  ROPUF_REQUIRE(ids_.insert(device_id).second,
                "duplicate device id " + std::to_string(device_id) +
                    " in delta segment");
  entries_.push_back(Entry{device_id, true, {}});
}

std::string DeltaBuilder::build() const {
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const Entry& entry : entries_) sorted.push_back(&entry);
  std::sort(sorted.begin(), sorted.end(), [](const Entry* a, const Entry* b) {
    return a->device_id < b->device_id;
  });

  ByteWriter records;
  ByteWriter index;
  for (const Entry* entry : sorted) {
    index.u64(entry->device_id);
    if (entry->tombstone) {
      // A tombstone is pure index: offset 0, size 0, no payload.
      index.u64(0);
      index.u64(0);
      continue;
    }
    const std::size_t offset = records.size();
    encode_enrollment_record(records, entry->enrollment);
    index.u64(offset);
    index.u64(records.size() - offset);
  }
  return assemble_sections(std::string_view(kDeltaMagic, sizeof(kDeltaMagic)),
                           kDeltaFormatVersion, entries_.size(), index.bytes(),
                           records.bytes());
}

void DeltaBuilder::write_file(const std::string& path) const {
  write_file_atomic(path, build());
}

// ------------------------------------------------------------ delta segment

DeltaSegment DeltaSegment::from_bytes(std::string bytes) {
  auto owned = std::make_shared<const std::string>(std::move(bytes));
  const std::string_view view(*owned);
  return adopt(std::move(owned), view);
}

DeltaSegment DeltaSegment::load_file(const std::string& path) {
  FileBytes file = load_file_bytes(path);
  return adopt(std::move(file.owner), file.view);
}

DeltaSegment DeltaSegment::adopt(std::shared_ptr<const void> owner,
                                 std::string_view view) {
  static obs::Counter& loads =
      obs::Registry::instance().counter("registry.delta_loads");
  const SectionGeometry geometry =
      validate_sections(view, std::string_view(kDeltaMagic, sizeof(kDeltaMagic)),
                        kDeltaFormatVersion, /*allow_tombstones=*/true);

  DeltaSegment segment;
  segment.owner_ = std::move(owner);
  segment.bytes_ = view;
  segment.entry_count_ = geometry.device_count;
  segment.index_offset_ = geometry.index_offset;
  segment.records_offset_ = geometry.records_offset;
  for (std::size_t i = 0; i < segment.entry_count_; ++i) {
    if (segment.tombstone_at(i)) ++segment.tombstone_count_;
  }
  loads.add(1);
  return segment;
}

std::size_t DeltaSegment::index_entry_offset(std::size_t i) const {
  return index_offset_ + i * kIndexEntryBytes;
}

std::uint64_t DeltaSegment::device_id_at(std::size_t i) const {
  ROPUF_REQUIRE(i < entry_count_, "delta entry index out of range");
  return read_u64_at(bytes_, index_entry_offset(i));
}

bool DeltaSegment::tombstone_at(std::size_t i) const {
  ROPUF_REQUIRE(i < entry_count_, "delta entry index out of range");
  return read_u64_at(bytes_, index_entry_offset(i) + 16) == 0;
}

std::string_view DeltaSegment::payload_at(std::size_t i) const {
  const std::size_t entry = index_entry_offset(i);
  const std::uint64_t offset = read_u64_at(bytes_, entry + 8);
  const std::uint64_t size = read_u64_at(bytes_, entry + 16);
  return bytes_.substr(records_offset_ + offset, size);
}

puf::ConfigurableEnrollment DeltaSegment::enrollment_at(std::size_t i) const {
  ROPUF_REQUIRE(!tombstone_at(i), "delta entry " + std::to_string(i) +
                                      " is a tombstone, not a record");
  return decode_enrollment_record(payload_at(i));
}

DeltaSegment::Hit DeltaSegment::find_payload(std::uint64_t device_id,
                                             std::string_view* payload) const {
  const std::size_t position =
      find_index_position(bytes_, index_offset_, entry_count_, device_id);
  if (position == kIndexNpos) return Hit::kMiss;
  if (tombstone_at(position)) return Hit::kTombstone;
  if (payload != nullptr) *payload = payload_at(position);
  return Hit::kUpsert;
}

DeltaSegment::Hit DeltaSegment::find(
    std::uint64_t device_id,
    std::optional<puf::ConfigurableEnrollment>* enrollment) const {
  std::string_view payload;
  const Hit hit = find_payload(device_id, &payload);
  if (hit == Hit::kUpsert && enrollment != nullptr) {
    *enrollment = decode_enrollment_record(payload);
  }
  return hit;
}

// ---------------------------------------------------------------- snapshot

RegistrySnapshot::RegistrySnapshot(std::uint64_t epoch, Registry base,
                                   std::vector<DeltaSegment> deltas)
    : epoch_(epoch), base_(std::move(base)), deltas_(std::move(deltas)) {
  ROPUF_REQUIRE(epoch_ >= 1 + deltas_.size(),
                "snapshot epoch must cover its delta chain");
  // Live id set: base ids (already ascending), then each delta applied
  // oldest to newest. Deltas are small next to the base, so this is a merge
  // against a sorted vector per delta rather than a rebuild.
  live_ids_.reserve(base_.device_count());
  for (std::size_t i = 0; i < base_.device_count(); ++i) {
    live_ids_.push_back(base_.device_id_at(i));
  }
  for (const DeltaSegment& delta : deltas_) {
    for (std::size_t i = 0; i < delta.entry_count(); ++i) {
      const std::uint64_t id = delta.device_id_at(i);
      const auto it = std::lower_bound(live_ids_.begin(), live_ids_.end(), id);
      const bool present = it != live_ids_.end() && *it == id;
      if (delta.tombstone_at(i)) {
        if (present) live_ids_.erase(it);
      } else if (!present) {
        live_ids_.insert(it, id);
      }
    }
  }
}

bool RegistrySnapshot::contains(std::uint64_t device_id) const {
  return std::binary_search(live_ids_.begin(), live_ids_.end(), device_id);
}

std::optional<std::string_view> RegistrySnapshot::find_payload(
    std::uint64_t device_id) const {
  static obs::Counter& delta_hits =
      obs::Registry::instance().counter("registry.delta_hits");
  for (auto it = deltas_.rbegin(); it != deltas_.rend(); ++it) {
    std::string_view payload;
    switch (it->find_payload(device_id, &payload)) {
      case DeltaSegment::Hit::kUpsert:
        delta_hits.add(1);
        return payload;
      case DeltaSegment::Hit::kTombstone:
        delta_hits.add(1);
        return std::nullopt;
      case DeltaSegment::Hit::kMiss:
        break;
    }
  }
  return base_.find_payload(device_id);
}

std::optional<puf::ConfigurableEnrollment> RegistrySnapshot::find(
    std::uint64_t device_id) const {
  const std::optional<std::string_view> payload = find_payload(device_id);
  if (!payload.has_value()) return std::nullopt;
  return decode_enrollment_record(*payload);
}

// -------------------------------------------------------------- compaction

std::string compact_snapshot(const RegistrySnapshot& snapshot,
                             ThreadBudget threads) {
  static obs::Counter& compactions =
      obs::Registry::instance().counter("registry.compactions");
  static obs::Histogram& compact_us =
      obs::Registry::instance().latency_histogram("registry.compact_us");
  const obs::ScopedLatency compact_timer(compact_us);
  const obs::TraceSpan span("registry.compact");

  const std::vector<std::uint64_t>& ids = snapshot.live_device_ids();
  auto enrollments = parallel_transform<puf::ConfigurableEnrollment>(
      ids.size(), threads,
      [&](std::size_t i) {
        std::optional<puf::ConfigurableEnrollment> found = snapshot.find(ids[i]);
        // A live id always resolves: the id set and the overlay were
        // computed from the same immutable segments.
        ROPUF_REQUIRE(found.has_value(), "live device vanished during compaction");
        return std::move(*found);
      },
      /*grain=*/8);

  RegistryBuilder builder;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    builder.add(ids[i], std::move(enrollments[i]));
  }
  compactions.add(1);
  return builder.build();
}

// ----------------------------------------------------------- epoch registry

EpochRegistry::EpochRegistry(Registry base, std::vector<DeltaSegment> deltas) {
  const std::uint64_t epoch = 1 + deltas.size();
  current_ = std::make_shared<const RegistrySnapshot>(epoch, std::move(base),
                                                      std::move(deltas));
}

std::shared_ptr<const RegistrySnapshot> EpochRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return current_;
}

void EpochRegistry::publish(std::shared_ptr<const RegistrySnapshot> next) {
  static obs::Counter& swaps =
      obs::Registry::instance().counter("registry.epoch_swaps");
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    current_ = std::move(next);
  }
  swaps.add(1);
}

void EpochRegistry::append_delta(DeltaSegment delta) {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  const std::shared_ptr<const RegistrySnapshot> current = snapshot();
  std::vector<DeltaSegment> deltas = current->deltas();
  deltas.push_back(std::move(delta));
  publish(std::make_shared<const RegistrySnapshot>(
      current->epoch() + 1, current->base(), std::move(deltas)));
}

void EpochRegistry::install(Registry base, std::vector<DeltaSegment> deltas) {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  const std::uint64_t floor = 1 + deltas.size();
  const std::uint64_t epoch = std::max(snapshot()->epoch() + 1, floor);
  publish(std::make_shared<const RegistrySnapshot>(epoch, std::move(base),
                                                   std::move(deltas)));
}

std::string EpochRegistry::compact(ThreadBudget threads) {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  const std::shared_ptr<const RegistrySnapshot> current = snapshot();
  std::string bytes = compact_snapshot(*current, threads);
  publish(std::make_shared<const RegistrySnapshot>(
      current->epoch() + 1, Registry::from_bytes(bytes),
      std::vector<DeltaSegment>{}));
  return bytes;
}

// ------------------------------------------------------------- file helpers

std::vector<std::string> discover_delta_paths(const std::string& base_path) {
  namespace fs = std::filesystem;
  const fs::path base(base_path);
  const fs::path dir = base.has_parent_path() ? base.parent_path() : fs::path(".");
  const std::string prefix = base.filename().string() + ".delta-";
  std::vector<std::string> paths;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    // ".tmp-" marks a write_file_atomic temp file an interrupted writer
    // left behind; it is never part of a generation.
    if (name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0 &&
        name.find(".tmp-", prefix.size()) == std::string::npos) {
      paths.push_back((base.has_parent_path() ? dir / name : fs::path(name)).string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

EpochFileSet load_epoch_files(const std::string& base_path,
                              const std::vector<std::string>& delta_paths) {
  EpochFileSet files{Registry::load_file(base_path), {}, delta_paths};
  files.deltas.reserve(delta_paths.size());
  for (const std::string& path : delta_paths) {
    files.deltas.push_back(DeltaSegment::load_file(path));
  }
  return files;
}

EpochFileSet load_epoch_files(const std::string& base_path) {
  return load_epoch_files(base_path, discover_delta_paths(base_path));
}

}  // namespace ropuf::registry
