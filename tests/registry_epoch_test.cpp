// Lifecycle tests for the epoch-versioned registry layer: the ROPUFDLT
// delta container (round trip and corruption taxonomy, including the
// tombstone-shape rule), the newest-epoch-wins overlay, deterministic
// compaction, epoch numbering, and — the operational core — snapshot
// pinning: a reader that pinned a generation keeps bit-stable answers
// while writers append, install and compact underneath it. The concurrency
// tests here are the ones the CI TSan job leans on.
#include "registry/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "puf/serialization.h"
#include "registry/format.h"
#include "registry/registry.h"

namespace ropuf::registry {
namespace {

puf::ConfigurableEnrollment sample_enrollment(std::uint64_t seed) {
  Rng rng(seed);
  const puf::BoardLayout layout{5, 8};
  std::vector<double> values(layout.units_required());
  for (auto& v : values) v = rng.gaussian(0.0, 10.0);
  return puf::configurable_enroll(values, layout, puf::SelectionCase::kIndependent);
}

std::string enrollment_image(const puf::ConfigurableEnrollment& enrollment) {
  return puf::serialize_enrollment(enrollment);
}

/// Base registry with devices 10, 20, ..., 10*n, enrollment seed = id.
Registry base_registry(std::size_t devices = 4) {
  RegistryBuilder builder;
  for (std::size_t d = 1; d <= devices; ++d) {
    builder.add(10 * d, sample_enrollment(10 * d));
  }
  return Registry::from_bytes(builder.build());
}

DeltaSegment delta_upserting(std::uint64_t device_id, std::uint64_t seed) {
  DeltaBuilder builder;
  builder.upsert(device_id, sample_enrollment(seed));
  return DeltaSegment::from_bytes(builder.build());
}

DeltaSegment delta_retiring(std::uint64_t device_id) {
  DeltaBuilder builder;
  builder.retire(device_id);
  return DeltaSegment::from_bytes(builder.build());
}

// --- container layout mirrors (shared with the base format) ---------------
constexpr std::size_t kDeltaHeaderBytes = 68;
constexpr std::size_t kDeltaHeaderCrcSpan = 64;
constexpr std::size_t kDeltaIndexEntry = 24;
constexpr std::size_t kVersionOffset = 8;
constexpr std::size_t kDeviceCountOffset = 16;
constexpr std::size_t kIndexCrcOffset = 56;
constexpr std::size_t kRecordsCrcOffset = 60;
constexpr std::size_t kHeaderCrcOffset = 64;

void poke_u32(std::string& bytes, std::size_t offset, std::uint32_t v) {
  for (std::size_t b = 0; b < 4; ++b) {
    bytes[offset + b] = static_cast<char>((v >> (8 * b)) & 0xff);
  }
}

void poke_u64(std::string& bytes, std::size_t offset, std::uint64_t v) {
  for (std::size_t b = 0; b < 8; ++b) {
    bytes[offset + b] = static_cast<char>((v >> (8 * b)) & 0xff);
  }
}

std::uint64_t peek_u64(const std::string& bytes, std::size_t offset) {
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < 8; ++b) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[offset + b]))
         << (8 * b);
  }
  return v;
}

void repatch_crcs(std::string& bytes) {
  const std::uint64_t entries = peek_u64(bytes, kDeviceCountOffset);
  const std::size_t index_size = entries * kDeltaIndexEntry;
  const std::size_t records_offset = kDeltaHeaderBytes + index_size;
  const std::string_view view(bytes);
  poke_u32(bytes, kIndexCrcOffset, crc32(view.substr(kDeltaHeaderBytes, index_size)));
  poke_u32(bytes, kRecordsCrcOffset, crc32(view.substr(records_offset)));
  poke_u32(bytes, kHeaderCrcOffset, crc32(view.substr(0, kDeltaHeaderCrcSpan)));
}

Defect delta_defect_of(const std::string& bytes) {
  try {
    DeltaSegment::from_bytes(bytes);
  } catch (const FormatError& e) {
    return e.defect();
  }
  ADD_FAILURE() << "expected a FormatError";
  return Defect::kTruncated;
}

// ----------------------------------------------------------- delta segment

TEST(DeltaSegment, RoundTripsUpsertsAndTombstones) {
  DeltaBuilder builder;
  builder.upsert(30, sample_enrollment(777));
  builder.retire(20);
  builder.upsert(95, sample_enrollment(888));
  const DeltaSegment delta = DeltaSegment::from_bytes(builder.build());

  EXPECT_EQ(delta.entry_count(), 3u);
  EXPECT_EQ(delta.upsert_count(), 2u);
  EXPECT_EQ(delta.tombstone_count(), 1u);

  // build() sorts the index ascending regardless of staging order.
  EXPECT_EQ(delta.device_id_at(0), 20u);
  EXPECT_EQ(delta.device_id_at(1), 30u);
  EXPECT_EQ(delta.device_id_at(2), 95u);
  EXPECT_TRUE(delta.tombstone_at(0));
  EXPECT_FALSE(delta.tombstone_at(1));

  EXPECT_EQ(enrollment_image(delta.enrollment_at(1)),
            enrollment_image(sample_enrollment(777)));
  EXPECT_EQ(enrollment_image(delta.enrollment_at(2)),
            enrollment_image(sample_enrollment(888)));

  std::optional<puf::ConfigurableEnrollment> found;
  EXPECT_EQ(delta.find(30, &found), DeltaSegment::Hit::kUpsert);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(enrollment_image(*found), enrollment_image(sample_enrollment(777)));
  EXPECT_EQ(delta.find(20, &found), DeltaSegment::Hit::kTombstone);
  EXPECT_EQ(delta.find(21, &found), DeltaSegment::Hit::kMiss);
}

TEST(DeltaSegment, BuilderRejectsDuplicateIds) {
  DeltaBuilder builder;
  builder.upsert(5, sample_enrollment(1));
  EXPECT_THROW(builder.retire(5), ropuf::Error);
  EXPECT_THROW(builder.upsert(5, sample_enrollment(2)), ropuf::Error);
  // One entry per device survived the rejected stages.
  EXPECT_EQ(builder.entry_count(), 1u);
}

TEST(DeltaSegment, TombstoneHasNoEnrollment) {
  const DeltaSegment delta = delta_retiring(42);
  EXPECT_THROW(delta.enrollment_at(0), ropuf::Error);
}

TEST(DeltaSegment, CorruptionTaxonomy) {
  DeltaBuilder builder;
  builder.upsert(7, sample_enrollment(7));
  builder.retire(9);
  const std::string good = builder.build();
  ASSERT_NO_THROW(DeltaSegment::from_bytes(good));

  {
    std::string bytes = good;
    bytes[0] = 'X';
    EXPECT_EQ(delta_defect_of(bytes), Defect::kBadMagic);
  }
  {
    std::string bytes = good;
    poke_u32(bytes, kVersionOffset, kDeltaFormatVersion + 1);
    EXPECT_EQ(delta_defect_of(bytes), Defect::kBadVersion);
  }
  {
    std::string bytes = good;
    bytes[kDeviceCountOffset] ^= 0x01;  // header content no longer matches CRC
    EXPECT_EQ(delta_defect_of(bytes), Defect::kHeaderCrc);
  }
  {
    std::string bytes = good;
    bytes[kDeltaHeaderBytes] ^= 0x01;  // first index byte
    EXPECT_EQ(delta_defect_of(bytes), Defect::kIndexCrc);
  }
  {
    std::string bytes = good;
    bytes.back() ^= 0x01;  // last record byte
    EXPECT_EQ(delta_defect_of(bytes), Defect::kRecordsCrc);
  }
  {
    EXPECT_EQ(delta_defect_of(good.substr(0, kDeltaHeaderBytes - 1)),
              Defect::kTruncated);
  }
  {
    // A tombstone (size 0) must carry offset 0; a nonzero offset is a
    // malformed index even though it points nowhere.
    std::string bytes = good;
    const std::size_t tombstone_entry = kDeltaHeaderBytes + kDeltaIndexEntry;
    ASSERT_EQ(peek_u64(bytes, tombstone_entry), 9u);
    poke_u64(bytes, tombstone_entry + 8, 1);
    repatch_crcs(bytes);
    EXPECT_EQ(delta_defect_of(bytes), Defect::kBadIndex);
  }
  {
    // Renumbering the tombstone keeps the index ascending and the shape
    // legal — the loader accepts it, proving kBadIndex above came from the
    // offset rule, not the renumbering mechanics.
    std::string bytes = good;
    poke_u64(bytes, kDeltaHeaderBytes + kDeltaIndexEntry, 11);
    repatch_crcs(bytes);
    ASSERT_NO_THROW(DeltaSegment::from_bytes(bytes));
  }
}

TEST(DeltaSegment, UnsortedIndexIsBadIndex) {
  DeltaBuilder builder;
  builder.upsert(7, sample_enrollment(7));
  builder.retire(9);
  std::string bytes = builder.build();
  // Swap the two ids so the index decreases.
  poke_u64(bytes, kDeltaHeaderBytes, 9);
  poke_u64(bytes, kDeltaHeaderBytes + kDeltaIndexEntry, 7);
  repatch_crcs(bytes);
  EXPECT_EQ(delta_defect_of(bytes), Defect::kBadIndex);
}

// ---------------------------------------------------------------- snapshot

TEST(RegistrySnapshot, OverlayResolvesNewestFirst) {
  Registry base = base_registry(4);  // ids 10, 20, 30, 40
  std::vector<DeltaSegment> deltas;
  deltas.push_back(delta_upserting(30, 1111));  // refresh an existing device
  deltas.push_back(delta_retiring(20));         // retire one
  deltas.push_back(delta_upserting(95, 2222));  // enroll a new one
  const RegistrySnapshot snapshot(4, std::move(base), std::move(deltas));

  EXPECT_EQ(snapshot.epoch(), 4u);
  EXPECT_EQ(snapshot.device_count(), 4u);
  EXPECT_EQ(snapshot.live_device_ids(),
            (std::vector<std::uint64_t>{10, 30, 40, 95}));
  EXPECT_TRUE(snapshot.contains(95));
  EXPECT_FALSE(snapshot.contains(20));

  // Untouched base device resolves from the base...
  ASSERT_TRUE(snapshot.find(10).has_value());
  EXPECT_EQ(enrollment_image(*snapshot.find(10)),
            enrollment_image(sample_enrollment(10)));
  // ...a refreshed device resolves to the delta record, not the base one...
  ASSERT_TRUE(snapshot.find(30).has_value());
  EXPECT_EQ(enrollment_image(*snapshot.find(30)),
            enrollment_image(sample_enrollment(1111)));
  // ...a tombstoned device resolves to nothing, and an unknown id too.
  EXPECT_FALSE(snapshot.find(20).has_value());
  EXPECT_FALSE(snapshot.find(21).has_value());
  ASSERT_TRUE(snapshot.find(95).has_value());
}

TEST(RegistrySnapshot, ReAddAfterTombstoneWins) {
  Registry base = base_registry(2);  // ids 10, 20
  std::vector<DeltaSegment> deltas;
  deltas.push_back(delta_retiring(20));
  deltas.push_back(delta_upserting(20, 3333));  // newer delta re-enrolls it
  const RegistrySnapshot snapshot(3, std::move(base), std::move(deltas));

  EXPECT_TRUE(snapshot.contains(20));
  ASSERT_TRUE(snapshot.find(20).has_value());
  EXPECT_EQ(enrollment_image(*snapshot.find(20)),
            enrollment_image(sample_enrollment(3333)));
}

TEST(RegistrySnapshot, EpochMustCoverDeltaChain) {
  std::vector<DeltaSegment> deltas;
  deltas.push_back(delta_retiring(20));
  EXPECT_THROW(RegistrySnapshot(1, base_registry(2), std::move(deltas)),
               ropuf::Error);
}

// -------------------------------------------------------------- compaction

TEST(Compaction, MergesDeltasBitIdenticallyAtAnyThreadBudget) {
  Registry base = base_registry(6);
  std::vector<DeltaSegment> deltas;
  deltas.push_back(delta_upserting(30, 1111));
  deltas.push_back(delta_retiring(60));
  deltas.push_back(delta_upserting(95, 2222));
  const RegistrySnapshot snapshot(4, std::move(base), std::move(deltas));

  const std::string at1 = compact_snapshot(snapshot, ThreadBudget(1));
  const std::string at2 = compact_snapshot(snapshot, ThreadBudget(2));
  const std::string at8 = compact_snapshot(snapshot, ThreadBudget(8));
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);

  // The merged base answers exactly like the overlay, for every live id
  // and for the retired one.
  const Registry merged = Registry::from_bytes(at1);
  EXPECT_EQ(merged.device_count(), snapshot.device_count());
  for (const std::uint64_t id : snapshot.live_device_ids()) {
    ASSERT_TRUE(merged.find(id).has_value()) << "id " << id;
    EXPECT_EQ(enrollment_image(*merged.find(id)),
              enrollment_image(*snapshot.find(id)))
        << "id " << id;
  }
  EXPECT_FALSE(merged.find(60).has_value());

  // Compacting the compacted generation is the identity.
  const RegistrySnapshot flat(1, Registry::from_bytes(at1), {});
  EXPECT_EQ(compact_snapshot(flat), at1);
}

// ----------------------------------------------------------- epoch registry

TEST(EpochRegistry, NumbersGenerationsDeterministically) {
  EpochRegistry epochs(base_registry(3));
  EXPECT_EQ(epochs.epoch(), 1u);
  EXPECT_EQ(epochs.device_count(), 3u);

  epochs.append_delta(delta_upserting(95, 2222));
  EXPECT_EQ(epochs.epoch(), 2u);
  EXPECT_EQ(epochs.device_count(), 4u);

  epochs.append_delta(delta_retiring(10));
  EXPECT_EQ(epochs.epoch(), 3u);
  EXPECT_EQ(epochs.device_count(), 3u);

  // Compaction folds the chain into a zero-delta generation, epoch + 1.
  const std::string merged = epochs.compact();
  EXPECT_EQ(epochs.epoch(), 4u);
  EXPECT_EQ(epochs.device_count(), 3u);
  EXPECT_TRUE(epochs.snapshot()->deltas().empty());
  EXPECT_EQ(Registry::from_bytes(merged).device_count(), 3u);
}

TEST(EpochRegistry, InstallAlwaysBumpsAndNeverRegresses) {
  EpochRegistry epochs(base_registry(2));
  // A reload with zero deltas is still an observable bump...
  epochs.install(base_registry(2), {});
  EXPECT_EQ(epochs.epoch(), 2u);
  // ...and a restart over a long chain never reports below 1 + deltas.
  std::vector<DeltaSegment> chain;
  for (std::uint64_t id = 100; id < 105; ++id) {
    chain.push_back(delta_upserting(id, id));
  }
  epochs.install(base_registry(2), std::move(chain));
  EXPECT_EQ(epochs.epoch(), 6u);  // max(2 + 1, 1 + 5)
  epochs.install(base_registry(2), {});
  EXPECT_EQ(epochs.epoch(), 7u);  // max(6 + 1, 1)
}

TEST(EpochRegistry, PinnedSnapshotIsImmuneToSwaps) {
  EpochRegistry epochs(base_registry(3));
  const std::shared_ptr<const RegistrySnapshot> pinned = epochs.snapshot();
  const std::string before = enrollment_image(*pinned->find(20));

  epochs.append_delta(delta_upserting(20, 4444));
  epochs.append_delta(delta_retiring(30));
  epochs.compact();

  // The pinned generation still answers exactly as it did.
  EXPECT_EQ(pinned->epoch(), 1u);
  EXPECT_EQ(pinned->device_count(), 3u);
  EXPECT_EQ(enrollment_image(*pinned->find(20)), before);
  EXPECT_TRUE(pinned->contains(30));

  // The head moved on.
  const std::shared_ptr<const RegistrySnapshot> head = epochs.snapshot();
  EXPECT_EQ(head->epoch(), 4u);
  EXPECT_EQ(enrollment_image(*head->find(20)),
            enrollment_image(sample_enrollment(4444)));
  EXPECT_FALSE(head->contains(30));
}

TEST(EpochRegistry, ConcurrentReadersSurviveWriterChurn) {
  // The TSan target: readers pin snapshots and resolve lookups while a
  // writer appends and compacts. Readers must always observe a coherent
  // generation — device 10 is never touched, so it must resolve in every
  // snapshot regardless of which epoch the reader caught.
  EpochRegistry epochs(base_registry(4));
  const std::string stable = enrollment_image(*epochs.snapshot()->find(10));

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<const RegistrySnapshot> snapshot = epochs.snapshot();
        const std::uint64_t epoch = snapshot->epoch();
        ASSERT_GE(epoch, 1u);
        const auto found = snapshot->find(10);
        ASSERT_TRUE(found.has_value());
        ASSERT_EQ(enrollment_image(*found), stable);
        // Same pinned snapshot, asked twice: same epoch, same answer.
        ASSERT_EQ(snapshot->epoch(), epoch);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::uint64_t round = 0; round < 8; ++round) {
    epochs.append_delta(delta_upserting(1000 + round, round));
    if (round % 3 == 2) epochs.compact(ThreadBudget(2));
  }
  // Let the readers overlap the final generation too.
  while (reads.load(std::memory_order_relaxed) < 64) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(epochs.snapshot()->epoch(), 1u + 8u + 2u);  // 8 appends + 2 compacts
}

// ------------------------------------------------------------- file helpers

class EpochFilesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ropuf_epoch_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    base_path_ = (dir_ / "fleet.ropufreg").string();
    RegistryBuilder builder;
    for (std::uint64_t d = 1; d <= 3; ++d) {
      builder.add(10 * d, sample_enrollment(10 * d));
    }
    builder.write_file(base_path_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string delta_path(int n) const {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".delta-%04d", n);
    return base_path_ + suffix;
  }

  std::filesystem::path dir_;
  std::string base_path_;
};

TEST_F(EpochFilesTest, DiscoversDeltasSortedAndIgnoresStrangers) {
  // Written out of order; discovery must return lexicographic order.
  DeltaBuilder second;
  second.retire(20);
  second.write_file(delta_path(2));
  DeltaBuilder first;
  first.upsert(95, sample_enrollment(95));
  first.write_file(delta_path(1));
  // Noise that must not be picked up: a different base's delta and a
  // non-delta sibling.
  std::ofstream((dir_ / "other.ropufreg.delta-0001").string()) << "x";
  std::ofstream((dir_ / "fleet.ropufreg.bak").string()) << "x";

  const std::vector<std::string> paths = discover_delta_paths(base_path_);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], delta_path(1));
  EXPECT_EQ(paths[1], delta_path(2));

  const EpochFileSet files = load_epoch_files(base_path_);
  EXPECT_EQ(files.base.device_count(), 3u);
  ASSERT_EQ(files.deltas.size(), 2u);
  EXPECT_EQ(files.deltas[0].upsert_count(), 1u);
  EXPECT_EQ(files.deltas[1].tombstone_count(), 1u);
  EXPECT_EQ(files.delta_paths, paths);
}

TEST_F(EpochFilesTest, LoadEpochFilesFeedsAServableHead) {
  DeltaBuilder first;
  first.upsert(95, sample_enrollment(95));
  first.write_file(delta_path(1));

  EpochFileSet files = load_epoch_files(base_path_);
  EpochRegistry epochs(std::move(files.base), std::move(files.deltas));
  EXPECT_EQ(epochs.epoch(), 2u);
  EXPECT_EQ(epochs.device_count(), 4u);
  EXPECT_TRUE(epochs.snapshot()->contains(95));
}

TEST_F(EpochFilesTest, MissingBaseOrCorruptDeltaFailsTheWholeLoad) {
  EXPECT_THROW(load_epoch_files((dir_ / "absent.ropufreg").string()),
               ropuf::Error);
  std::ofstream(delta_path(1), std::ios::binary) << "not a delta";
  EXPECT_THROW(load_epoch_files(base_path_), FormatError);
}

TEST_F(EpochFilesTest, RewriteKeepsALoadedRegistryOnItsOwnGeneration) {
  // A server mmaps the base it loaded. Rewriting that path (in-place
  // compaction, a re-mint) must not change what the loaded registry
  // answers, and must not shrink its mapping under it: the new bytes go to
  // a new inode. Same-size contents make an in-place overwrite invisible
  // to any size check, so only the answers tell the generations apart.
  const Registry loaded = Registry::load_file(base_path_);
  const std::string old_image = enrollment_image(loaded.lookup(10));

  RegistryBuilder rewritten;
  for (std::uint64_t d = 1; d <= 3; ++d) {
    rewritten.add(10 * d + 1, sample_enrollment(10 * d));
  }
  const std::uint64_t old_size = std::filesystem::file_size(base_path_);
  rewritten.write_file(base_path_);
  ASSERT_EQ(std::filesystem::file_size(base_path_), old_size);

  EXPECT_TRUE(loaded.contains(10));
  EXPECT_FALSE(loaded.contains(11));
  EXPECT_EQ(enrollment_image(loaded.lookup(10)), old_image);

  const Registry fresh = Registry::load_file(base_path_);
  EXPECT_FALSE(fresh.contains(10));
  EXPECT_TRUE(fresh.contains(11));
  EXPECT_EQ(enrollment_image(fresh.lookup(11)), old_image);
}

TEST_F(EpochFilesTest, AtomicWritesLeaveNoTempFilesAndDiscoverySkipsLeftovers) {
  DeltaBuilder first;
  first.upsert(95, sample_enrollment(95));
  first.write_file(delta_path(1));
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2u);  // the base and its delta, no temp left behind

  // Temp files an interrupted writer left behind are never deltas, whether
  // hidden (write_file_atomic's own names) or not.
  std::ofstream((dir_ / ".fleet.ropufreg.delta-0002.tmp-1-0").string()) << "x";
  std::ofstream(delta_path(3) + ".tmp-1-1") << "x";
  EXPECT_EQ(discover_delta_paths(base_path_), std::vector<std::string>{delta_path(1)});
  EXPECT_EQ(load_epoch_files(base_path_).deltas.size(), 1u);
}

/// What a reload of the base and its deltas would serve: its epoch, its
/// live ids, and every live record's decoded bytes.
struct LoadedGeneration {
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> ids;
  std::vector<std::string> images;
};

LoadedGeneration load_generation(const std::string& base_path) {
  EpochFileSet files = load_epoch_files(base_path);
  const std::uint64_t epoch = 1 + files.deltas.size();
  const RegistrySnapshot snapshot(epoch, std::move(files.base), std::move(files.deltas));
  LoadedGeneration generation{snapshot.epoch(), snapshot.live_device_ids(), {}};
  for (const std::uint64_t id : generation.ids) {
    generation.images.push_back(enrollment_image(snapshot.find(id).value()));
  }
  return generation;
}

/// The prefixes a writer stopped at a section boundary leaves: nothing, the
/// header, header plus index, all but the last byte, and the whole image.
std::vector<std::size_t> section_boundaries(const std::string& image) {
  const std::size_t index_end =
      kDeltaHeaderBytes + peek_u64(image, kDeviceCountOffset) * kDeltaIndexEntry;
  return {0, kDeltaHeaderBytes, index_end, image.size() - 1, image.size()};
}

void write_prefix(const std::string& path, const std::string& image, std::size_t size) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << image.substr(0, size);
}

TEST_F(EpochFilesTest, InterruptedWritesLeaveTheOldGenerationOrFailTheLoad) {
  // write_file_atomic fills a temp file and renames it over the target, so
  // a writer stopped at any section boundary leaves a prefix of the new
  // image under the temp name, and a reload must still see the old
  // generation whole. A torn image under a final delta name (a writer that
  // skipped the rename protocol) must fail the whole load, never mix
  // generations.
  DeltaBuilder first;
  first.upsert(95, sample_enrollment(95));
  first.write_file(delta_path(1));
  const LoadedGeneration old = load_generation(base_path_);
  ASSERT_EQ(old.epoch, 2u);

  DeltaBuilder second;
  second.upsert(10, sample_enrollment(11));
  second.retire(20);
  second.upsert(77, sample_enrollment(77));
  const std::string delta_image = second.build();
  RegistryBuilder rewritten;
  for (std::uint64_t d = 1; d <= 4; ++d) rewritten.add(10 * d + 1, sample_enrollment(d));
  const std::string base_image = rewritten.build();

  const auto temp_name = [this](const std::string& path) {
    return (dir_ / ("." + std::filesystem::path(path).filename().string() + ".tmp-" +
                    std::to_string(::getpid()) + "-0"))
        .string();
  };
  for (const auto& [target, image] :
       {std::pair{delta_path(2), delta_image}, std::pair{base_path_, base_image}}) {
    const std::string temp = temp_name(target);
    for (const std::size_t size : section_boundaries(image)) {
      SCOPED_TRACE(target + " prefix " + std::to_string(size));
      write_prefix(temp, image, size);
      const LoadedGeneration loaded = load_generation(base_path_);
      EXPECT_EQ(loaded.epoch, old.epoch);
      EXPECT_EQ(loaded.ids, old.ids);
      EXPECT_EQ(loaded.images, old.images);
    }
    std::filesystem::remove(temp);
  }

  for (const std::size_t size : section_boundaries(delta_image)) {
    if (size == delta_image.size()) continue;
    SCOPED_TRACE("torn delta-0002 of " + std::to_string(size) + " bytes");
    write_prefix(delta_path(2), delta_image, size);
    EXPECT_THROW(load_epoch_files(base_path_), FormatError);
  }
}

}  // namespace
}  // namespace ropuf::registry
