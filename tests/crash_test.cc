// Crash-consistency differential tests.
//
// The model under test: a simulated power failure (FaultSite::kPowerFail)
// tears an in-flight disk write at 512-byte sector granularity and kills the
// device; the durable swap-metadata formats (intent journal for the clustered
// and fixed-offset layouts, segment summaries + rotating checkpoints for LFS)
// let a fresh backend Mount() the surviving image; Machine::Recover rebuilds
// the whole machine, restoring pages whose images survived and routing the
// rest through the lost-page ladder.
//
// The differential checkers crash the same seeded op-sequence at every Nth
// power-fail crash point and verify the recovered state is a consistent
// durable prefix: no resurrected frees (outside the op in flight), no lost
// committed writes for the journaled backends, content equal to a version
// actually written, and zero invariant-auditor violations — then keep using
// the recovered state to prove the rebuilt allocator metadata is sound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/machine.h"
#include "disk/disk_device.h"
#include "disk/disk_model.h"
#include "fs/file_system.h"
#include "swap/clustered_swap.h"
#include "swap/fixed_compressed_swap.h"
#include "swap/lfs_swap.h"
#include "swap/swap_journal.h"
#include "tests/test_util.h"
#include "util/audit.h"
#include "util/checksum.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/units.h"

namespace compcache {
namespace {

constexpr uint64_t kSectorSize = 512;

// ---------- per-block fault counting (WriteBatch regression) ----------

// A transient-write schedule targeting an ordinal *inside* a multi-block
// request must be reachable: the device evaluates the kDiskWrite schedule once
// per 4 KB block, not once per request, so a 32 KB batch consumes 8 ordinals
// per attempt and fail_ops={5} tears the first attempt from within.
TEST(PerBlockFaultCounting, IntraBatchOrdinalsAreReachable) {
  Clock clock;
  DiskDevice disk(&clock, std::make_unique<SeekDiskModel>(), SimDuration::Micros(500));
  FaultInjector injector(17);
  FaultSchedule schedule;
  schedule.fail_ops = {5};  // 5th block ordinal: inside the first 8-block attempt
  injector.SetSchedule(FaultSite::kDiskWrite, schedule);
  disk.SetFaultInjector(&injector);

  Rng rng(3);
  std::vector<uint8_t> data(8 * 4096);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  ASSERT_EQ(disk.Write(0, data), IoStatus::kOk);

  // Attempt 1 consumed ordinals 1..8 (faulting at 5), attempt 2 consumed 9..16.
  EXPECT_EQ(injector.ops(FaultSite::kDiskWrite), 16u);
  EXPECT_EQ(injector.injected(FaultSite::kDiskWrite), 1u);
  EXPECT_EQ(disk.stats().write_retries, 1u);
  EXPECT_EQ(disk.stats().writes_exhausted, 0u);

  std::vector<uint8_t> back(data.size());
  ASSERT_EQ(disk.Read(0, back), IoStatus::kOk);
  EXPECT_EQ(back, data);
}

// ---------- power failure at the device ----------

TEST(PowerFail, TearsInFlightWriteAtSectorGranularityAndKillsDevice) {
  Clock clock;
  DiskDevice disk(&clock, std::make_unique<SeekDiskModel>(), SimDuration::Micros(500));
  FaultInjector injector(23);
  FaultSchedule schedule;
  schedule.fail_ops = {12};  // sector 12 overall = 4th sector of the second write
  injector.SetSchedule(FaultSite::kPowerFail, schedule);
  disk.SetFaultInjector(&injector);

  std::vector<uint8_t> first(4096, 0xA1);
  std::vector<uint8_t> second(4096, 0xB2);
  ASSERT_EQ(disk.Write(0, first), IoStatus::kOk);  // sectors 1..8
  EXPECT_THROW(disk.Write(4096, second), PowerFailure);

  EXPECT_TRUE(disk.power_failed());
  EXPECT_EQ(disk.stats().power_failures, 1u);

  // The dead device fails everything without consuming further ordinals.
  std::vector<uint8_t> scratch(512);
  EXPECT_EQ(disk.Read(0, scratch), IoStatus::kFailed);
  EXPECT_EQ(disk.Write(0, scratch), IoStatus::kFailed);
  const uint64_t ordinals_at_death = injector.ops(FaultSite::kPowerFail);
  EXPECT_EQ(ordinals_at_death, 12u);

  // The surviving image: the completed write intact; of the torn write, the
  // three sectors before the cut whole, then a prefix of the torn sector,
  // then nothing.
  Clock clock2;
  DiskDevice survivor(&clock2, std::make_unique<SeekDiskModel>(),
                      SimDuration::Micros(500));
  survivor.CopyContentsFrom(disk);
  std::vector<uint8_t> image(2 * 4096);
  ASSERT_EQ(survivor.Read(0, image), IoStatus::kOk);
  EXPECT_EQ(0, std::memcmp(image.data(), first.data(), first.size()));

  const uint8_t* torn = image.data() + 4096;
  size_t persisted = 0;
  while (persisted < 4096 && torn[persisted] == 0xB2) {
    ++persisted;
  }
  EXPECT_GE(persisted, 3 * kSectorSize);  // whole sectors before the cut
  EXPECT_LT(persisted, 4 * kSectorSize);  // the cut landed inside sector 4
  for (size_t i = persisted; i < 4096; ++i) {
    ASSERT_EQ(torn[i], 0) << "byte " << i << " survived past the cut";
  }
}

// ---------- the swap journal's torn-tail contract ----------

class JournalTest : public ::testing::Test {
 protected:
  JournalTest()
      : device_(&clock_, std::make_unique<SeekDiskModel>(), SimDuration::Micros(500)),
        fs_(&device_) {}

  static std::vector<uint8_t> Payload(size_t n, uint64_t seed) {
    Rng rng(seed);
    std::vector<uint8_t> data(n);
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.Next());
    }
    return data;
  }

  Clock clock_;
  DiskDevice device_;
  FileSystem fs_;
};

TEST_F(JournalTest, ReplayDeliversAppendedRecordsInOrder) {
  SwapJournal journal(&fs_, "j");
  std::vector<std::vector<uint8_t>> payloads = {Payload(5, 1), Payload(700, 2),
                                                Payload(0, 3)};
  for (size_t i = 0; i < payloads.size(); ++i) {
    ASSERT_EQ(journal.Append(static_cast<uint8_t>(i + 1), payloads[i]), IoStatus::kOk);
  }

  SwapJournal reopened(&fs_, "j");
  std::vector<std::pair<uint8_t, std::vector<uint8_t>>> seen;
  const auto result = reopened.Replay([&](uint8_t type, std::span<const uint8_t> p) {
    seen.emplace_back(type, std::vector<uint8_t>(p.begin(), p.end()));
  });
  EXPECT_EQ(result.records, 3u);
  EXPECT_FALSE(result.torn);
  ASSERT_EQ(seen.size(), 3u);
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(seen[i].first, static_cast<uint8_t>(i + 1));
    EXPECT_EQ(seen[i].second, payloads[i]);
  }
  EXPECT_EQ(reopened.tail(), journal.tail());
}

// A torn tail is truncated, and the next append overwrites the stale bytes.
TEST_F(JournalTest, TornTailIsTruncatedAndOverwrittenByTheNextAppend) {
  SwapJournal journal(&fs_, "j");
  const std::vector<uint8_t> a = Payload(40, 10);
  const std::vector<uint8_t> b = Payload(60, 11);
  ASSERT_EQ(journal.Append(1, a), IoStatus::kOk);
  const uint64_t tail_before_b = journal.tail();
  ASSERT_EQ(journal.Append(2, b), IoStatus::kOk);

  // Corrupt one byte inside record b's payload, as a power cut that tore the
  // tail record would.
  FileId file = fs_.OpenOrCreate("j");
  std::vector<uint8_t> bad = {0xFF};
  ASSERT_EQ(fs_.Write(file, tail_before_b + 13 + 7, bad), IoStatus::kOk);

  SwapJournal recovered(&fs_, "j");
  std::vector<uint8_t> types;
  const auto result =
      recovered.Replay([&](uint8_t type, std::span<const uint8_t>) {
        types.push_back(type);
      });
  EXPECT_EQ(result.records, 1u);
  EXPECT_TRUE(result.torn);
  EXPECT_EQ(types, std::vector<uint8_t>{1});
  EXPECT_EQ(recovered.tail(), tail_before_b);

  const std::vector<uint8_t> c = Payload(20, 12);
  ASSERT_EQ(recovered.Append(3, c), IoStatus::kOk);
  SwapJournal reopened(&fs_, "j");
  types.clear();
  const auto after = reopened.Replay([&](uint8_t type, std::span<const uint8_t>) {
    types.push_back(type);
  });
  EXPECT_EQ(after.records, 2u);
  EXPECT_EQ(types, (std::vector<uint8_t>{1, 3}));
}

// Corruption fuzz over the journal image (the CRC-fuzz satellite): any single
// bit flip must reduce replay to a strict prefix of the appended sequence,
// never crash, and never deliver altered bytes.
TEST_F(JournalTest, BitFlipFuzzReplaysOnlyAStrictPrefix) {
  SwapJournal journal(&fs_, "j");
  std::vector<std::pair<uint8_t, std::vector<uint8_t>>> appended;
  std::vector<uint64_t> record_starts;
  for (uint8_t i = 0; i < 6; ++i) {
    record_starts.push_back(journal.tail());
    appended.emplace_back(i + 1, Payload(10 + 37 * i, 100 + i));
    ASSERT_EQ(journal.Append(appended.back().first, appended.back().second),
              IoStatus::kOk);
  }
  const uint64_t image_size = journal.tail();
  FileId file = fs_.OpenOrCreate("j");
  std::vector<uint8_t> image(image_size);
  ASSERT_EQ(fs_.Read(file, 0, image), IoStatus::kOk);

  Rng rng(0xC4A5Fu);
  for (int round = 0; round < 200; ++round) {
    const uint64_t bit = rng.Below(image_size * 8);
    std::vector<uint8_t> flipped = {
        static_cast<uint8_t>(image[bit / 8] ^ (1u << (bit % 8)))};
    ASSERT_EQ(fs_.Write(file, bit / 8, flipped), IoStatus::kOk);

    // The damaged record's index bounds the surviving prefix.
    const size_t damaged =
        static_cast<size_t>(std::upper_bound(record_starts.begin(), record_starts.end(),
                                             bit / 8) -
                            record_starts.begin()) -
        1;

    SwapJournal recovered(&fs_, "j");
    size_t delivered = 0;
    bool mismatch = false;
    const auto result =
        recovered.Replay([&](uint8_t type, std::span<const uint8_t> p) {
          if (delivered >= appended.size() || type != appended[delivered].first ||
              !std::equal(p.begin(), p.end(), appended[delivered].second.begin(),
                          appended[delivered].second.end())) {
            mismatch = true;
          }
          ++delivered;
        });
    EXPECT_FALSE(mismatch) << "round " << round << " bit " << bit;
    EXPECT_EQ(delivered, damaged) << "round " << round << " bit " << bit;
    EXPECT_TRUE(result.torn);

    std::vector<uint8_t> restore = {image[bit / 8]};
    ASSERT_EQ(fs_.Write(file, bit / 8, restore), IoStatus::kOk);
  }
}

// Truncation fuzz: zeroing the image from any offset onward (what a power cut
// that never persisted the tail leaves behind) replays exactly the records
// wholly before the cut.
TEST_F(JournalTest, TruncationFuzzReplaysRecordsWhollyBeforeTheCut) {
  SwapJournal journal(&fs_, "j");
  std::vector<uint64_t> record_starts;
  for (uint8_t i = 0; i < 5; ++i) {
    record_starts.push_back(journal.tail());
    ASSERT_EQ(journal.Append(i + 1, Payload(25 + 50 * i, 200 + i)), IoStatus::kOk);
  }
  const uint64_t image_size = journal.tail();
  FileId file = fs_.OpenOrCreate("j");
  std::vector<uint8_t> image(image_size);
  ASSERT_EQ(fs_.Read(file, 0, image), IoStatus::kOk);

  for (uint64_t cut = 0; cut < image_size; cut += 7) {
    std::vector<uint8_t> zeros(image_size - cut, 0);
    ASSERT_EQ(fs_.Write(file, cut, zeros), IoStatus::kOk);

    const size_t survivors = static_cast<size_t>(
        std::upper_bound(record_starts.begin(), record_starts.end(), cut) -
        record_starts.begin() - 1);

    SwapJournal recovered(&fs_, "j");
    size_t delivered = 0;
    (void)recovered.Replay(
        [&](uint8_t, std::span<const uint8_t>) { ++delivered; });
    // A cut inside record i usually kills it; it survives only when every
    // zeroed byte was already zero (possible in a random payload or a CRC
    // tail), so the cut record may legitimately count too.
    EXPECT_GE(delivered, survivors) << "cut at " << cut;
    EXPECT_LE(delivered, survivors + 1) << "cut at " << cut;

    ASSERT_EQ(fs_.Write(file, cut, std::span<const uint8_t>(image).subspan(cut)),
              IoStatus::kOk);
  }
}

// ---------- backend-level durable-prefix differential grid ----------

enum class BackendKind { kClustered, kFixedOffset, kLfs };

const char* BackendName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kClustered:
      return "clustered";
    case BackendKind::kFixedOffset:
      return "fixed_offset";
    case BackendKind::kLfs:
      return "lfs";
  }
  return "?";
}

std::unique_ptr<CompressedSwapBackend> MakeDurableBackend(BackendKind kind,
                                                          FileSystem* fs) {
  switch (kind) {
    case BackendKind::kClustered: {
      ClusteredSwapLayout::Options options;
      options.durable = true;
      return std::make_unique<ClusteredSwapLayout>(fs, options);
    }
    case BackendKind::kFixedOffset: {
      FixedCompressedSwapLayout::Options options;
      options.durable = true;
      return std::make_unique<FixedCompressedSwapLayout>(fs, options);
    }
    case BackendKind::kLfs: {
      LfsSwapLayout::Options options;
      options.segment_blocks = 4;
      options.log_segments = 32;
      options.clean_threshold = 4;
      options.durable = true;
      options.checkpoint_interval = 2;
      return std::make_unique<LfsSwapLayout>(fs, /*frames=*/nullptr, options);
    }
  }
  return nullptr;
}

// One step of the seeded op-sequence, precomputed so every grid cell replays
// the identical history.
struct SwapOp {
  std::vector<SwapPageImage> writes;  // non-empty: WriteBatch
  PageKey invalidate;                 // writes empty: Invalidate
  // Model state *after* this op completes: key -> version.
  std::map<uint32_t, uint32_t> model_after;
};

std::vector<uint8_t> VersionBytes(uint32_t page, uint32_t version) {
  Rng rng(uint64_t{page} * 7919 + version);
  std::vector<uint8_t> data(256 + rng.Below(3200));
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

SwapPageImage VersionImage(uint32_t page, uint32_t version) {
  SwapPageImage image;
  image.key = PageKey{1, page};
  image.bytes = VersionBytes(page, version);
  image.is_compressed = true;
  image.original_size = kPageSize;
  image.checksum = Crc32(image.bytes);
  return image;
}

std::vector<SwapOp> MakeOpSequence(uint64_t seed, uint32_t num_pages, size_t num_ops) {
  Rng rng(seed);
  std::vector<SwapOp> ops;
  std::map<uint32_t, uint32_t> model;           // page -> live version
  std::vector<uint32_t> next_version(num_pages, 0);
  for (size_t i = 0; i < num_ops; ++i) {
    SwapOp op;
    if (!model.empty() && rng.Below(4) == 0) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.Below(model.size())));
      op.invalidate = PageKey{1, it->first};
      model.erase(it);
    } else {
      const uint64_t count = 1 + rng.Below(4);
      std::set<uint32_t> batch_pages;
      for (uint64_t j = 0; j < count; ++j) {
        batch_pages.insert(static_cast<uint32_t>(rng.Below(num_pages)));
      }
      for (const uint32_t page : batch_pages) {
        const uint32_t version = ++next_version[page];
        op.writes.push_back(VersionImage(page, version));
        model[page] = version;
      }
    }
    op.model_after = model;
    ops.push_back(std::move(op));
  }
  return ops;
}

// Applies ops until a power failure fires; returns the index of the op in
// flight at the crash (ops.size() when the run completed).
size_t ApplyOps(CompressedSwapBackend& backend, const std::vector<SwapOp>& ops) {
  for (size_t i = 0; i < ops.size(); ++i) {
    try {
      if (!ops[i].writes.empty()) {
        EXPECT_EQ(backend.WriteBatch(ops[i].writes), IoStatus::kOk);
      } else {
        backend.Invalidate(ops[i].invalidate);
      }
    } catch (const PowerFailure&) {
      return i;
    }
  }
  return ops.size();
}

struct BackendRig {
  explicit BackendRig(BackendKind kind)
      : disk(&clock, std::make_unique<SeekDiskModel>(), SimDuration::Micros(500)),
        fs(&disk),
        injector(29) {
    disk.SetFaultInjector(&injector);
    backend = MakeDurableBackend(kind, &fs);
  }

  Clock clock;
  DiskDevice disk;
  FileSystem fs;
  FaultInjector injector;
  std::unique_ptr<CompressedSwapBackend> backend;
};

class BackendCrashGrid : public ::testing::TestWithParam<BackendKind> {};

TEST_P(BackendCrashGrid, RecoveredStateIsAConsistentDurablePrefix) {
  const BackendKind kind = GetParam();
  constexpr uint32_t kNumPages = 32;
  const std::vector<SwapOp> ops = MakeOpSequence(0xD00D + static_cast<int>(kind),
                                                 kNumPages, 60);

  // Dry run: count the power-fail crash points the full sequence exposes.
  BackendRig dry(kind);
  ASSERT_EQ(ApplyOps(*dry.backend, ops), ops.size());
  const uint64_t total_sectors = dry.injector.ops(FaultSite::kPowerFail);
  ASSERT_GT(total_sectors, 50u) << "workload too small to be interesting";

  const uint64_t stride = std::max<uint64_t>(1, total_sectors / 24);
  uint64_t total_recovered = 0;
  for (uint64_t crash_sector = 1; crash_sector <= total_sectors;
       crash_sector += stride) {
    SCOPED_TRACE(std::string(BackendName(kind)) + " crash at sector " +
                 std::to_string(crash_sector));

    BackendRig rig(kind);
    FaultSchedule schedule;
    schedule.fail_ops = {crash_sector};
    rig.injector.SetSchedule(FaultSite::kPowerFail, schedule);
    const size_t crash_op = ApplyOps(*rig.backend, ops);
    ASSERT_LT(crash_op, ops.size()) << "scheduled crash point never fired";
    ASSERT_TRUE(rig.disk.power_failed());

    // Boot a fresh backend over the surviving image.
    Clock clock2;
    DiskDevice disk2(&clock2, std::make_unique<SeekDiskModel>(),
                     SimDuration::Micros(500));
    disk2.CopyContentsFrom(rig.disk);
    FileSystem fs2(&disk2);
    fs2.ImportImage(rig.fs.ExportImage());
    auto recovered = MakeDurableBackend(kind, &fs2);
    const auto mount = recovered->Mount();
    total_recovered += mount.pages_recovered;

    InvariantAuditor auditor;
    auditor.set_abort_on_violation(false);
    recovered->RegisterAuditChecks(&auditor);
    EXPECT_EQ(auditor.RunAll(), 0u) << [&] {
      std::string detail;
      for (const auto& v : auditor.last_violations()) {
        detail += v.subsystem + "/" + v.invariant + ": " + v.detail + "\n";
      }
      return detail;
    }();

    // Every recovered page must hold bytes some completed or in-flight write
    // actually produced — recovery may lose data, never invent it.
    const std::map<uint32_t, uint32_t>& expected =
        crash_op == 0 ? std::map<uint32_t, uint32_t>{} : ops[crash_op - 1].model_after;
    std::set<uint32_t> inflight;
    for (const auto& image : ops[crash_op].writes) {
      inflight.insert(image.key.page);
    }
    if (ops[crash_op].writes.empty()) {
      inflight.insert(ops[crash_op].invalidate.page);
    }

    std::vector<PageKey> present;
    recovered->ForEachPage([&](PageKey key) { present.push_back(key); });
    for (const PageKey key : present) {
      SCOPED_TRACE("page " + std::to_string(key.page));
      ASSERT_EQ(key.segment, 1u);
      ASSERT_TRUE(recovered->Contains(key));
      auto read = recovered->ReadPage(key, /*collect_coresidents=*/false);
      ASSERT_EQ(read.status, IoStatus::kOk);
      bool known = false;
      for (uint32_t v = 1; v <= 80 && !known; ++v) {
        known = read.bytes == VersionBytes(key.page, v);
      }
      EXPECT_TRUE(known) << "recovered bytes match no written version";
    }

    if (kind != BackendKind::kLfs) {
      // The journaled backends commit each op as it completes, so the durable
      // prefix is exact: every committed write survives with its committed
      // version and every committed invalidate stays invalidated. Only the op
      // in flight at the crash may land either way.
      std::set<uint32_t> present_pages;
      for (const PageKey key : present) {
        present_pages.insert(key.page);
      }
      for (const auto& [page, version] : expected) {
        if (inflight.contains(page)) {
          continue;
        }
        ASSERT_TRUE(present_pages.contains(page))
            << "committed write of page " << page << " lost";
        auto read = recovered->ReadPage(PageKey{1, page}, false);
        ASSERT_EQ(read.status, IoStatus::kOk);
        EXPECT_EQ(read.bytes, VersionBytes(page, version))
            << "page " << page << " regressed past the durable prefix";
      }
      for (const uint32_t page : present_pages) {
        EXPECT_TRUE(expected.contains(page) || inflight.contains(page))
            << "page " << page << " resurrected from a committed free";
      }
    } else {
      // LFS defers durability to segment flushes; presence can lag the model.
      // But nothing outside the written key space may ever appear.
      for (const PageKey key : present) {
        EXPECT_LT(key.page, kNumPages);
      }
    }

    // The recovered metadata must be fully usable: new writes, invalidates,
    // and reads over the rebuilt free structures keep every invariant.
    std::vector<SwapPageImage> fresh;
    for (uint32_t page = 0; page < 4; ++page) {
      fresh.push_back(VersionImage(page, 90));
    }
    ASSERT_EQ(recovered->WriteBatch(fresh), IoStatus::kOk);
    for (const auto& image : fresh) {
      auto read = recovered->ReadPage(image.key, false);
      ASSERT_EQ(read.status, IoStatus::kOk);
      EXPECT_EQ(read.bytes, image.bytes);
    }
    recovered->Invalidate(PageKey{1, 0});
    EXPECT_EQ(auditor.RunAll(), 0u);
  }
  EXPECT_GT(total_recovered, 0u) << "grid never recovered a single page";
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendCrashGrid,
                         ::testing::Values(BackendKind::kClustered,
                                           BackendKind::kFixedOffset,
                                           BackendKind::kLfs),
                         [](const auto& param_info) { return BackendName(param_info.param); });

// ---------- machine-level crash + recovery differential ----------

constexpr uint32_t kMachinePages = 640;

// Deterministic, never-all-zero page pattern: a compressible first half (so
// pages pass the 4:3 threshold and flow through the compression cache) and a
// random second half (so compressed images stay big enough to fill the LFS
// segment buffer and force real disk traffic).
void FillPattern(std::span<uint8_t> page, uint32_t index, uint32_t version) {
  const size_t half = page.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    page[i] = static_cast<uint8_t>((index * 31 + version * 7 + i / 64) | 1);
  }
  Rng rng(uint64_t{index} * 131 + version);
  for (size_t i = half; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(rng.Next());
  }
}

bool MatchesPattern(std::span<const uint8_t> page, uint32_t index, uint32_t version) {
  std::vector<uint8_t> expected(page.size());
  FillPattern(expected, index, version);
  return std::equal(page.begin(), page.end(), expected.begin());
}

bool IsAllZero(std::span<const uint8_t> page) {
  return std::all_of(page.begin(), page.end(), [](uint8_t b) { return b == 0; });
}

MachineConfig CrashConfig(CompressedSwapKind kind, bool superblock) {
  // 2 MiB leaves room for the LFS backend's 512 KB segment buffer; the
  // 640-page (2.5 MiB) working set still forces steady eviction traffic.
  MachineConfig config = SmallConfig(/*use_ccache=*/true, /*memory_bytes=*/2 * kMiB);
  config.compressed_swap = kind;
  config.superblock_packing = superblock;
  config.durability.enabled = true;
  config.durability.lfs_checkpoint_interval = 2;
  config.fault_injection.enabled = true;
  config.fault_injection.seed = 7;
  return config;
}

// Two write passes over a segment twice the machine's memory: every page is
// rewritten once, so version 1 and version 2 of each page both existed and
// eviction pressure pushes them through the compression cache to the backend.
// `versions[p]` records the last version whose Access completed.
void CrashWorkload(Machine& machine, Segment* segment,
                   std::vector<uint32_t>* versions) {
  for (uint32_t version = 1; version <= 2; ++version) {
    for (uint32_t p = 0; p < kMachinePages; ++p) {
      auto span = machine.pager().Access(*segment, p, /*write=*/true);
      FillPattern(span, p, version);
      (*versions)[p] = version;
    }
  }
}

class MachineCrashGrid
    : public ::testing::TestWithParam<std::tuple<CompressedSwapKind, bool>> {};

TEST_P(MachineCrashGrid, RecoverRebuildsAConsistentMachine) {
  const auto [kind, superblock] = GetParam();

  // Dry run: how many power-fail crash points does the workload expose?
  uint64_t total_sectors = 0;
  {
    Machine machine(CrashConfig(kind, superblock));
    Segment* segment = machine.pager().CreateSegment(kMachinePages);
    std::vector<uint32_t> versions(kMachinePages, 0);
    CrashWorkload(machine, segment, &versions);
    ASSERT_NE(machine.fault_injector(), nullptr);
    total_sectors = machine.fault_injector()->ops(FaultSite::kPowerFail);
    ASSERT_GT(total_sectors, 100u) << "workload produced too little disk traffic";
  }

  const uint64_t stride = std::max<uint64_t>(1, total_sectors / 8);
  size_t crashes = 0;
  uint64_t grid_recovered = 0;
  for (uint64_t crash_sector = stride / 2 + 1; crash_sector <= total_sectors;
       crash_sector += stride) {
    SCOPED_TRACE("crash at sector " + std::to_string(crash_sector));
    MachineConfig config = CrashConfig(kind, superblock);
    config.fault_injection.power_fail_nth_sectors = {crash_sector};

    Machine machine(config);
    Segment* segment = machine.pager().CreateSegment(kMachinePages);
    std::vector<uint32_t> versions(kMachinePages, 0);
    bool crashed = false;
    try {
      CrashWorkload(machine, segment, &versions);
    } catch (const PowerFailure&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << "scheduled crash point never fired";
    ++crashes;
    EXPECT_EQ(machine.metrics().GaugeValue("fault.crashes"), 1.0);

    auto recovered = Machine::Recover(machine);
    const RecoveryStats& stats = recovered->recovery_stats();
    EXPECT_EQ(stats.mounts, 1u);
    grid_recovered += stats.pages_recovered;

    // Every touched page of the crashed machine is accounted for, once.
    size_t touched = 0;
    for (uint32_t p = 0; p < kMachinePages; ++p) {
      touched += segment->page(p).state != PageState::kUntouched ? 1 : 0;
    }
    EXPECT_EQ(stats.pages_recovered + stats.pages_lost, touched);
    if (stats.pages_recovered > 0) {
      EXPECT_GT(stats.mount_ns, 0u);  // the verify scan read the images back
    }

    // The recovered machine is internally consistent...
    recovered->auditor().set_abort_on_violation(false);
    EXPECT_EQ(recovered->RunAudit(), 0u) << [&] {
      std::string detail;
      for (const auto& v : recovered->auditor().last_violations()) {
        detail += v.subsystem + "/" + v.invariant + ": " + v.detail + "\n";
      }
      return detail;
    }();

    // ...and the recovery metrics are published.
    EXPECT_EQ(recovered->metrics().GaugeValue("recovery.mounts"), 1.0);
    EXPECT_EQ(recovered->metrics().GaugeValue("recovery.pages_recovered"),
              static_cast<double>(stats.pages_recovered));
    EXPECT_EQ(recovered->metrics().GaugeValue("recovery.pages_lost"),
              static_cast<double>(stats.pages_lost));

    // Differential content check: every page reads back as a version the
    // workload actually wrote, or as zeros (lost to the crash) — and a lost
    // page means the recovery flagged the segment through the abort ladder.
    Segment* rec_segment = recovered->pager().GetSegment(segment->id());
    ASSERT_NE(rec_segment, nullptr);
    size_t lost_seen = 0;
    for (uint32_t p = 0; p < kMachinePages; ++p) {
      if (rec_segment->page(p).state == PageState::kUntouched &&
          segment->page(p).state == PageState::kUntouched) {
        continue;
      }
      auto span = recovered->pager().Access(*rec_segment, p, /*write=*/false);
      if (IsAllZero(span)) {
        ++lost_seen;
        continue;
      }
      bool known = false;
      for (uint32_t v = 1; v <= versions[p] && !known; ++v) {
        known = MatchesPattern(span, p, v);
      }
      EXPECT_TRUE(known) << "page " << p
                         << " recovered with bytes no version ever held";
    }
    if (lost_seen > 0) {
      EXPECT_TRUE(rec_segment->aborted())
          << lost_seen << " pages lost but the segment was not aborted";
    }
    EXPECT_EQ(lost_seen, stats.pages_lost);

    // The recovered machine keeps working: overwrite a slice, re-read it, and
    // re-audit with the new traffic in place.
    for (uint32_t p = 0; p < 64; ++p) {
      auto span = recovered->pager().Access(*rec_segment, p, /*write=*/true);
      FillPattern(span, p, 50);
    }
    for (uint32_t p = 0; p < 64; ++p) {
      auto span = recovered->pager().Access(*rec_segment, p, /*write=*/false);
      EXPECT_TRUE(MatchesPattern(span, p, 50)) << "post-recovery write lost, page " << p;
    }
    EXPECT_EQ(recovered->RunAudit(), 0u);
  }
  ASSERT_GT(crashes, 0u);
  EXPECT_GT(grid_recovered, 0u) << "grid never recovered a single page";
}

std::string MachineGridName(
    const ::testing::TestParamInfo<std::tuple<CompressedSwapKind, bool>>& info) {
  const auto [kind, superblock] = info.param;
  std::string name;
  switch (kind) {
    case CompressedSwapKind::kClustered:
      name = "clustered";
      break;
    case CompressedSwapKind::kFixedOffset:
      name = "fixed_offset";
      break;
    case CompressedSwapKind::kLfs:
      name = "lfs";
      break;
  }
  return name + (superblock ? "_superblock" : "_flat");
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsBothPackings, MachineCrashGrid,
    ::testing::Combine(::testing::Values(CompressedSwapKind::kClustered,
                                         CompressedSwapKind::kFixedOffset,
                                         CompressedSwapKind::kLfs),
                       ::testing::Values(false, true)),
    MachineGridName);

// A machine with durability off must not pay for any of this: no journal
// files, no summary blocks, byte-identical results to the seed configuration.
TEST(MachineCrash, DurabilityOffWritesNoJournalFiles) {
  MachineConfig config = SmallConfig(/*use_ccache=*/true, 1 * kMiB);
  config.compressed_swap = CompressedSwapKind::kClustered;
  Machine machine(config);
  Segment* segment = machine.pager().CreateSegment(128);
  for (uint32_t p = 0; p < 128; ++p) {
    auto span = machine.pager().Access(*segment, p, true);
    FillPattern(span, p, 1);
  }
  const FsImage image = machine.fs().ExportImage();
  for (const auto& file : image.files) {
    EXPECT_EQ(file.name.find("journal"), std::string::npos) << file.name;
    EXPECT_EQ(file.name.find("ckpt"), std::string::npos) << file.name;
  }
}

// Recover on an LFS machine that crashed before any checkpoint existed must
// still mount (empty checkpoint, roll-forward from summaries alone).
TEST(MachineCrash, LfsRecoversFromSummariesWithoutACheckpoint) {
  MachineConfig config = CrashConfig(CompressedSwapKind::kLfs, false);
  config.durability.lfs_checkpoint_interval = 1000;  // never checkpoint

  uint64_t total_sectors = 0;
  {
    Machine dry(config);
    Segment* segment = dry.pager().CreateSegment(kMachinePages);
    std::vector<uint32_t> versions(kMachinePages, 0);
    CrashWorkload(dry, segment, &versions);
    total_sectors = dry.fault_injector()->ops(FaultSite::kPowerFail);
    ASSERT_GT(total_sectors, 0u);
  }
  config.fault_injection.power_fail_nth_sectors = {total_sectors / 2 + 1};

  Machine machine(config);
  Segment* segment = machine.pager().CreateSegment(kMachinePages);
  std::vector<uint32_t> versions(kMachinePages, 0);
  bool crashed = false;
  try {
    CrashWorkload(machine, segment, &versions);
  } catch (const PowerFailure&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);

  auto recovered = Machine::Recover(machine);
  recovered->auditor().set_abort_on_violation(false);
  EXPECT_EQ(recovered->RunAudit(), 0u);
  EXPECT_EQ(recovered->recovery_stats().checkpoint_loads, 0u);
}

}  // namespace
}  // namespace compcache
