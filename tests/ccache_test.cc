#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <set>
#include <vector>

#include "ccache/compression_cache.h"
#include "compress/lzrw1.h"
#include "compress/pagegen.h"
#include "tests/test_util.h"
#include "util/audit.h"
#include "util/fault.h"
#include "util/rng.h"

namespace compcache {
namespace {

// Records cache events for inspection.
class EventRecorder : public CcacheEvents {
 public:
  void OnEntryCleaned(PageKey key) override { cleaned.push_back(key); }
  void OnEntryDropped(PageKey key) override { dropped.push_back(key); }
  void OnEntryLost(PageKey key) override { lost.push_back(key); }

  std::vector<PageKey> cleaned;
  std::vector<PageKey> dropped;
  std::vector<PageKey> lost;
};

class CcacheTest : public ::testing::Test {
 protected:
  explicit CcacheTest(size_t max_slots = 64, size_t pool_frames = 256)
      : device_(&clock_, std::make_unique<SeekDiskModel>(), SimDuration::Micros(500)),
        fs_(&device_),
        swap_(&fs_),
        frames_(pool_frames) {
    CcacheOptions options;
    options.max_slots = max_slots;
    cache_ = std::make_unique<CompressionCache>(&clock_, &costs_, &frames_, &codec_, &swap_,
                                                &events_, options);
  }

  std::vector<uint8_t> MakePage(ContentClass content, uint64_t seed) {
    Rng rng(seed);
    std::vector<uint8_t> page(kPageSize);
    FillPage(page, content, rng);
    return page;
  }

  Clock clock_;
  CostModel costs_;
  DiskDevice device_;
  FileSystem fs_;
  ClusteredSwapLayout swap_;
  TestFrameSource frames_;
  Lzrw1 codec_;
  EventRecorder events_;
  std::unique_ptr<CompressionCache> cache_;
};

TEST_F(CcacheTest, InsertAndFaultInRoundTrip) {
  const auto page = MakePage(ContentClass::kRepetitiveText, 1);
  const PageKey key{0, 0};
  EXPECT_TRUE(cache_->CompressAndInsert(key, page, /*dirty=*/true));
  EXPECT_TRUE(cache_->Contains(key));
  cache_->CheckInvariants();

  std::vector<uint8_t> out(kPageSize);
  EXPECT_EQ(cache_->FaultIn(key, out), CcacheFaultResult::kHit);
  EXPECT_EQ(out, page);
  EXPECT_EQ(cache_->stats().fault_hits, 1u);
}

TEST_F(CcacheTest, ThresholdRejectsIncompressible) {
  const auto page = MakePage(ContentClass::kRandom, 2);
  EXPECT_FALSE(cache_->CompressAndInsert(PageKey{0, 0}, page, true));
  EXPECT_FALSE(cache_->Contains(PageKey{0, 0}));
  EXPECT_EQ(cache_->stats().pages_rejected, 1u);
  EXPECT_EQ(cache_->stats().pages_compressed, 1u);  // effort was still spent
}

TEST_F(CcacheTest, CompressionChargesTime) {
  const auto page = MakePage(ContentClass::kRepetitiveText, 3);
  const SimTime before = clock_.Now();
  cache_->CompressAndInsert(PageKey{0, 0}, page, true);
  const SimDuration spent = clock_.Now() - before;
  EXPECT_GE(spent.nanos(), costs_.CompressCost(kPageSize).nanos());
}

TEST_F(CcacheTest, ZeroPageFastPathSkipsCodecAndCrc) {
  // An all-zero page is kept via the marker fast path: only the word-wise scan
  // is charged (no codec time), no ring payload is stored, and fault-in
  // zero-fills without decompression.
  const std::vector<uint8_t> page(kPageSize, 0);
  const PageKey key{0, 7};
  const SimTime before = clock_.Now();
  EXPECT_TRUE(cache_->CompressAndInsert(key, page, /*dirty=*/true));
  EXPECT_EQ((clock_.Now() - before).nanos(), costs_.ZeroScanCost(kPageSize).nanos());
  EXPECT_EQ(cache_->stats().zero_pages, 1u);
  EXPECT_EQ(cache_->stats().pages_compressed, 0u);  // codec never ran
  const auto info = cache_->EntryInfoFor(key);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->payload_size, 0u);
  cache_->CheckInvariants();

  std::vector<uint8_t> out(kPageSize, 0xAB);
  EXPECT_EQ(cache_->FaultIn(key, out), CcacheFaultResult::kHit);
  EXPECT_EQ(out, page);
  EXPECT_EQ(cache_->stats().zero_fault_hits, 1u);
}

TEST_F(CcacheTest, FaultInMissingReturnsMiss) {
  std::vector<uint8_t> out(kPageSize);
  EXPECT_EQ(cache_->FaultIn(PageKey{9, 9}, out), CcacheFaultResult::kMiss);
}

TEST_F(CcacheTest, InvalidateRemovesFromIndex) {
  const auto page = MakePage(ContentClass::kZero, 4);
  const PageKey key{0, 1};
  cache_->CompressAndInsert(key, page, true);
  cache_->Invalidate(key);
  EXPECT_FALSE(cache_->Contains(key));
  std::vector<uint8_t> out(kPageSize);
  EXPECT_EQ(cache_->FaultIn(key, out), CcacheFaultResult::kMiss);
  cache_->CheckInvariants();
}

TEST_F(CcacheTest, InvalidateMissingIsNoop) {
  cache_->Invalidate(PageKey{3, 3});
  EXPECT_EQ(cache_->stats().invalidations, 0u);
}

TEST_F(CcacheTest, ManyInsertsWrapTheRing) {
  // 64-slot ring = 256 KB; insert far more than fits so the ring wraps and head
  // reclamation runs. All dirty data must reach the backing store before frames
  // die, so nothing is ever lost.
  std::unordered_map<uint32_t, std::vector<uint8_t>> shadow;
  for (uint32_t i = 0; i < 600; ++i) {
    const auto page = MakePage(ContentClass::kRepetitiveText, 100 + i);
    const PageKey key{0, i};
    if (cache_->CompressAndInsert(key, page, /*dirty=*/true)) {
      shadow[i] = page;
    }
    if (i % 37 == 0) {
      cache_->CheckInvariants();
    }
  }
  cache_->CheckInvariants();
  EXPECT_LE(cache_->mapped_frames(), 64u);

  // Every page is either still in the cache or was cleaned to swap.
  std::vector<uint8_t> out(kPageSize);
  for (const auto& [page_index, page] : shadow) {
    const PageKey key{0, page_index};
    if (cache_->FaultIn(key, out) == CcacheFaultResult::kHit) {
      EXPECT_EQ(out, page) << page_index;
    } else {
      ASSERT_TRUE(swap_.Contains(key)) << page_index;
      auto r = swap_.ReadPage(key, false);
      ASSERT_TRUE(r.is_compressed);
      std::vector<uint8_t> decompressed(kPageSize);
      codec_.Decompress(r.bytes, decompressed);
      EXPECT_EQ(decompressed, page) << page_index;
    }
  }
}

TEST_F(CcacheTest, ReleaseOldestFreesAFrameAndFiresEvents) {
  for (uint32_t i = 0; i < 16; ++i) {
    cache_->CompressAndInsert(PageKey{0, i}, MakePage(ContentClass::kText, 200 + i), true);
  }
  const size_t mapped_before = cache_->mapped_frames();
  ASSERT_GT(mapped_before, 0u);
  const size_t pool_used_before = frames_.pool().used_frames();

  EXPECT_TRUE(cache_->ReleaseOldest());
  EXPECT_LT(cache_->mapped_frames(), mapped_before);
  EXPECT_LT(frames_.pool().used_frames(), pool_used_before);
  // Dirty entries overlapping the head frame were cleaned then dropped.
  EXPECT_FALSE(events_.cleaned.empty());
  EXPECT_FALSE(events_.dropped.empty());
  for (const PageKey key : events_.dropped) {
    EXPECT_FALSE(cache_->Contains(key));
    EXPECT_TRUE(swap_.Contains(key));  // the copy survived on backing store
  }
  cache_->CheckInvariants();
}

TEST_F(CcacheTest, ReleaseOldestOnEmptyReturnsFalse) {
  EXPECT_FALSE(cache_->ReleaseOldest());
}

TEST_F(CcacheTest, OldestAgeTracksHeadEntry) {
  EXPECT_EQ(cache_->OldestAge(), UINT64_MAX);
  clock_.Advance(SimDuration::Seconds(1));
  cache_->CompressAndInsert(PageKey{0, 0}, MakePage(ContentClass::kZero, 5), true);
  const uint64_t age0 = cache_->OldestAge();
  EXPECT_LE(age0, static_cast<uint64_t>(clock_.Now().nanos()));
  clock_.Advance(SimDuration::Seconds(1));
  cache_->CompressAndInsert(PageKey{0, 1}, MakePage(ContentClass::kZero, 6), true);
  EXPECT_EQ(cache_->OldestAge(), age0);  // head unchanged
}

TEST_F(CcacheTest, CleanerWritesDirtyBatches) {
  for (uint32_t i = 0; i < 32; ++i) {
    cache_->CompressAndInsert(PageKey{0, i}, MakePage(ContentClass::kText, 300 + i), true);
  }
  const uint64_t cleaned_before = cache_->stats().entries_cleaned;
  // Tight memory (free frames below target) with a dirty head triggers cleaning.
  cache_->RunCleaner(/*pool_free_frames=*/0);
  EXPECT_GT(cache_->stats().entries_cleaned, cleaned_before);
  // Cleaned entries stay in the ring but now have backing copies.
  for (const PageKey key : events_.cleaned) {
    EXPECT_TRUE(cache_->Contains(key));
    EXPECT_TRUE(swap_.Contains(key));
  }
  cache_->CheckInvariants();
}

TEST_F(CcacheTest, CleanerIdlesWhenMemoryIsPlentiful) {
  for (uint32_t i = 0; i < 8; ++i) {
    cache_->CompressAndInsert(PageKey{0, i}, MakePage(ContentClass::kText, 400 + i), true);
  }
  cache_->RunCleaner(/*pool_free_frames=*/1000);
  EXPECT_EQ(cache_->stats().entries_cleaned, 0u);
}

TEST_F(CcacheTest, FlushDirtyWritesEverything) {
  for (uint32_t i = 0; i < 20; ++i) {
    cache_->CompressAndInsert(PageKey{0, i}, MakePage(ContentClass::kText, 500 + i), true);
  }
  cache_->FlushDirty();
  for (uint32_t i = 0; i < 20; ++i) {
    if (cache_->Contains(PageKey{0, i})) {
      EXPECT_TRUE(swap_.Contains(PageKey{0, i})) << i;
    }
  }
  // Flushing again is a no-op.
  const uint64_t cleaned = cache_->stats().entries_cleaned;
  cache_->FlushDirty();
  EXPECT_EQ(cache_->stats().entries_cleaned, cleaned);
}

// Every disk write fails, retries included: a WriteBatch the cache issues
// through the fixture's device then fails as a whole.
void FailEveryDiskWrite(DiskDevice& device, FaultInjector& injector) {
  FaultSchedule schedule;
  schedule.probability = 1.0;
  injector.SetSchedule(FaultSite::kDiskWrite, schedule);
  device.SetFaultInjector(&injector);
}

TEST_F(CcacheTest, FailedCleanerBatchLeavesEntriesDirtyAndSwapEmpty) {
  for (uint32_t i = 0; i < 32; ++i) {
    cache_->CompressAndInsert(PageKey{0, i}, MakePage(ContentClass::kText, 300 + i), true);
  }
  FaultInjector injector(11);
  FailEveryDiskWrite(device_, injector);
  cache_->RunCleaner(/*pool_free_frames=*/0);

  EXPECT_EQ(cache_->stats().write_batch_failures, 1u);
  EXPECT_EQ(cache_->stats().entries_cleaned, 0u);
  EXPECT_TRUE(events_.cleaned.empty());
  EXPECT_TRUE(events_.lost.empty());
  EXPECT_EQ(swap_.live_pages(), 0u);  // no partially persisted image survives
  for (uint32_t i = 0; i < 32; ++i) {
    const auto info = cache_->EntryInfoFor(PageKey{0, i});
    ASSERT_TRUE(info.has_value()) << i;
    EXPECT_TRUE(info->dirty) << i;
    EXPECT_FALSE(swap_.Contains(PageKey{0, i})) << i;
  }
  cache_->CheckInvariants();

  // Once the device recovers, the same entries are written out.
  device_.SetFaultInjector(nullptr);
  cache_->RunCleaner(/*pool_free_frames=*/0);
  EXPECT_GT(cache_->stats().entries_cleaned, 0u);
  EXPECT_EQ(cache_->stats().write_batch_failures, 1u);
  cache_->CheckInvariants();
}

TEST_F(CcacheTest, FailedHeadReclaimReportsTheDirtyEntriesLost) {
  for (uint32_t i = 0; i < 16; ++i) {
    cache_->CompressAndInsert(PageKey{0, i}, MakePage(ContentClass::kText, 200 + i), true);
  }
  const size_t mapped_before = cache_->mapped_frames();
  FaultInjector injector(12);
  FailEveryDiskWrite(device_, injector);

  // Reclamation must still make progress: the head frame comes back, and its
  // dirty entries, which never reached the backing store, are lost.
  EXPECT_TRUE(cache_->ReleaseOldest());
  EXPECT_LT(cache_->mapped_frames(), mapped_before);
  EXPECT_EQ(cache_->stats().write_batch_failures, 1u);
  EXPECT_EQ(cache_->stats().entries_cleaned, 0u);
  EXPECT_TRUE(events_.cleaned.empty());
  EXPECT_TRUE(events_.dropped.empty());
  ASSERT_FALSE(events_.lost.empty());
  EXPECT_EQ(cache_->stats().entries_lost, events_.lost.size());
  for (const PageKey key : events_.lost) {
    EXPECT_FALSE(cache_->Contains(key));
    EXPECT_FALSE(swap_.Contains(key));
  }
  EXPECT_EQ(swap_.live_pages(), 0u);
  cache_->CheckInvariants();
}

TEST_F(CcacheTest, InjectedCodecCorruptionDamagesTheStoredPayload) {
  const PageKey key{0, 0};
  ASSERT_TRUE(cache_->CompressAndInsert(key, MakePage(ContentClass::kText, 7), true));
  const std::vector<uint8_t> before = *cache_->RawPayloadFor(key);
  FaultInjector injector(3);
  FaultSchedule schedule;
  schedule.fail_ops = {1};
  injector.SetSchedule(FaultSite::kCodecCorruption, schedule);
  cache_->SetFaultInjector(&injector);

  std::vector<uint8_t> out(kPageSize);
  EXPECT_EQ(cache_->FaultIn(key, out), CcacheFaultResult::kCorrupt);
  ASSERT_EQ(injector.injected(FaultSite::kCodecCorruption), 1u);
  // Exactly one bit of the ring's copy flipped...
  const std::vector<uint8_t> after = *cache_->RawPayloadFor(key);
  ASSERT_EQ(after.size(), before.size());
  int flipped_bits = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    flipped_bits += std::popcount(static_cast<unsigned>(before[i] ^ after[i]));
  }
  EXPECT_EQ(flipped_bits, 1);
  // ...and the damage persists: a second read, with no fault injected, fails
  // its checksum too.
  EXPECT_EQ(cache_->FaultIn(key, out), CcacheFaultResult::kCorrupt);
  EXPECT_EQ(injector.injected(FaultSite::kCodecCorruption), 1u);
  EXPECT_EQ(cache_->stats().checksum_mismatches, 2u);
  cache_->SetFaultInjector(nullptr);
}

TEST_F(CcacheTest, InsertCompressedCleanFromSwapImage) {
  // Simulates the fault path: a compressed image read from backing store is
  // inserted clean.
  const auto page = MakePage(ContentClass::kRepetitiveText, 7);
  std::vector<uint8_t> compressed(codec_.MaxCompressedSize(kPageSize));
  const size_t c = codec_.Compress(page, compressed);
  compressed.resize(c);

  const PageKey key{1, 2};
  cache_->InsertCompressedClean(key, compressed, kPageSize);
  EXPECT_TRUE(cache_->Contains(key));
  EXPECT_EQ(cache_->stats().inserted_from_swap, 1u);

  std::vector<uint8_t> out(kPageSize);
  EXPECT_EQ(cache_->FaultIn(key, out), CcacheFaultResult::kHit);
  EXPECT_EQ(out, page);

  // Clean entries are dropped on reclamation without any swap write.
  const uint64_t swap_writes = swap_.stats().pages_written;
  EXPECT_TRUE(cache_->ReleaseOldest());
  EXPECT_EQ(swap_.stats().pages_written, swap_writes);
  EXPECT_FALSE(cache_->Contains(key));
}

TEST_F(CcacheTest, DecompressImageChargesTime) {
  const auto page = MakePage(ContentClass::kZero, 8);
  std::vector<uint8_t> compressed(codec_.MaxCompressedSize(kPageSize));
  const size_t c = codec_.Compress(page, compressed);
  compressed.resize(c);
  const SimTime before = clock_.Now();
  std::vector<uint8_t> out(kPageSize);
  EXPECT_TRUE(cache_->DecompressImage(compressed, out));
  EXPECT_EQ(out, page);
  EXPECT_GE((clock_.Now() - before).nanos(), costs_.DecompressCost(kPageSize).nanos());
}


// Property test: random operation sequences keep invariants and never lose data.
TEST_F(CcacheTest, RandomOperationsKeepInvariants) {
  Rng rng(777);
  std::unordered_map<uint32_t, std::vector<uint8_t>> latest;  // page -> current bytes
  std::set<uint32_t> in_cache_or_swap;

  for (int op = 0; op < 800; ++op) {
    const uint32_t page_index = static_cast<uint32_t>(rng.Below(96));
    const PageKey key{0, page_index};
    const double action = rng.NextDouble();
    if (action < 0.5) {
      // (Re)insert with fresh contents: invalidate any stale copies first, like
      // the pager does for dirtied pages.
      cache_->Invalidate(key);
      swap_.Invalidate(key);
      const auto page = MakePage(rng.Chance(0.2) ? ContentClass::kShuffledWords
                                                 : ContentClass::kRepetitiveText,
                                 10'000 + static_cast<uint64_t>(op));
      if (cache_->CompressAndInsert(key, page, true)) {
        latest[page_index] = page;
        in_cache_or_swap.insert(page_index);
      } else {
        latest.erase(page_index);
        in_cache_or_swap.erase(page_index);
      }
    } else if (action < 0.7) {
      std::vector<uint8_t> out(kPageSize);
      if (cache_->FaultIn(key, out) == CcacheFaultResult::kHit) {
        ASSERT_TRUE(latest.contains(page_index));
        EXPECT_EQ(out, latest.at(page_index));
      }
    } else if (action < 0.85) {
      cache_->RunCleaner(static_cast<size_t>(rng.Below(32)));
    } else {
      cache_->ReleaseOldest();
    }
    if (op % 50 == 0) {
      cache_->CheckInvariants();
    }
  }
  cache_->CheckInvariants();

  // Every tracked page is recoverable from cache or swap.
  std::vector<uint8_t> out(kPageSize);
  for (const uint32_t page_index : in_cache_or_swap) {
    const PageKey key{0, page_index};
    if (cache_->FaultIn(key, out) == CcacheFaultResult::kHit) {
      EXPECT_EQ(out, latest.at(page_index));
    } else {
      ASSERT_TRUE(swap_.Contains(key)) << page_index;
      auto r = swap_.ReadPage(key, false);
      std::vector<uint8_t> decompressed(kPageSize);
      codec_.Decompress(r.bytes, decompressed);
      EXPECT_EQ(decompressed, latest.at(page_index)) << page_index;
    }
  }
}

// --- superblock frame packing ------------------------------------------------

class SuperblockCcacheTest : public CcacheTest {
 protected:
  SuperblockCcacheTest() {
    CcacheOptions options;
    options.max_slots = 64;
    options.superblock_packing = true;
    cache_ = std::make_unique<CompressionCache>(&clock_, &costs_, &frames_, &codec_, &swap_,
                                                &events_, options);
  }
};

TEST_F(SuperblockCcacheTest, QuantizedFootprintsShareFrames) {
  // Repetitive text compresses far below one sub-block, so consecutive inserts
  // pack into the same physical frame at sub-block offsets.
  for (uint32_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(
        cache_->CompressAndInsert(PageKey{0, p}, MakePage(ContentClass::kRepetitiveText, p),
                                  /*dirty=*/true));
    const auto info = cache_->EntryInfoFor(PageKey{0, p});
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->header_off % CompressionCache::kSubBlockBytes, 0u) << p;
  }
  EXPECT_GE(cache_->SharedFrames(), 2u);
  EXPECT_LT(cache_->mapped_frames(), cache_->live_entries());
  EXPECT_GE(cache_->stats().superblock_packed_inserts, 3u);
  EXPECT_GT(cache_->stats().superblock_pad_bytes, 0u);
  cache_->CheckInvariants();
}

TEST_F(SuperblockCcacheTest, FourZeroEntriesPackIntoOneFrame) {
  const std::vector<uint8_t> zero_page(kPageSize, 0);
  for (uint32_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(cache_->CompressAndInsert(PageKey{0, p}, zero_page, /*dirty=*/true));
  }
  // Four one-sub-block entries fill exactly one frame of ring space.
  EXPECT_EQ(cache_->used_bytes(), static_cast<uint64_t>(kPageSize));
  EXPECT_EQ(cache_->SharedFrames(), 1u);
  std::vector<uint8_t> out(kPageSize, 0xCD);
  EXPECT_EQ(cache_->FaultIn(PageKey{0, 2}, out), CcacheFaultResult::kHit);
  EXPECT_EQ(out, zero_page);
  cache_->CheckInvariants();
}

TEST_F(SuperblockCcacheTest, RandomOperationsKeepInvariantsWithPacking) {
  InvariantAuditor auditor;
  cache_->RegisterAuditChecks(&auditor);
  Rng rng(778);
  std::unordered_map<uint32_t, std::vector<uint8_t>> latest;
  for (int op = 0; op < 600; ++op) {
    const uint32_t page_index = static_cast<uint32_t>(rng.Below(64));
    const PageKey key{0, page_index};
    const double action = rng.NextDouble();
    if (action < 0.5) {
      const auto page = MakePage(rng.Chance(0.15) ? ContentClass::kShuffledWords
                                                  : ContentClass::kRepetitiveText,
                                 20'000 + static_cast<uint64_t>(op));
      // The pager's discipline: a rewritten page's stale copies die first, and
      // the new contents are compressed and appended afresh.
      swap_.Invalidate(key);
      cache_->Invalidate(key);
      if (cache_->CompressAndInsert(key, page, true)) {
        latest[page_index] = page;
      } else {
        latest.erase(page_index);
      }
    } else if (action < 0.7) {
      std::vector<uint8_t> out(kPageSize);
      if (cache_->FaultIn(key, out) == CcacheFaultResult::kHit) {
        ASSERT_TRUE(latest.contains(page_index));
        EXPECT_EQ(out, latest.at(page_index));
      }
    } else if (action < 0.85) {
      cache_->RunCleaner(static_cast<size_t>(rng.Below(32)));
    } else {
      cache_->ReleaseOldest();
    }
    if (op % 40 == 0) {
      cache_->CheckInvariants();
      ASSERT_EQ(auditor.RunAll(), 0u) << "op " << op;
    }
  }
  cache_->CheckInvariants();
  EXPECT_EQ(auditor.RunAll(), 0u);
}

}  // namespace
}  // namespace compcache
