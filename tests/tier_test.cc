// Multi-tier compressed memory hierarchy: classifier placement, RAM-tier frame
// accounting, demotion/promotion flows, per-tier transcoding, conservation
// audits, and the stack wired into a full machine.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "compress/pagegen.h"
#include "compress/registry.h"
#include "core/machine.h"
#include "disk/disk_device.h"
#include "disk/disk_model.h"
#include "fs/file_system.h"
#include "sim/clock.h"
#include "swap/clustered_swap.h"
#include "tests/test_util.h"
#include "tier/classifier.h"
#include "tier/ram_store.h"
#include "tier/tier_stack.h"
#include "util/audit.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace compcache {
namespace {

// --- classifier --------------------------------------------------------------

TEST(TierClassifierTest, SizeClassQuantizesToSubBlocks) {
  EXPECT_EQ(TierClassifier::SizeClass(1), 1u);
  EXPECT_EQ(TierClassifier::SizeClass(1024), 1u);
  EXPECT_EQ(TierClassifier::SizeClass(1025), 2u);
  EXPECT_EQ(TierClassifier::SizeClass(2048), 2u);
  EXPECT_EQ(TierClassifier::SizeClass(4096), 4u);
  EXPECT_EQ(TierClassifier::SizeClass(8192), 4u);  // clamped
}

TEST(TierClassifierTest, HeatAndSizeDriveLanding) {
  Clock clock;
  TierClassifierOptions options;
  options.hot_window = SimDuration::Millis(50);
  TierClassifier classifier(options, &clock);
  const PageKey hot{1, 1};
  const PageKey cold{1, 2};
  classifier.NoteRead(hot);

  // Three tiers: 0 = compressed RAM, 1 = first device tier, 2 = disk.
  constexpr size_t kTiers = 3;
  constexpr size_t kFirstDevice = 1;
  // Hot small pages stay closest; cold small pages take the middle tier; cold
  // large pages go straight to disk.
  EXPECT_EQ(classifier.LandingTier(hot, 800, true, kTiers, kFirstDevice), 0u);
  EXPECT_EQ(classifier.LandingTier(cold, 800, true, kTiers, kFirstDevice), 1u);
  EXPECT_EQ(classifier.LandingTier(cold, 4000, true, kTiers, kFirstDevice), 2u);
  // A raw (incompressible) page never lands in a compressed-RAM tier, hot or
  // not: residency is what keeps uncompressed pages in DRAM.
  EXPECT_GE(classifier.LandingTier(hot, kPageSize, false, kTiers, kFirstDevice),
            kFirstDevice);

  // Heat decays: outside the window the same page classifies cold.
  clock.Advance(SimDuration::Millis(51), TimeCategory::kCpu);
  EXPECT_FALSE(classifier.IsHot(hot));
  EXPECT_EQ(classifier.LandingTier(hot, 800, true, kTiers, kFirstDevice), 1u);

  // Degenerate stack: everything lands on the only tier.
  EXPECT_EQ(classifier.LandingTier(cold, 800, true, 1, 0), 0u);

  classifier.Forget(hot);
  EXPECT_EQ(classifier.tracked_keys(), 0u);
}

// --- RAM tier store ----------------------------------------------------------

RamTierStore::Image RandomImage(Rng& rng, size_t bytes) {
  RamTierStore::Image image;
  image.bytes.resize(bytes);
  for (uint8_t& b : image.bytes) {
    b = static_cast<uint8_t>(rng.Below(256));
  }
  image.checksum = Crc32(image.bytes);
  return image;
}

TEST(RamTierStoreTest, FramesAreAWiredReserve) {
  TestFrameSource frames(8);
  RamTierStore store(&frames);
  Rng rng(7);

  // 3 KB -> 3 sub-blocks -> 1 frame.
  ASSERT_TRUE(store.Put(PageKey{1, 0}, RandomImage(rng, 3 * 1024)));
  EXPECT_EQ(store.sub_blocks_used(), 3u);
  EXPECT_EQ(store.frames_held(), 1u);
  // +2 KB -> 5 sub-blocks -> 2 frames.
  ASSERT_TRUE(store.Put(PageKey{1, 1}, RandomImage(rng, 1500)));
  EXPECT_EQ(store.sub_blocks_used(), 5u);
  EXPECT_EQ(store.frames_held(), 2u);

  // Shrinking a key's image keeps the freed frame in the wired reserve.
  ASSERT_TRUE(store.Put(PageKey{1, 0}, RandomImage(rng, 100)));
  EXPECT_EQ(store.sub_blocks_used(), 3u);
  EXPECT_EQ(store.frames_held(), 2u);

  // Take keeps the reserve too; only ReleaseFrame returns frames to the pool.
  const RamTierStore::Image taken = store.Take(PageKey{1, 1});
  EXPECT_EQ(taken.bytes.size(), 1500u);
  EXPECT_EQ(store.sub_blocks_used(), 1u);
  EXPECT_EQ(store.pages(), 1u);
  EXPECT_EQ(store.frames_held(), 2u);
  EXPECT_TRUE(store.ReleaseFrame());
  EXPECT_EQ(store.frames_held(), 1u);
  // The last frame still covers the stored sub-block: packed, refuse.
  EXPECT_FALSE(store.ReleaseFrame());

  // Reserve pre-grows without any stored image, best-effort against the pool.
  EXPECT_TRUE(store.Reserve(4));
  EXPECT_EQ(store.frames_held(), 4u);
  EXPECT_FALSE(store.Reserve(100));  // the pool only has 8 frames total
  EXPECT_EQ(store.frames_held(), 8u);
}

TEST(RamTierStoreTest, PutFailsCleanlyWhenPoolExhausted) {
  TestFrameSource frames(2);
  RamTierStore store(&frames);
  Rng rng(7);

  ASSERT_TRUE(store.Put(PageKey{1, 0}, RandomImage(rng, 4 * 1024)));
  EXPECT_EQ(store.frames_held(), 1u);
  // Needs three frames but the pool can supply only one more; the partial
  // grab must roll back so failure leaves no state change.
  EXPECT_FALSE(store.Put(PageKey{1, 1}, RandomImage(rng, 8 * 1024)));
  EXPECT_EQ(store.pages(), 1u);
  EXPECT_EQ(store.sub_blocks_used(), 4u);
  EXPECT_EQ(store.frames_held(), 1u);
  EXPECT_FALSE(store.Contains(PageKey{1, 1}));
  // The rolled-back frame went back to the pool, so a fitting insert works.
  EXPECT_TRUE(store.Put(PageKey{1, 1}, RandomImage(rng, 4 * 1024)));
  EXPECT_EQ(store.frames_held(), 2u);
}

// --- tier stack --------------------------------------------------------------

TierSpec RamTier(uint64_t capacity_bytes) {
  TierSpec spec;
  spec.name = "ram";
  spec.medium = TierMedium::kCompressedRam;
  spec.capacity_bytes = capacity_bytes;
  return spec;
}

TierSpec SsdTier(uint64_t capacity_bytes) {
  TierSpec spec;
  spec.name = "ssd";
  spec.medium = TierMedium::kSsd;
  spec.capacity_bytes = capacity_bytes;
  return spec;
}

// A TierStack over a clustered layout, below the Machine level. Member order
// matters: the stack holds pointers into everything above it.
struct StackHarness {
  explicit StackHarness(TierOptions options, const std::string& stack_codec = "lzrw1")
      : codec(MakeCodec(stack_codec, 12)),
        device(&clock, std::make_unique<SeekDiskModel>(), SimDuration::Micros(500)),
        fs(&device),
        frames(64) {
    options.enabled = true;
    stack = std::make_unique<TierStack>(
        &clock, &costs, &frames, codec.get(),
        std::make_unique<ClusteredSwapLayout>(&fs, ClusteredSwapLayout::Options{}),
        std::move(options));
    stack->SetVerifyChecksums(true);
  }

  size_t CleanAudit() {
    InvariantAuditor auditor;
    auditor.set_abort_on_violation(false);
    stack->RegisterAuditChecks(&auditor);
    return auditor.RunAll();
  }

  Clock clock;
  CostModel costs;
  std::unique_ptr<Codec> codec;
  DiskDevice device;
  FileSystem fs;
  TestFrameSource frames;
  std::unique_ptr<TierStack> stack;
};

SwapPageImage StackImage(Rng& rng, PageKey key, size_t bytes, bool compressed = true) {
  SwapPageImage image;
  image.key = key;
  image.bytes.resize(bytes);
  for (uint8_t& b : image.bytes) {
    b = static_cast<uint8_t>(rng.Below(256));
  }
  image.is_compressed = compressed;
  image.original_size = kPageSize;
  image.checksum = Crc32(image.bytes);
  return image;
}

TierOptions RamSsdOptions() {
  TierOptions options;
  options.tiers = {RamTier(64 * kKiB), SsdTier(64 * kKiB)};
  options.classifier.hot_window = SimDuration::Seconds(100);
  return options;
}

TEST(TierStackTest, RoutesBySizeAndHeat) {
  StackHarness h(RamSsdOptions());
  Rng rng(11);
  ASSERT_EQ(h.stack->num_tiers(), 3u);

  const PageKey hot_small{1, 0};
  const PageKey cold_small{1, 1};
  const PageKey cold_large{1, 2};
  h.stack->classifier().NoteRead(hot_small);

  std::vector<SwapPageImage> batch;
  batch.push_back(StackImage(rng, hot_small, 800));
  batch.push_back(StackImage(rng, cold_small, 800));
  batch.push_back(StackImage(rng, cold_large, kPageSize, /*compressed=*/false));
  ASSERT_EQ(h.stack->WriteBatch(batch), IoStatus::kOk);

  EXPECT_EQ(h.stack->TierOf(hot_small), std::optional<size_t>(0));
  EXPECT_EQ(h.stack->TierOf(cold_small), std::optional<size_t>(1));
  EXPECT_EQ(h.stack->TierOf(cold_large), std::optional<size_t>(2));
  EXPECT_EQ(h.stack->tier_counters(0).landings, 1u);
  EXPECT_EQ(h.stack->tier_counters(1).landings, 1u);
  EXPECT_EQ(h.stack->tier_counters(2).landings, 1u);

  size_t listed = 0;
  h.stack->ForEachPage([&](PageKey) { ++listed; });
  EXPECT_EQ(listed, 3u);
  for (const PageKey key : {hot_small, cold_small, cold_large}) {
    EXPECT_TRUE(h.stack->Contains(key));
  }
  EXPECT_EQ(h.CleanAudit(), 0u);
}

TEST(TierStackTest, ReadsBackIdenticalBytesFromEveryTier) {
  StackHarness h(RamSsdOptions());
  Rng rng(12);
  const PageKey hot_small{1, 0};
  const PageKey cold_small{1, 1};
  const PageKey cold_large{1, 2};
  h.stack->classifier().NoteRead(hot_small);

  std::vector<SwapPageImage> batch;
  batch.push_back(StackImage(rng, hot_small, 800));
  batch.push_back(StackImage(rng, cold_small, 900));
  batch.push_back(StackImage(rng, cold_large, kPageSize, /*compressed=*/false));
  std::vector<std::vector<uint8_t>> expected;
  for (const SwapPageImage& img : batch) {
    expected.push_back(img.bytes);
  }
  ASSERT_EQ(h.stack->WriteBatch(batch), IoStatus::kOk);

  for (size_t i = 0; i < batch.size(); ++i) {
    const auto result = h.stack->ReadPage(batch[i].key, /*collect_coresidents=*/false);
    ASSERT_EQ(result.status, IoStatus::kOk) << "key " << i;
    EXPECT_EQ(result.bytes, expected[i]) << "key " << i;
    EXPECT_EQ(result.original_size, kPageSize);
  }
  EXPECT_EQ(h.stack->tier_counters(0).reads, 1u);
  EXPECT_EQ(h.stack->tier_counters(1).reads, 1u);
  EXPECT_EQ(h.stack->tier_counters(2).reads, 1u);
}

TEST(TierStackTest, CapacityOverflowDemotesLruDownTheStack) {
  TierOptions options = RamSsdOptions();
  options.tiers[0] = RamTier(4 * 1024);  // 4 sub-blocks: room for 4 small pages
  StackHarness h(options);
  Rng rng(13);

  // Five hot 1-sub-block pages: the fifth forces the LRU (first) one down.
  for (uint32_t p = 0; p < 5; ++p) {
    const PageKey key{1, p};
    h.stack->classifier().NoteRead(key);
    std::vector<SwapPageImage> batch;
    batch.push_back(StackImage(rng, key, 700));
    ASSERT_EQ(h.stack->WriteBatch(batch), IoStatus::kOk);
  }

  EXPECT_EQ(h.stack->TierOf(PageKey{1, 0}), std::optional<size_t>(1));
  EXPECT_EQ(h.stack->TierOf(PageKey{1, 4}), std::optional<size_t>(0));
  EXPECT_EQ(h.stack->tier_pages(0), 4u);
  EXPECT_LE(h.stack->tier_sub_blocks(0), 4u);
  // Boundary flow conservation: what tier 0 pushed out, tier 1 took in.
  EXPECT_EQ(h.stack->tier_counters(0).demotions_out, 1u);
  EXPECT_EQ(h.stack->tier_counters(1).demotions_in, 1u);
  EXPECT_EQ(h.CleanAudit(), 0u);
}

TEST(TierStackTest, HotReadPromotesOneTierUp) {
  TierOptions options;
  options.tiers = {RamTier(64 * kKiB)};  // stack: ram -> disk
  options.classifier.hot_window = SimDuration::Seconds(100);
  StackHarness h(options);
  Rng rng(14);

  // A cold small image lands on disk (the bottom of a two-tier stack).
  const PageKey key{1, 7};
  std::vector<SwapPageImage> batch;
  batch.push_back(StackImage(rng, key, 800));
  const std::vector<uint8_t> expected = batch[0].bytes;
  ASSERT_EQ(h.stack->WriteBatch(batch), IoStatus::kOk);
  ASSERT_EQ(h.stack->TierOf(key), std::optional<size_t>(1));

  // First read: the page was cold, so it stays put (and becomes hot).
  auto result = h.stack->ReadPage(key, /*collect_coresidents=*/false);
  ASSERT_EQ(result.status, IoStatus::kOk);
  EXPECT_EQ(h.stack->TierOf(key), std::optional<size_t>(1));

  // Second read within the hot window: the stored copy moves up into RAM.
  result = h.stack->ReadPage(key, /*collect_coresidents=*/false);
  ASSERT_EQ(result.status, IoStatus::kOk);
  EXPECT_EQ(result.bytes, expected);
  EXPECT_EQ(h.stack->TierOf(key), std::optional<size_t>(0));
  EXPECT_EQ(h.stack->tier_counters(0).promotions_in, 1u);
  EXPECT_EQ(h.stack->tier_counters(1).promotions_out, 1u);

  // Third read is served from the RAM tier, byte-identical.
  result = h.stack->ReadPage(key, /*collect_coresidents=*/false);
  ASSERT_EQ(result.status, IoStatus::kOk);
  EXPECT_EQ(result.bytes, expected);
  EXPECT_EQ(h.stack->tier_counters(0).reads, 1u);
  EXPECT_EQ(h.CleanAudit(), 0u);
}

TEST(TierStackTest, ArbiterHookDemotesUntilAFrameFrees) {
  TierOptions options = RamSsdOptions();
  options.tiers[0] = RamTier(8 * 1024);  // 2-frame wired reserve, 8 sub-blocks
  StackHarness h(options);
  Rng rng(15);

  // Four hot 2 KB pages pack the reserve exactly: 8 sub-blocks in 2 frames.
  for (uint32_t p = 0; p < 4; ++p) {
    const PageKey key{1, p};
    h.stack->classifier().NoteRead(key);
    std::vector<SwapPageImage> batch;
    batch.push_back(StackImage(rng, key, 2 * 1024));
    ASSERT_EQ(h.stack->WriteBatch(batch), IoStatus::kOk);
  }
  ASSERT_EQ(h.stack->ram_frames_held(), 2u);
  ASSERT_EQ(h.stack->tier_sub_blocks(0), 8u);
  ASSERT_LT(h.stack->TierOldestAgeNs(0),
            static_cast<uint64_t>(h.clock.Now().nanos()) + 1);

  // A packed tier demotes LRU pages down the stack until a reserve frame
  // becomes releasable: two 2-sub-block pages must leave to uncover a frame.
  ASSERT_TRUE(h.stack->TierReleaseOldestFrame(0));
  EXPECT_EQ(h.stack->ram_frames_held(), 1u);
  EXPECT_EQ(h.stack->tier_counters(0).demotions_out, 2u);
  EXPECT_EQ(h.stack->tier_counters(0).demotions_out,
            h.stack->tier_counters(1).demotions_in);

  // An emptied tier keeps its wired reserve but reports empty to the arbiter's
  // primary pass; releasing the surplus then needs no demotion at all.
  h.stack->Invalidate(PageKey{1, 2});
  h.stack->Invalidate(PageKey{1, 3});
  EXPECT_EQ(h.stack->TierOldestAgeNs(0), UINT64_MAX);
  EXPECT_EQ(h.stack->ram_frames_held(), 1u);
  EXPECT_TRUE(h.stack->TierReleaseOldestFrame(0));
  EXPECT_EQ(h.stack->ram_frames_held(), 0u);
  EXPECT_EQ(h.stack->tier_counters(0).demotions_out, 2u);  // unchanged
  // With no reserve and nothing to demote, the hook reports failure.
  EXPECT_FALSE(h.stack->TierReleaseOldestFrame(0));
  EXPECT_EQ(h.CleanAudit(), 0u);
}

TEST(TierStackTest, InvalidateDropsTheOnlyCopyWhereverItLives) {
  StackHarness h(RamSsdOptions());
  Rng rng(16);
  const PageKey hot_small{1, 0};
  const PageKey cold_small{1, 1};
  const PageKey cold_large{1, 2};
  h.stack->classifier().NoteRead(hot_small);
  std::vector<SwapPageImage> batch;
  batch.push_back(StackImage(rng, hot_small, 800));
  batch.push_back(StackImage(rng, cold_small, 800));
  batch.push_back(StackImage(rng, cold_large, kPageSize, /*compressed=*/false));
  ASSERT_EQ(h.stack->WriteBatch(batch), IoStatus::kOk);

  for (const PageKey key : {hot_small, cold_small, cold_large}) {
    ASSERT_TRUE(h.stack->Contains(key));
    h.stack->Invalidate(key);
    EXPECT_FALSE(h.stack->Contains(key));
  }
  // Absent keys are a tolerant no-op, matching the layout contract.
  h.stack->Invalidate(PageKey{9, 9});
  EXPECT_EQ(h.stack->tier_counters(0).invalidations, 1u);
  EXPECT_EQ(h.stack->tier_counters(1).invalidations, 1u);
  EXPECT_EQ(h.stack->tier_counters(2).invalidations, 1u);
  // The RAM tier's wired reserve (64 KB -> 16 frames) outlives its contents;
  // frames return to the pool only through the arbiter's release hook.
  EXPECT_EQ(h.stack->tier_pages(0), 0u);
  EXPECT_EQ(h.stack->ram_frames_held(), 16u);
  EXPECT_EQ(h.CleanAudit(), 0u);
}

TEST(TierStackTest, TranscodingTierReencodesAndDecodesOnRead) {
  // Stack codec "store" (verbatim + 1-byte header) with an lzrw1 RAM tier: the
  // tier decodes the incoming image and re-encodes it far smaller, and reads
  // return the raw page directly.
  TierOptions options;
  // A single-frame tier, so the release hook below must demote the page
  // (a roomier reserve would just hand back a surplus frame).
  TierSpec ram = RamTier(4 * 1024);
  ram.codec = "lzrw1";
  options.tiers = {ram};
  options.classifier.hot_window = SimDuration::Seconds(100);
  StackHarness h(options, /*stack_codec=*/"store");

  std::vector<uint8_t> raw(kPageSize);
  Rng rng(17);
  FillPage(raw, ContentClass::kText, rng);

  SwapPageImage image;
  image.key = PageKey{1, 3};
  image.bytes.resize(h.codec->MaxCompressedSize(kPageSize));
  image.bytes.resize(h.codec->Compress(raw, image.bytes));
  image.is_compressed = true;
  image.original_size = kPageSize;
  image.checksum = Crc32(image.bytes);
  ASSERT_GT(image.bytes.size(), static_cast<size_t>(kPageSize));  // store expands

  h.stack->classifier().NoteRead(image.key);
  std::vector<SwapPageImage> batch{image};
  ASSERT_EQ(h.stack->WriteBatch(batch), IoStatus::kOk);

  ASSERT_EQ(h.stack->TierOf(image.key), std::optional<size_t>(0));
  EXPECT_EQ(h.stack->tier_counters(0).transcodes, 1u);
  // lzrw1 on generated text beats the verbatim store encoding handily.
  EXPECT_LT(h.stack->tier_sub_blocks(0), 5u);

  auto result = h.stack->ReadPage(image.key, /*collect_coresidents=*/false);
  ASSERT_EQ(result.status, IoStatus::kOk);
  EXPECT_FALSE(result.is_compressed);
  EXPECT_EQ(result.bytes, raw);

  // Demotion decodes back to a portable raw page before it leaves the tier.
  ASSERT_TRUE(h.stack->TierReleaseOldestFrame(0));
  ASSERT_EQ(h.stack->TierOf(image.key), std::optional<size_t>(1));
  result = h.stack->ReadPage(image.key, /*collect_coresidents=*/false);
  ASSERT_EQ(result.status, IoStatus::kOk);
  EXPECT_FALSE(result.is_compressed);
  EXPECT_EQ(result.bytes, raw);
  EXPECT_EQ(h.CleanAudit(), 0u);
}

// --- full machine ------------------------------------------------------------

void TierWorkload(Heap& heap, int ops, uint64_t seed = 21) {
  Rng rng(seed);
  std::vector<uint8_t> page(kPageSize);
  for (int op = 0; op < ops; ++op) {
    const uint64_t p = rng.Below(heap.size_bytes() / kPageSize);
    if (rng.Chance(0.6)) {
      FillPage(page,
               op % 4 == 0 ? ContentClass::kRandom
                           : op % 2 == 0 ? ContentClass::kSparseNumeric
                                         : ContentClass::kText,
               rng);
      heap.WriteBytes(p * kPageSize, page);
    } else {
      heap.ReadBytes(p * kPageSize, page);
    }
  }
}

MachineConfig TieredConfig() {
  MachineConfig config = SmallConfig(true);
  config.tiers.enabled = true;
  config.tiers.tiers = {RamTier(128 * kKiB), SsdTier(512 * kKiB)};
  // Fault-service timescales are tens of milliseconds of virtual time; a page
  // must still count as recently-read by the time its next writeback happens
  // or nothing ever classifies hot.
  config.tiers.classifier.hot_window = SimDuration::Seconds(120);
  // Cap the ccache ring so evictions actually flow into the stack instead of
  // lingering in compressed-adjacent DRAM.
  config.ccache_max_frames = 128;
  return config;
}

TEST(TierMachineTest, TieredMachinePreservesContentAndAuditsClean) {
  MachineConfig tiered_config = TieredConfig();
  Machine tiered(tiered_config);
  Heap tiered_heap = tiered.NewHeap(4 * kMiB);
  TierWorkload(tiered_heap, 1500);

  Machine plain(SmallConfig(true));
  Heap plain_heap = plain.NewHeap(4 * kMiB);
  TierWorkload(plain_heap, 1500);

  // Page contents are a pure function of the access sequence — the hierarchy
  // must never change what a page reads back as, only where it waited.
  EXPECT_EQ(HashTouchedPages(tiered), HashTouchedPages(plain));

  // The stack actually engaged, and every machine-wide invariant (frame
  // conservation including RAM-tier frames, per-tier occupancy and boundary
  // flow conservation, residency coherence) holds.
  EXPECT_GT(tiered.metrics().GaugeValue("tier.ram.landings") +
                tiered.metrics().GaugeValue("tier.ram.demotions_in") +
                tiered.metrics().GaugeValue("tier.ram.promotions_in"),
            0.0);
  EXPECT_GT(tiered.metrics().GaugeValue("tier.disk.landings") +
                tiered.metrics().GaugeValue("tier.disk.demotions_in"),
            0.0);
  EXPECT_EQ(tiered.metrics().GaugeValue("tier.ram.level"), 0.0);
  EXPECT_EQ(tiered.metrics().GaugeValue("tier.ssd.level"), 1.0);
  EXPECT_EQ(tiered.metrics().GaugeValue("tier.disk.level"), 2.0);
  EXPECT_EQ(tiered.RunAudit(), 0u);

  // The RAM tier registered as an arbiter consumer under its tier name.
  bool found = false;
  for (const auto& c : tiered.arbiter().consumers()) {
    found |= c.name == "tier_ram";
  }
  EXPECT_TRUE(found);
}

TEST(TierMachineTest, TieredMachineSurvivesSustainedThrashingUnderPeriodicAudit) {
  MachineConfig config = TieredConfig();
  config.audit_interval = 32;  // audit every 32 faults, mid-flight
  Machine machine(config);
  Heap heap = machine.NewHeap(5 * kMiB);
  TierWorkload(heap, 2500, /*seed=*/33);
  EXPECT_GT(machine.pager().stats().faults, 0u);
  EXPECT_EQ(machine.RunAudit(), 0u);
  // Destruction runs the shutdown audit once more.
}

// Regression: LFS appends a failed WriteBatch per-image, so a demotion batch
// that fails under injected disk faults can still persist a subset of its
// pages in the bottom backend. The stack absorbs the demotion failure (the
// victims stay in their tier), so it must also discard those partial
// persists — or the disk holds pages the tier map places one level up
// (tier/residency-coherence "double residency").
TEST(TierMachineTest, FailedDemotionUnderInjectedFaultsLeavesNoOrphanCopies) {
  MachineConfig config = TieredConfig();
  // A small SSD tier keeps demotions flowing into the (fault-injected) disk.
  config.tiers.tiers = {RamTier(128 * kKiB), SsdTier(128 * kKiB)};
  config.compressed_swap = CompressedSwapKind::kLfs;
  config.audit_interval = 32;
  config.fault_injection.enabled = true;
  config.fault_injection.seed = 1993;
  config.fault_injection.disk_read_error_rate = 0.05;
  config.fault_injection.disk_write_error_rate = 0.05;
  Machine machine(config);
  machine.auditor().set_abort_on_violation(false);  // tally, don't abort
  Heap heap = machine.NewHeap(5 * kMiB);
  TierWorkload(heap, 2500, /*seed=*/33);
  machine.RunAudit();
  EXPECT_EQ(machine.auditor().total_violations(), 0u);
  // The injected faults actually made some demotions fail, so the discard
  // path ran rather than the schedule happening to stay clean.
  EXPECT_GT(machine.metrics().GaugeValue("tier.ram.demotion_failures") +
                machine.metrics().GaugeValue("tier.ssd.demotion_failures"),
            0.0);
}

}  // namespace
}  // namespace compcache
