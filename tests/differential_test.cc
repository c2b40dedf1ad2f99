// Differential swap-backend checker: the four backing-store layouts are
// different encodings of the same contract, so identical workloads must
// produce identical page contents — and, for the three compressed layouts
// (which sit behind an identical ccache/pager stack), identical vm.* and
// ccache.* counter vectors. A divergence means one backend's bookkeeping or
// data path is wrong, and the per-metric diff names exactly where.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compress/pagegen.h"
#include "core/machine.h"
#include "disk/disk_device.h"
#include "disk/disk_model.h"
#include "fs/file_system.h"
#include "sim/clock.h"
#include "swap/clustered_swap.h"
#include "swap/compressed_swap_backend.h"
#include "swap/fixed_compressed_swap.h"
#include "swap/lfs_swap.h"
#include "tests/test_util.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "vm/heap.h"

namespace compcache {
namespace {

// --- backend-level: one op sequence, three layouts, byte-identical reads -----

struct BackendStack {
  explicit BackendStack(CompressedSwapKind kind)
      : device(&clock, std::make_unique<SeekDiskModel>(), SimDuration::Micros(500)),
        fs(&device) {
    switch (kind) {
      case CompressedSwapKind::kClustered:
        backend = std::make_unique<ClusteredSwapLayout>(&fs, ClusteredSwapLayout::Options{});
        break;
      case CompressedSwapKind::kFixedOffset:
        backend = std::make_unique<FixedCompressedSwapLayout>(&fs);
        break;
      case CompressedSwapKind::kLfs:
        // nullptr frames: unit-test mode, no buffer charge.
        backend = std::make_unique<LfsSwapLayout>(&fs, nullptr);
        break;
    }
  }

  Clock clock;
  DiskDevice device;
  FileSystem fs;
  std::unique_ptr<CompressedSwapBackend> backend;
};

TEST(DifferentialBackendTest, IdenticalOpSequenceYieldsIdenticalPageBytes) {
  // Heap-allocated: the stack's components hold pointers into each other, so
  // the objects must never relocate.
  std::vector<std::unique_ptr<BackendStack>> stacks;
  stacks.push_back(std::make_unique<BackendStack>(CompressedSwapKind::kClustered));
  stacks.push_back(std::make_unique<BackendStack>(CompressedSwapKind::kFixedOffset));
  stacks.push_back(std::make_unique<BackendStack>(CompressedSwapKind::kLfs));

  // Deterministic op mix over a small key space: batched writes of
  // variable-size compressed images, point reads, invalidations, overwrites.
  Rng rng(1993);
  constexpr uint32_t kPages = 96;
  std::map<uint32_t, std::vector<uint8_t>> expected;  // page -> last image
  for (int op = 0; op < 600; ++op) {
    const bool write_op = rng.Chance(0.5);
    if (write_op || expected.empty()) {
      // Write a batch of 1..6 fresh images.
      const size_t batch_size = 1 + rng.Below(6);
      std::vector<SwapPageImage> batch;
      for (size_t i = 0; i < batch_size; ++i) {
        const uint32_t page = static_cast<uint32_t>(rng.Below(kPages));
        bool dup = false;
        for (const SwapPageImage& img : batch) {
          dup |= img.key.page == page;
        }
        if (dup) {
          continue;  // one image per key per batch (the ccache's discipline)
        }
        SwapPageImage img;
        img.key = PageKey{1, page};
        img.bytes.resize(64 + rng.Below(kPageSize - 64));
        for (uint8_t& b : img.bytes) {
          b = static_cast<uint8_t>(rng.Below(256));
        }
        img.is_compressed = true;
        img.original_size = kPageSize;
        img.checksum = Crc32(img.bytes);
        expected[page] = img.bytes;
        batch.push_back(std::move(img));
      }
      for (auto& s : stacks) {
        ASSERT_EQ(s->backend->WriteBatch(batch), IoStatus::kOk);
      }
    } else if (rng.Chance(0.2)) {
      const uint32_t page = std::next(expected.begin(),
                                      static_cast<long>(rng.Below(expected.size())))
                                ->first;
      for (auto& s : stacks) {
        s->backend->Invalidate(PageKey{1, page});
      }
      expected.erase(page);
    } else {
      const uint32_t page = std::next(expected.begin(),
                                      static_cast<long>(rng.Below(expected.size())))
                                ->first;
      for (auto& s : stacks) {
        ASSERT_TRUE(s->backend->Contains(PageKey{1, page}));
        const auto result = s->backend->ReadPage(PageKey{1, page},
                                                /*collect_coresidents=*/false);
        ASSERT_EQ(result.status, IoStatus::kOk);
        EXPECT_EQ(result.bytes, expected[page]) << "page " << page << " diverged";
        EXPECT_EQ(result.original_size, kPageSize);
      }
    }
  }

  // Final sweep: every live page reads back identically everywhere; every
  // layout agrees on exactly which pages exist.
  for (auto& s : stacks) {
    size_t stored = 0;
    s->backend->ForEachPage([&](PageKey) { ++stored; });
    EXPECT_EQ(stored, expected.size());
    for (const auto& [page, bytes] : expected) {
      const auto result = s->backend->ReadPage(PageKey{1, page}, false);
      ASSERT_EQ(result.status, IoStatus::kOk);
      EXPECT_EQ(result.bytes, bytes);
    }
  }
}

// --- machine-level: full stack, four backends, one workload ------------------

// A configuration where backing-store geometry cannot leak into scheduling:
// the network backing model is position-free and is given zero latency and
// effectively infinite bandwidth, CPU-side costs are effectively free, and
// coresident insertion (inherently layout-specific) is off. Any remaining
// counter difference between compressed backends is a real bookkeeping bug,
// not a timing echo.
MachineConfig NeutralConfig(bool use_cc, uint64_t memory_bytes) {
  MachineConfig config = use_cc ? MachineConfig::WithCompressionCache(memory_bytes)
                                : MachineConfig::Unmodified(memory_bytes);
  config.backing = BackingKind::kNetworkLink;
  config.network_params.round_trip_latency = SimDuration::Nanos(0);
  config.network_params.bandwidth_bytes_per_sec = 1e18;
  config.costs.compress_bytes_per_sec = 1e18;
  config.costs.decompress_bytes_per_sec = 1e18;
  config.costs.memcpy_bytes_per_sec = 1e18;
  config.costs.zero_scan_bytes_per_sec = 1e18;
  config.costs.fault_overhead = SimDuration::Nanos(0);
  config.costs.io_setup_overhead = SimDuration::Nanos(0);
  config.insert_coresidents = false;
  config.charge_metadata_overhead = false;
  return config;
}

void RunWorkload(Heap& heap) {
  Rng rng(42);
  std::vector<uint8_t> page(kPageSize);
  for (int op = 0; op < 2500; ++op) {
    const uint64_t p = rng.Below(heap.size_bytes() / kPageSize);
    if (rng.Chance(0.65)) {
      FillPage(page,
               op % 5 == 0 ? ContentClass::kRandom
                           : op % 2 == 0 ? ContentClass::kSparseNumeric
                                         : ContentClass::kText,
               rng);
      heap.WriteBytes(p * kPageSize, page);
    } else {
      heap.ReadBytes(p * kPageSize, page);
    }
  }
}

struct MachineRun {
  std::string name;
  std::vector<std::vector<uint8_t>> pages;               // final page contents
  std::vector<std::pair<std::string, double>> snapshot;  // full metric snapshot
};

MachineRun RunOne(const std::string& name, bool use_cc, CompressedSwapKind kind,
                  bool superblock_packing = false, bool degenerate_tiers = false) {
  // The LFS layout wires its 128-frame segment buffer out of the pool at
  // construction. Give every other machine a pool that is 128 frames smaller,
  // so the *usable* frame count — which drives cleaner pacing and arbiter
  // pressure — evolves identically across backends.
  const bool is_lfs = use_cc && kind == CompressedSwapKind::kLfs;
  const uint64_t memory = is_lfs ? 2 * kMiB + 128 * kPageSize : 2 * kMiB;
  MachineConfig config = NeutralConfig(use_cc, memory);
  config.compressed_swap = kind;
  config.superblock_packing = superblock_packing;
  // An enabled tier stack with no intermediate tiers: the wrapper must forward
  // every operation verbatim, with zero cost and zero behavioral difference.
  config.tiers.enabled = degenerate_tiers;
  Machine machine(config);

  Heap heap = machine.NewHeap(3 * kMiB);
  RunWorkload(heap);

  MachineRun run;
  run.name = name;
  const uint64_t num_pages = heap.size_bytes() / kPageSize;
  run.pages.resize(num_pages);
  for (uint64_t p = 0; p < num_pages; ++p) {
    run.pages[p].resize(kPageSize);
    heap.ReadBytes(p * kPageSize, run.pages[p]);
  }
  run.snapshot = machine.metrics().Snapshot();
  return run;
}

// Counter families that must match exactly across the compressed backends.
bool IsComparedMetric(const std::string& name) {
  return name.rfind("vm.", 0) == 0 || name.rfind("ccache.", 0) == 0;
}

TEST(DifferentialMachineTest, AllBackendsProduceIdenticalPageContents) {
  const std::vector<MachineRun> runs = {
      RunOne("clustered", true, CompressedSwapKind::kClustered),
      RunOne("fixed_compressed", true, CompressedSwapKind::kFixedOffset),
      RunOne("lfs", true, CompressedSwapKind::kLfs),
      RunOne("std", false, CompressedSwapKind::kClustered),
  };

  const MachineRun& gold = runs[0];
  for (size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].pages.size(), gold.pages.size());
    for (size_t p = 0; p < gold.pages.size(); ++p) {
      ASSERT_EQ(runs[r].pages[p], gold.pages[p])
          << "page " << p << " differs between " << gold.name << " and " << runs[r].name;
    }
  }

  // The three compressed machines sit behind the identical pager + ccache
  // stack; their entire vm.* / ccache.* counter vectors must agree. Diff
  // metric-by-metric so a divergence names the counter, not just "mismatch".
  std::map<std::string, double> baseline;
  for (const auto& [name, value] : gold.snapshot) {
    if (IsComparedMetric(name)) {
      baseline[name] = value;
    }
  }
  ASSERT_GT(baseline.size(), 20u);
  EXPECT_GT(baseline.at("vm.faults_from_swap"), 0.0)
      << "workload never reached the backing store; the comparison is vacuous";

  for (size_t r = 1; r < 3; ++r) {
    std::map<std::string, double> other;
    for (const auto& [name, value] : runs[r].snapshot) {
      if (IsComparedMetric(name)) {
        other[name] = value;
      }
    }
    ASSERT_EQ(other.size(), baseline.size()) << runs[r].name;
    for (const auto& [name, value] : baseline) {
      ASSERT_TRUE(other.contains(name)) << runs[r].name << " lacks " << name;
      EXPECT_EQ(other.at(name), value)
          << name << " diverges: " << gold.name << "=" << value << " " << runs[r].name
          << "=" << other.at(name);
    }
  }
}

// Superblock frame packing changes the ring geometry (quantized footprints,
// co-resident frames, padded zero entries) but none of the data-path or
// bookkeeping contracts: the three compressed backends must still agree on
// every page byte and every vm.* / ccache.* counter — including the new
// ccache.superblock.* family — and every machine must still end with the page
// contents of an unmodified one.
TEST(DifferentialMachineTest, SuperblockPackingKeepsBackendsIdentical) {
  const std::vector<MachineRun> runs = {
      RunOne("clustered+sb", true, CompressedSwapKind::kClustered, /*superblock=*/true),
      RunOne("fixed+sb", true, CompressedSwapKind::kFixedOffset, /*superblock=*/true),
      RunOne("lfs+sb", true, CompressedSwapKind::kLfs, /*superblock=*/true),
      RunOne("std", false, CompressedSwapKind::kClustered),
  };

  const MachineRun& gold = runs[0];
  for (size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].pages.size(), gold.pages.size());
    for (size_t p = 0; p < gold.pages.size(); ++p) {
      ASSERT_EQ(runs[r].pages[p], gold.pages[p])
          << "page " << p << " differs between " << gold.name << " and " << runs[r].name;
    }
  }

  std::map<std::string, double> baseline;
  for (const auto& [name, value] : gold.snapshot) {
    if (IsComparedMetric(name)) {
      baseline[name] = value;
    }
  }
  EXPECT_GT(baseline.at("vm.faults_from_swap"), 0.0)
      << "workload never reached the backing store; the comparison is vacuous";
  // Packing actually engaged: quantization pads every non-frame-sized entry.
  EXPECT_GT(baseline.at("ccache.superblock.pad_bytes"), 0.0);
  EXPECT_GT(baseline.at("ccache.superblock.packed_inserts"), 0.0);

  for (size_t r = 1; r < 3; ++r) {
    std::map<std::string, double> other;
    for (const auto& [name, value] : runs[r].snapshot) {
      if (IsComparedMetric(name)) {
        other[name] = value;
      }
    }
    ASSERT_EQ(other.size(), baseline.size()) << runs[r].name;
    for (const auto& [name, value] : baseline) {
      ASSERT_TRUE(other.contains(name)) << runs[r].name << " lacks " << name;
      EXPECT_EQ(other.at(name), value)
          << name << " diverges: " << gold.name << "=" << value << " " << runs[r].name
          << "=" << other.at(name);
    }
  }
}

// The degenerate tier stack (tiers.enabled, empty tier list) interposes the
// TierStack between the ccache and the configured layout but adds no
// intermediate tiers. It must be a perfect no-op: final page bytes and the
// ENTIRE metric snapshot — timing gauges included — byte-identical to the
// unwrapped machine, for every compressed backend. The only new names allowed
// are the stack's own "tier." family (which exists so bench JSON schemas stay
// stable whether or not intermediate tiers are configured).
TEST(DifferentialMachineTest, DegenerateTierStackIsByteIdentical) {
  const struct {
    const char* name;
    CompressedSwapKind kind;
  } kBackends[] = {
      {"clustered", CompressedSwapKind::kClustered},
      {"fixed_compressed", CompressedSwapKind::kFixedOffset},
      {"lfs", CompressedSwapKind::kLfs},
  };
  for (const auto& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    const MachineRun plain = RunOne(backend.name, true, backend.kind,
                                    /*superblock_packing=*/false,
                                    /*degenerate_tiers=*/false);
    const MachineRun tiered = RunOne(std::string(backend.name) + "+tiers", true,
                                     backend.kind, /*superblock_packing=*/false,
                                     /*degenerate_tiers=*/true);

    ASSERT_EQ(tiered.pages.size(), plain.pages.size());
    for (size_t p = 0; p < plain.pages.size(); ++p) {
      ASSERT_EQ(tiered.pages[p], plain.pages[p]) << "page " << p << " diverged";
    }

    std::map<std::string, double> tiered_metrics;
    for (const auto& [name, value] : tiered.snapshot) {
      tiered_metrics[name] = value;
    }
    size_t extra = tiered_metrics.size();
    for (const auto& [name, value] : plain.snapshot) {
      ASSERT_TRUE(tiered_metrics.contains(name)) << "tiered machine lacks " << name;
      // "audit." gauges count registered checks, not machine behavior; the
      // stack legitimately registers its own conservation checks.
      if (name.rfind("audit.", 0) != 0) {
        EXPECT_EQ(tiered_metrics.at(name), value) << name << " diverges";
      }
      --extra;
    }
    // Everything the tiered machine adds belongs to the stack's own family.
    size_t tier_names = 0;
    for (const auto& [name, value] : tiered_metrics) {
      tier_names += name.rfind("tier.", 0) == 0 ? 1 : 0;
    }
    EXPECT_EQ(extra, tier_names);
    EXPECT_GT(tier_names, 0u);
    // The comparison exercised the stack: pages actually flowed through it.
    EXPECT_GT(tiered_metrics.at("tier.disk.landings"), 0.0);
  }
}

}  // namespace
}  // namespace compcache
