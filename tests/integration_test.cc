// Configuration-matrix integration tests: every machine configuration must give
// byte-identical application results — paging policy can only change *timing*.
// A randomized workload runs against a plain in-memory reference model on
// machines spanning swap layouts, codecs, thresholds, and feature flags.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "compress/pagegen.h"
#include "core/machine.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "vm/heap.h"

namespace compcache {
namespace {

struct MatrixParam {
  std::string name;
  MachineConfig config;
};

std::vector<MatrixParam> AllConfigs() {
  std::vector<MatrixParam> params;
  params.push_back({"std", MachineConfig::Unmodified(2 * kMiB)});
  {
    MachineConfig c = MachineConfig::WithCompressionCache(2 * kMiB);
    params.push_back({"cc_clustered", c});
  }
  {
    MachineConfig c = MachineConfig::WithCompressionCache(2 * kMiB);
    c.compressed_swap = CompressedSwapKind::kFixedOffset;
    params.push_back({"cc_fixed_offset", c});
  }
  {
    MachineConfig c = MachineConfig::WithCompressionCache(2 * kMiB);
    c.compressed_swap = CompressedSwapKind::kLfs;
    params.push_back({"cc_lfs", c});
  }
  {
    MachineConfig c = MachineConfig::WithCompressionCache(2 * kMiB);
    c.codec = "wk";
    params.push_back({"cc_wk", c});
  }
  {
    MachineConfig c = MachineConfig::WithCompressionCache(2 * kMiB);
    c.codec = "rle";
    params.push_back({"cc_rle", c});
  }
  {
    MachineConfig c = MachineConfig::WithCompressionCache(2 * kMiB);
    c.threshold = CompressionThreshold(2, 1);
    params.push_back({"cc_threshold_2to1", c});
  }
  {
    MachineConfig c = MachineConfig::WithCompressionCache(2 * kMiB);
    c.allow_block_spanning = false;
    params.push_back({"cc_no_spanning", c});
  }
  {
    MachineConfig c = MachineConfig::WithCompressionCache(2 * kMiB);
    c.insert_coresidents = false;
    params.push_back({"cc_no_coresidents", c});
  }
  {
    MachineConfig c = MachineConfig::WithCompressionCache(2 * kMiB);
    c.compress_file_cache = true;
    params.push_back({"cc_compressed_file_cache", c});
  }
  {
    MachineConfig c = MachineConfig::WithCompressionCache(2 * kMiB);
    c.backing = BackingKind::kNetworkLink;
    params.push_back({"cc_network", c});
  }
  {
    MachineConfig c = MachineConfig::WithCompressionCache(2 * kMiB);
    c.fs_options.allow_partial_block_write = true;
    c.compressed_swap = CompressedSwapKind::kFixedOffset;
    params.push_back({"cc_fixed_offset_modified_fs", c});
  }
  {
    MachineConfig c = MachineConfig::WithCompressionCache(2 * kMiB);
    c.biases.ccache = SimDuration::Seconds(0);
    params.push_back({"cc_zero_bias", c});
  }
  // Composed rows, one per compressed layout: a RAM + SSD tier stack under a
  // capped ccache, the full async pipeline, and superblock packing at once.
  const std::pair<const char*, CompressedSwapKind> layouts[] = {
      {"composed_clustered", CompressedSwapKind::kClustered},
      {"composed_fixed_offset", CompressedSwapKind::kFixedOffset},
      {"composed_lfs", CompressedSwapKind::kLfs}};
  for (const auto& [name, kind] : layouts) {
    MachineConfig c = MachineConfig::WithCompressionCache(2 * kMiB);
    c.compressed_swap = kind;
    c.superblock_packing = true;
    c.ccache_max_frames = 64;
    c.pipeline.enabled = true;
    c.pipeline.write_behind_depth = 4;
    c.pipeline.prefetch = true;
    c.pipeline.fault_batch_window = 2;
    AddRamSsdTiers(&c);
    params.push_back({name, c});
  }
  return params;
}

class ConfigMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ConfigMatrixTest, RandomizedWorkloadMatchesReference) {
  Machine machine(GetParam().config);
  const uint64_t heap_bytes = 4 * kMiB;  // 2x memory: heavy paging everywhere
  Heap heap = machine.NewHeap(heap_bytes);
  std::vector<uint8_t> reference(heap_bytes, 0);
  Rng rng(2026);

  // Mixed operations: page-sized writes of varied compressibility, word stores,
  // span reads, file I/O through the buffer cache.
  const FileId file = machine.fs().Create("mix");
  std::vector<uint8_t> page(kPageSize);
  std::vector<uint8_t> span(777);
  for (int op = 0; op < 1500; ++op) {
    const double action = rng.NextDouble();
    if (action < 0.3) {
      const uint64_t p = rng.Below(heap_bytes / kPageSize);
      const auto content = static_cast<ContentClass>(
          rng.Below(static_cast<uint64_t>(AllContentClasses().size())));
      FillPage(page, AllContentClasses()[static_cast<size_t>(content)], rng);
      heap.WriteBytes(p * kPageSize, page);
      std::copy(page.begin(), page.end(),
                reference.begin() + static_cast<ptrdiff_t>(p * kPageSize));
    } else if (action < 0.6) {
      const uint64_t addr = rng.Below(heap_bytes - 8);
      const uint64_t value = rng.Next();
      heap.Store<uint64_t>(addr, value);
      std::memcpy(reference.data() + addr, &value, 8);
    } else if (action < 0.9) {
      const uint64_t addr = rng.Below(heap_bytes - span.size());
      heap.ReadBytes(addr, span);
      ASSERT_EQ(0, std::memcmp(span.data(), reference.data() + addr, span.size()))
          << GetParam().name << " op " << op;
    } else {
      // File traffic keeps the buffer cache competing for frames.
      const uint64_t off = rng.Below(256 * kKiB);
      machine.buffer_cache().Write(file, off, std::span<const uint8_t>(page.data(), 512));
    }
  }

  // Full sweep at the end: every byte must match.
  std::vector<uint8_t> out(kPageSize);
  for (uint64_t p = 0; p < heap_bytes / kPageSize; ++p) {
    heap.ReadBytes(p * kPageSize, out);
    ASSERT_EQ(0, std::memcmp(out.data(), reference.data() + p * kPageSize, kPageSize))
        << GetParam().name << " page " << p;
  }
  machine.pager().CheckInvariants();
  if (machine.ccache() != nullptr) {
    machine.ccache()->CheckInvariants();
  }
  if (const TierStack* stack = machine.tier_stack(); stack != nullptr) {
    // The composed rows must reach the intermediate tiers, not only the disk.
    for (size_t t = 0; t + 1 < stack->num_tiers(); ++t) {
      EXPECT_GT(stack->tier_counters(t).landings + stack->tier_counters(t).demotions_in, 0u)
          << GetParam().name << " tier " << stack->tier_name(t);
    }
  }
}

TEST_P(ConfigMatrixTest, DeterministicVirtualTime) {
  auto run = [&] {
    Machine machine(GetParam().config);
    Heap heap = machine.NewHeap(3 * kMiB);
    Rng rng(7);
    std::vector<uint8_t> page(kPageSize);
    for (int op = 0; op < 400; ++op) {
      const uint64_t p = rng.Below(heap.size_bytes() / kPageSize);
      FillPage(page, ContentClass::kRepetitiveText, rng);
      heap.WriteBytes(p * kPageSize, page);
    }
    return machine.clock().Now().nanos();
  };
  EXPECT_EQ(run(), run());
}


TEST(MultiProcessTest, CollectiveAddressSpacesShareTheCache) {
  // Paper section 3: "It is possible for the collective address space of all
  // running processes not to fit in memory even after compression." Two
  // processes (segments) interleave; data stays correct and the cache serves
  // faults for both.
  Machine machine(MachineConfig::WithCompressionCache(2 * kMiB));
  Heap a = machine.NewHeap(2 * kMiB);
  Heap b = machine.NewHeap(2 * kMiB);
  std::vector<uint8_t> ref_a(a.size_bytes(), 0);
  std::vector<uint8_t> ref_b(b.size_bytes(), 0);
  Rng rng(99);
  std::vector<uint8_t> page(kPageSize);

  for (int op = 0; op < 1200; ++op) {
    Heap& heap = rng.Chance(0.5) ? a : b;
    std::vector<uint8_t>& ref = (&heap == &a) ? ref_a : ref_b;
    const uint64_t p = rng.Below(heap.size_bytes() / kPageSize);
    if (rng.Chance(0.5)) {
      FillPage(page, ContentClass::kSparseNumeric, rng);
      heap.WriteBytes(p * kPageSize, page);
      std::copy(page.begin(), page.end(), ref.begin() + static_cast<ptrdiff_t>(p * kPageSize));
    } else {
      heap.ReadBytes(p * kPageSize, page);
      ASSERT_EQ(0, std::memcmp(page.data(), ref.data() + p * kPageSize, kPageSize))
          << "segment " << (&heap == &a ? 'a' : 'b') << " page " << p;
    }
  }
  EXPECT_GT(machine.ccache()->stats().fault_hits, 0u);
  machine.pager().CheckInvariants();
  machine.ccache()->CheckInvariants();
}

std::string MatrixName(const ::testing::TestParamInfo<MatrixParam>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ConfigMatrixTest, ::testing::ValuesIn(AllConfigs()),
                         MatrixName);

}  // namespace
}  // namespace compcache
