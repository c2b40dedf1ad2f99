// Shared helpers for the test suite.
#ifndef COMPCACHE_TESTS_TEST_UTIL_H_
#define COMPCACHE_TESTS_TEST_UTIL_H_

#include <memory>

#include "core/machine.h"

namespace compcache {

// A small machine for fast tests. Memory defaults to 2 MB (512 frames).
inline MachineConfig SmallConfig(bool use_ccache, uint64_t memory_bytes = 2 * kMiB) {
  MachineConfig config = use_ccache ? MachineConfig::WithCompressionCache(memory_bytes)
                                    : MachineConfig::Unmodified(memory_bytes);
  return config;
}

// Turns on a RAM 128 KiB + SSD 512 KiB tier stack. The hot window outlives a
// fault's virtual service time (tens of ms), so pages can count as hot.
inline void AddRamSsdTiers(MachineConfig* config) {
  config->tiers.enabled = true;
  TierSpec ram;
  ram.name = "ram";
  ram.medium = TierMedium::kCompressedRam;
  ram.capacity_bytes = 128 * kKiB;
  TierSpec ssd;
  ssd.name = "ssd";
  ssd.medium = TierMedium::kSsd;
  ssd.capacity_bytes = 512 * kKiB;
  config->tiers.tiers = {ram, ssd};
  config->tiers.classifier.hot_window = SimDuration::Seconds(120);
}

// FNV-1a hash over every materialized page of every live segment (segment id,
// page index, page bytes), read through the pager. Two machines whose
// workloads computed the same data hash equal no matter how the pages are
// currently distributed between frames, the compression cache, and the
// backing store. Reading faults non-resident pages back in, so call this only
// after the measured run.
inline uint64_t HashTouchedPages(Machine& machine) {
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const uint8_t* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  Pager& pager = machine.pager();
  for (size_t s = 0; s < pager.num_segments(); ++s) {
    Segment* seg = pager.GetSegment(static_cast<uint32_t>(s));
    if (seg == nullptr || seg->torn_down()) {
      continue;
    }
    for (uint32_t p = 0; p < seg->num_pages(); ++p) {
      if (seg->page(p).state == PageState::kUntouched) {
        continue;
      }
      const uint32_t id = seg->id();
      mix(reinterpret_cast<const uint8_t*>(&id), sizeof(id));
      mix(reinterpret_cast<const uint8_t*>(&p), sizeof(p));
      const auto frame = pager.Access(*seg, p, /*write=*/false);
      mix(frame.data(), frame.size());
    }
  }
  return h;
}

// A standalone FrameSource over a private pool, for unit-testing components
// below the Machine level. Aborts when the pool is exhausted.
class TestFrameSource : public FrameSource {
 public:
  explicit TestFrameSource(size_t frames) : pool_(frames) {}

  FrameId AllocateFrame() override {
    auto frame = pool_.TryAllocate();
    CC_ASSERT(frame.has_value() && "test frame pool exhausted");
    return *frame;
  }
  std::optional<FrameId> TryAllocateFrame() override { return pool_.TryAllocate(); }
  void FreeFrame(FrameId id) override { pool_.Free(id); }
  std::span<uint8_t> FrameData(FrameId id) override { return pool_.Data(id); }

  FramePool& pool() { return pool_; }

 private:
  FramePool pool_;
};

}  // namespace compcache

#endif  // COMPCACHE_TESTS_TEST_UTIL_H_
