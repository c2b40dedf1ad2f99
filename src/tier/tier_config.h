// Configuration for the multi-tier compressed memory hierarchy.
//
// The paper's compression cache is one fixed point on a spectrum: compressed
// pages live in DRAM until the arbiter reclaims them, then go straight to the
// swap device. A TierStack generalizes the backing side of that design into a
// stack of N tiers — compressed DRAM victim frames, a compressed "SSD" with
// its own (much faster, position-free) device cost model, and finally the
// paper's disk swap layout — each with its own codec, capacity, and access
// cost, so tier-size splits and per-tier codec choices become measurable
// configuration instead of architecture (see ZipCache / CRAM in PAPERS.md).
#ifndef COMPCACHE_TIER_TIER_CONFIG_H_
#define COMPCACHE_TIER_TIER_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/time_types.h"
#include "util/units.h"

namespace compcache {

// Storage medium of one intermediate tier. The bottom (disk) tier is implicit:
// it is always the machine's configured compressed-swap layout.
enum class TierMedium {
  kCompressedRam,  // compressed page images held in frames from the machine pool
  kSsd,            // second DiskDevice with a position-free latency/bandwidth model
};

// Arbiter age bias of every kCompressedRam tier: how long the tier's frames
// are favored over other memory consumers. Device tiers hold no machine frames.
inline constexpr SimDuration kRamTierAgePenalty = SimDuration::Seconds(8);

struct TierSpec {
  // Unique label; appears in metric names ("tier.<name>.landings") and traces.
  std::string name = "ssd";
  TierMedium medium = TierMedium::kSsd;
  // Payload capacity, quantized to 1 KB sub-blocks. Exceeding it demotes the
  // tier's LRU pages to the next tier down. The implicit disk tier is unbounded.
  uint64_t capacity_bytes = 4 * kMiB;
  // Per-tier codec (any §16 registry name, including "adaptive"). Empty =
  // inherit the machine codec: images move between inheriting tiers verbatim,
  // byte-for-byte. A non-empty codec makes this a transcoding tier: demoted
  // images are decoded and re-encoded on entry, and reads return the raw page.
  std::string codec;
  // kSsd timing: flash-class, position-free (NetworkLinkModel underneath).
  SimDuration ssd_latency = SimDuration::Micros(80);
  double ssd_bandwidth_bytes_per_sec = 500.0e6;
  SimDuration ssd_io_setup = SimDuration::Micros(10);
  uint64_t ssd_capacity_bytes = 1024 * kMiB;  // device size (not the tier cap)
};

// Size/heat placement policy: where an image evicted from the compression
// cache lands, and when a read promotes a page up one tier.
struct TierClassifierOptions {
  // A page read (faulted in) within this window of virtual time counts as hot:
  // it lands high on its next eviction, and a hot read hit in a lower tier
  // promotes the stored copy one tier up.
  SimDuration hot_window = SimDuration::Millis(50);
};

struct TierOptions {
  // Off by default: the machine is wired exactly as before and no TierStack is
  // constructed. Requires use_compression_cache when enabled.
  bool enabled = false;
  // Intermediate tiers, fastest first. The disk tier (the configured
  // compressed-swap layout) is always appended below them. Empty = the
  // degenerate stack, pinned byte-identical to the unwrapped machine.
  std::vector<TierSpec> tiers;
  TierClassifierOptions classifier;
};

}  // namespace compcache

#endif  // COMPCACHE_TIER_TIER_CONFIG_H_
