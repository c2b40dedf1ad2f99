// TierStack: a stack of compressed memory tiers behind the compression cache.
//
// The stack implements the CompressedSwapBackend contract, so to the ccache,
// pager, and write-behind decorator it *is* the backing store; internally it
// routes each written image through a size/heat classifier onto one of N
// tiers — compressed-DRAM victim frames, a flash-class second device, and the
// machine's configured disk swap layout at the bottom — and drives demotion
// (capacity overflow, arbiter reclaim) and promotion (hot read hits) flows
// between adjacent tiers. Every page lives in exactly one tier; per-tier
// occupancy and flow conservation are audited, and the degenerate stack (no
// intermediate tiers) forwards verbatim, byte-identical to the unwrapped
// machine.
#ifndef COMPCACHE_TIER_TIER_STACK_H_
#define COMPCACHE_TIER_TIER_STACK_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "compress/codec.h"
#include "disk/disk_device.h"
#include "fs/file_system.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "swap/compressed_swap_backend.h"
#include "tier/classifier.h"
#include "tier/ram_store.h"
#include "tier/tier_config.h"
#include "vm/frame_source.h"
#include "vm/page_key.h"

namespace compcache {

// Per-tier event counters, published as "tier.<name>.*" counter gauges.
// Conservation identities (audited, and re-checked over bench JSON):
//   baseline + landings + demotions_in + promotions_in
//     == pages + demotions_out + promotions_out + invalidations      (per tier)
//   demotions_out[i] == demotions_in[i+1]                            (boundary)
//   promotions_out[i+1] == promotions_in[i]                          (boundary)
struct TierCounters {
  uint64_t landings = 0;        // images stored directly from a WriteBatch
  uint64_t demotions_in = 0;    // received from the tier above
  uint64_t demotions_out = 0;   // pushed to the tier below
  uint64_t promotions_in = 0;   // received from the tier below (hot reads)
  uint64_t promotions_out = 0;  // pulled up by the tier above
  uint64_t invalidations = 0;   // dropped (explicit Invalidate or overwrite)
  uint64_t reads = 0;           // fault-path reads served by this tier
  uint64_t transcodes = 0;      // images re-encoded with the tier codec
  uint64_t demotion_failures = 0;  // demotions aborted (disk write failed)
};

class TierStack : public CompressedSwapBackend {
 public:
  // `bottom` is the machine's configured swap layout; it becomes the unbounded
  // lowest tier. `stack_codec` is the machine codec images arrive encoded with.
  TierStack(Clock* clock, const CostModel* costs, FrameSource* frames,
            Codec* stack_codec, std::unique_ptr<CompressedSwapBackend> bottom,
            TierOptions options);
  ~TierStack() override;

  // --- CompressedSwapBackend ---
  IoStatus WriteBatch(std::span<const SwapPageImage> pages) override;
  // Opens a deferred window on *every* device in the stack (bottom disk plus
  // each SSD tier) so a write-behind submit defers all device time, not just
  // the bottom disk's: device_time sums the windows, complete_at is their max.
  WriteTicket SubmitWriteBatch(std::span<const SwapPageImage> pages) override;
  DiskDevice* device() override { return tiers_.back().backend->device(); }
  bool Contains(PageKey key) const override { return entries_.contains(key); }
  ReadResult ReadPage(PageKey key, bool collect_coresidents) override;
  void Invalidate(PageKey key) override;
  MountStats Mount() override;
  void ForEachPage(const std::function<void(PageKey)>& fn) const override;
  void RegisterAuditChecks(InvariantAuditor* auditor) override;
  void ResetStats() override;
  void BindMetrics(MetricRegistry* registry) override;
  void SetTracer(EventTracer* tracer) override;

  // --- machine integration ---
  size_t num_tiers() const { return tiers_.size(); }
  const std::string& tier_name(size_t t) const { return tiers_[t].spec.name; }
  bool tier_is_ram(size_t t) const { return tiers_[t].is_ram; }
  // Arbiter hooks for compressed-RAM tiers: the virtual timestamp of the
  // tier's LRU entry (UINT64_MAX when empty), and demote-until-a-frame-frees.
  uint64_t TierOldestAgeNs(size_t t) const;
  bool TierReleaseOldestFrame(size_t t);
  // Frames currently held by compressed-RAM tiers (frame-conservation term).
  size_t ram_frames_held() const;
  // Integrity counters summed across the stack's own detection and every tier
  // backend (the base-class accessors only see this object's).
  uint64_t total_checksum_mismatches() const;
  uint64_t total_io_failures() const;
  // The adopted disk layout (for the machine's typed-alias debug check).
  CompressedSwapBackend* bottom_backend() { return tiers_.back().backend; }

  // --- introspection (tests, Report) ---
  const TierCounters& tier_counters(size_t t) const { return tiers_[t].counters; }
  size_t tier_pages(size_t t) const { return tiers_[t].lru.size(); }
  uint64_t tier_sub_blocks(size_t t) const { return tiers_[t].sub_blocks_used; }
  // Tier index currently holding `key`, if any.
  std::optional<size_t> TierOf(PageKey key) const;
  TierClassifier& classifier() { return classifier_; }
  DiskDevice* ssd_device(size_t t) { return tiers_[t].ssd_device.get(); }

 private:
  enum class Flow { kLanding, kDemotion, kPromotion };
  enum class Removal { kInvalidated, kDemoted, kPromoted };

  struct Entry {
    size_t tier = 0;
    uint32_t sub_blocks = 0;
    bool tier_coded = false;    // stored bytes use the tier codec
    uint64_t stamp_ns = 0;      // last landing/touch (LRU age for the arbiter)
    std::list<PageKey>::iterator lru_it;
  };

  struct Tier {
    TierSpec spec;
    bool is_bottom = false;
    bool is_ram = false;
    uint64_t max_sub_blocks = UINT64_MAX;
    std::unique_ptr<Codec> codec;  // null = inherit the stack codec
    // kCompressedRam medium:
    std::unique_ptr<RamTierStore> ram;
    // kSsd medium (own device + file system + clustered layout):
    std::unique_ptr<DiskDevice> ssd_device;
    std::unique_ptr<FileSystem> ssd_fs;
    std::unique_ptr<CompressedSwapBackend> owned_layout;
    CompressedSwapBackend* backend = nullptr;  // owned_layout or the bottom
    std::list<PageKey> lru;  // front = oldest
    uint64_t sub_blocks_used = 0;
    uint64_t pages_at_baseline = 0;  // occupancy at construction/Mount/ResetStats
    TierCounters counters;
    LatencyHistogram* read_ns = nullptr;  // owned by the bound registry
  };

  // Stores stack-portable images (stack-codec bitstream, raw page, or zero
  // marker) into tier `t`, transcoding on entry when the tier has its own
  // codec and demoting the tier's LRU pages downward to make room. Images
  // that still cannot be stored fall through to the next tier (unless
  // `allow_fallthrough` is false, the promotion case, where the store aborts
  // with kFailed and the page stays put). Only the bottom tier can fail a
  // physical write; its kFailed propagates up with nothing recorded.
  IoStatus StorePortableBatch(size_t t, std::vector<SwapPageImage> portable, Flow flow,
                              bool allow_fallthrough);
  // After a failed device write of `batch` into tier `t`: invalidates every
  // batch key the tier map does not place in `t`, discarding any prefix the
  // layout persisted before failing (LFS appends per-image). Keys mapped to
  // `t` keep their copy — a failed overwrite preserved the old one.
  void DiscardPartialPersists(size_t t, std::span<const SwapPageImage> batch);
  // Demotes LRU pages of tier `t` (skipping `exclude` and the in-flight key)
  // until `incoming_sub_blocks` fit under the tier's capacity. Best effort:
  // a failed demotion leaves the tier transiently over capacity.
  void MakeRoom(size_t t, uint64_t incoming_sub_blocks,
                std::span<const PageKey> exclude);
  // Reads tier `t`'s copy of `key` back into stack-portable form (decoding a
  // tier-coded image to a raw page), charging the tier's access cost.
  SwapPageImage MakePortable(size_t t, PageKey key);
  // Re-encodes a portable image for tier `t`'s codec. No-op (verbatim) for
  // inheriting tiers, zero markers, and undecodable images.
  void EncodeForTier(size_t t, SwapPageImage* image, bool* tier_coded);
  // Bookkeeping after a physical store of `key` into tier `t`: moves or
  // refreshes the entry, removes any old copy, bumps flow counters.
  void CommitStore(PageKey key, size_t t, uint32_t sub_blocks, bool tier_coded, Flow flow);
  // Physical removal + bookkeeping + the removal-kind counter.
  void RemoveFrom(size_t t, PageKey key, Removal kind);
  // Demotes tier `t`'s LRU page (skipping `exclude` and the in-flight key) one
  // tier down; false when nothing was eligible or the demotion failed.
  bool DemoteOldestFrom(size_t t, std::span<const PageKey> exclude);
  void TouchLru(size_t t, Entry* entry, PageKey key);
  // Decodes a tier-coded image to the raw page in `result` (is_compressed
  // becomes false). On decode failure marks the result kCorrupt.
  void DecodeTierImage(Tier& tier, ReadResult* result);

  static uint32_t SubBlocksFor(size_t bytes) { return RamTierStore::SubBlocksFor(bytes); }

  Clock* clock_;
  const CostModel* costs_;
  FrameSource* frames_;
  Codec* stack_codec_;
  TierOptions options_;
  TierClassifier classifier_;
  std::vector<Tier> tiers_;         // fastest first; back() = bottom (disk)
  std::unique_ptr<CompressedSwapBackend> bottom_;  // owned; aliased by back().backend
  size_t first_device_tier_ = 0;    // raw images never land above this index
  std::unordered_map<PageKey, Entry, PageKeyHash> entries_;
  std::optional<PageKey> in_flight_key_;  // promotion guard: never demoted
  EventTracer* tracer_ = nullptr;
};

}  // namespace compcache

#endif  // COMPCACHE_TIER_TIER_STACK_H_
