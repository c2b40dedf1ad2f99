// Size/heat classifier: decides which tier an evicted compressed page lands
// in, and tracks read recency so hot pages float upward.
//
// Placement follows ZipCache's observation that compressed-size class and
// access recency are the two signals worth acting on: small hot pages are the
// cheapest to keep close (many fit per frame, and they will fault soon), while
// large cold pages waste fast-tier capacity for little expected benefit. The
// classifier folds both into a rank in [0, 1) — 0 = keep closest — and maps
// the rank proportionally onto the configured stack.
#ifndef COMPCACHE_TIER_CLASSIFIER_H_
#define COMPCACHE_TIER_CLASSIFIER_H_

#include <cstdint>
#include <unordered_map>

#include "sim/clock.h"
#include "tier/tier_config.h"
#include "util/units.h"
#include "vm/page_key.h"

namespace compcache {

class TierClassifier {
 public:
  // Compressed-size quantum: same 1 KB sub-block the superblock ccache and the
  // clustered swap fragments use, so a page's size class is consistent across
  // the whole stack.
  static constexpr uint32_t kSubBlockBytes = kPageSize / 4;
  static constexpr uint32_t kMaxSizeClass = 4;

  TierClassifier(TierClassifierOptions options, const Clock* clock)
      : options_(options), clock_(clock) {}

  // Size class 1..4: ceil(payload / 1 KB), clamped. A raw page is class 4.
  static uint32_t SizeClass(size_t payload_bytes) {
    const uint32_t sub_blocks =
        static_cast<uint32_t>((payload_bytes + kSubBlockBytes - 1) / kSubBlockBytes);
    return sub_blocks < 1 ? 1 : (sub_blocks > kMaxSizeClass ? kMaxSizeClass : sub_blocks);
  }

  // Landing tier index for an evicted image among `num_tiers` total tiers
  // (index num_tiers-1 = the unbounded disk tier). Raw (incompressible)
  // images never land in a compressed-RAM tier — keeping an uncompressed page
  // in DRAM frames is what residency is for — so the caller passes the first
  // device tier's index as a floor for them.
  size_t LandingTier(PageKey key, size_t payload_bytes, bool is_compressed,
                     size_t num_tiers, size_t first_device_tier) const {
    if (num_tiers <= 1) {
      return 0;
    }
    // rank in [0, 1): size contributes the low half, coldness the high half.
    const uint32_t size_class = SizeClass(payload_bytes);
    const double size_rank = static_cast<double>(size_class - 1) / kMaxSizeClass;  // [0, 0.75]
    const double rank = size_rank * 0.5 + (IsHot(key) ? 0.0 : 0.5);
    size_t tier = static_cast<size_t>(rank * static_cast<double>(num_tiers));
    if (tier >= num_tiers) {
      tier = num_tiers - 1;
    }
    if (!is_compressed && tier < first_device_tier) {
      tier = first_device_tier;
    }
    return tier;
  }

  // Records that `key` was just read (faulted in from the stack).
  void NoteRead(PageKey key) {
    last_read_ns_[key] = static_cast<uint64_t>(clock_->Now().nanos());
  }

  // True when `key` was read within the hot window before now.
  bool IsHot(PageKey key) const {
    const auto it = last_read_ns_.find(key);
    if (it == last_read_ns_.end()) {
      return false;
    }
    const uint64_t now = static_cast<uint64_t>(clock_->Now().nanos());
    return now - it->second <= static_cast<uint64_t>(options_.hot_window.nanos());
  }

  // Drops recency state for an invalidated page (bounds the map by the live
  // address space).
  void Forget(PageKey key) { last_read_ns_.erase(key); }

  size_t tracked_keys() const { return last_read_ns_.size(); }

 private:
  TierClassifierOptions options_;
  const Clock* clock_;
  std::unordered_map<PageKey, uint64_t, PageKeyHash> last_read_ns_;
};

}  // namespace compcache

#endif  // COMPCACHE_TIER_CLASSIFIER_H_
