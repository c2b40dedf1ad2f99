#include "tier/tier_stack.h"

#include <algorithm>
#include <utility>

#include "compress/registry.h"
#include "disk/disk_model.h"
#include "swap/clustered_swap.h"
#include "util/assert.h"
#include "util/audit.h"
#include "util/checksum.h"

namespace compcache {

namespace {

bool KeyListed(std::span<const PageKey> keys, PageKey key) {
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

}  // namespace

TierStack::TierStack(Clock* clock, const CostModel* costs, FrameSource* frames,
                     Codec* stack_codec, std::unique_ptr<CompressedSwapBackend> bottom,
                     TierOptions options)
    : clock_(clock),
      costs_(costs),
      frames_(frames),
      stack_codec_(stack_codec),
      options_(std::move(options)),
      classifier_(options_.classifier, clock),
      bottom_(std::move(bottom)) {
  CC_EXPECTS(clock_ != nullptr && costs_ != nullptr && frames_ != nullptr &&
             stack_codec_ != nullptr && bottom_ != nullptr);
  tiers_.reserve(options_.tiers.size() + 1);
  for (const TierSpec& spec : options_.tiers) {
    CC_EXPECTS(!spec.name.empty() && spec.name != "disk");
    for (const Tier& existing : tiers_) {
      CC_EXPECTS(existing.spec.name != spec.name);
    }
    Tier tier;
    tier.spec = spec;
    tier.max_sub_blocks = spec.capacity_bytes / RamTierStore::kSubBlockBytes;
    CC_EXPECTS(tier.max_sub_blocks >= RamTierStore::kSubBlocksPerFrame);
    if (!spec.codec.empty()) {
      tier.codec = MakeCodec(spec.codec);
    }
    if (spec.medium == TierMedium::kCompressedRam) {
      tier.is_ram = true;
      tier.ram = std::make_unique<RamTierStore>(frames_);
      // Wire the tier's capacity up front (best-effort): tier inserts happen
      // exactly when the pool runs dry, so a lazily-allocating tier would
      // never win a frame. The arbiter hook shrinks this reserve under
      // machine-wide pressure; Put regrows it when frames come back.
      (void)tier.ram->Reserve(spec.capacity_bytes / kPageSize);
    } else {
      NetworkLinkParams params;
      params.capacity_bytes = spec.ssd_capacity_bytes;
      params.round_trip_latency = spec.ssd_latency;
      params.bandwidth_bytes_per_sec = spec.ssd_bandwidth_bytes_per_sec;
      tier.ssd_device = std::make_unique<DiskDevice>(
          clock_, std::make_unique<NetworkLinkModel>(params), spec.ssd_io_setup);
      tier.ssd_fs = std::make_unique<FileSystem>(tier.ssd_device.get());
      tier.owned_layout = std::make_unique<ClusteredSwapLayout>(tier.ssd_fs.get());
      tier.backend = tier.owned_layout.get();
    }
    tiers_.push_back(std::move(tier));
  }
  Tier disk;
  disk.spec.name = "disk";
  disk.is_bottom = true;
  disk.max_sub_blocks = UINT64_MAX;
  disk.backend = bottom_.get();
  tiers_.push_back(std::move(disk));
  first_device_tier_ = tiers_.size() - 1;
  for (size_t t = 0; t < tiers_.size(); ++t) {
    if (!tiers_[t].is_ram) {
      first_device_tier_ = t;
      break;
    }
  }
}

TierStack::~TierStack() = default;

IoStatus TierStack::WriteBatch(std::span<const SwapPageImage> pages) {
  if (tiers_.size() == 1) {
    // Degenerate stack: forward the original span untouched — same batch, same
    // layout packing, same device requests as the unwrapped machine.
    const IoStatus status = tiers_[0].backend->WriteBatch(pages);
    if (status == IoStatus::kOk) {
      for (const SwapPageImage& image : pages) {
        CommitStore(image.key, 0, SubBlocksFor(image.bytes.size()), false, Flow::kLanding);
      }
    }
    return status;
  }
  std::vector<std::vector<SwapPageImage>> groups(tiers_.size());
  for (const SwapPageImage& image : pages) {
    const size_t t = classifier_.LandingTier(image.key, image.bytes.size(), image.is_compressed,
                                             tiers_.size(), first_device_tier_);
    groups[t].push_back(image);
  }
  // Bottom group first: the disk is the only tier whose write can fail, and
  // failing before touching the other groups keeps the "nothing recorded on
  // kFailed" contract for the common all-to-disk case.
  const size_t bottom = tiers_.size() - 1;
  if (!groups[bottom].empty()) {
    const IoStatus status =
        StorePortableBatch(bottom, std::move(groups[bottom]), Flow::kLanding, true);
    if (status != IoStatus::kOk) {
      return status;
    }
  }
  IoStatus overall = IoStatus::kOk;
  for (size_t t = 0; t < bottom; ++t) {
    if (groups[t].empty()) {
      continue;
    }
    const IoStatus status = StorePortableBatch(t, std::move(groups[t]), Flow::kLanding, true);
    if (status != IoStatus::kOk) {
      overall = status;  // a cascade reached the disk and the disk failed
    }
  }
  return overall;
}

CompressedSwapBackend::WriteTicket TierStack::SubmitWriteBatch(
    std::span<const SwapPageImage> pages) {
  std::vector<std::unique_ptr<DiskDevice::DeferredScope>> windows;
  for (Tier& tier : tiers_) {
    if (tier.ssd_device != nullptr) {
      windows.push_back(std::make_unique<DiskDevice::DeferredScope>(tier.ssd_device.get()));
    }
  }
  windows.push_back(std::make_unique<DiskDevice::DeferredScope>(device()));
  WriteTicket ticket;
  ticket.status = WriteBatch(pages);
  SimTime complete_at;
  SimDuration device_time;
  for (auto& window : windows) {
    device_time += window->busy();
    const SimTime end = window->Close();
    complete_at = std::max(complete_at, end);
  }
  ticket.device_time = device_time;
  ticket.complete_at = complete_at;
  return ticket;
}

CompressedSwapBackend::ReadResult TierStack::ReadPage(PageKey key, bool collect_coresidents) {
  const auto it = entries_.find(key);
  CC_EXPECTS(it != entries_.end());
  const size_t t = it->second.tier;
  Tier& tier = tiers_[t];
  const SimTime start = clock_->Now();
  const bool was_hot = classifier_.IsHot(key);
  ReadResult result;
  if (tier.is_ram) {
    const RamTierStore::Image& stored = tier.ram->Find(key);
    clock_->Advance(costs_->CopyCost(stored.bytes.size()), TimeCategory::kCopy);
    result.bytes = stored.bytes;
    result.is_compressed = stored.is_compressed;
    result.original_size = stored.original_size;
    result.checksum = stored.checksum;
    if (result.checksum != 0) {
      const uint32_t computed = Crc32(result.bytes);
      if (computed != result.checksum) {
        ++checksum_mismatches_;
        result.status = IoStatus::kCorrupt;
        if (tracer_ != nullptr) {
          tracer_->Record(TraceEventKind::kChecksumMismatch, clock_->Now(), key, result.checksum,
                          computed);
        }
      }
    }
  } else {
    // A transcoding tier's coresidents would carry the tier codec, which the
    // pager cannot decode, so only inherit tiers collect them.
    result = tier.backend->ReadPage(key, collect_coresidents && tier.codec == nullptr);
  }
  if (result.status == IoStatus::kOk && it->second.tier_coded) {
    DecodeTierImage(tier, &result);
  }
  ++tier.counters.reads;
  TouchLru(t, &it->second, key);
  if (tier.read_ns != nullptr) {
    tier.read_ns->Observe(static_cast<double>((clock_->Now() - start).nanos()));
  }
  if (result.status == IoStatus::kOk && t > 0 && was_hot &&
      !in_flight_key_.has_value()) {
    SwapPageImage portable;
    portable.key = key;
    portable.bytes = result.bytes;
    portable.is_compressed = result.is_compressed;
    portable.original_size = result.original_size;
    portable.checksum = result.checksum;
    std::vector<SwapPageImage> batch;
    batch.push_back(std::move(portable));
    in_flight_key_ = key;
    // kFailed means the tier above had no room even after demoting around the
    // in-flight key; the page simply stays where it is.
    (void)StorePortableBatch(t - 1, std::move(batch), Flow::kPromotion, false);
    in_flight_key_.reset();
  }
  classifier_.NoteRead(key);
  return result;
}

void TierStack::Invalidate(PageKey key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    // Tolerant no-op for never-stored keys, same as the layouts themselves.
    tiers_.back().backend->Invalidate(key);
    return;
  }
  RemoveFrom(it->second.tier, key, Removal::kInvalidated);
  // Deliberately NOT forgetting the key's read-recency stamp: the common
  // invalidation is the pager dirtying a just-faulted page, and that page is
  // the hottest thing in the machine — its next writeback should land high.
  // The stamp map stays bounded by the touched address space.
}

CompressedSwapBackend::MountStats TierStack::Mount() {
  CC_EXPECTS(entries_.empty());  // mount once, before the first WriteBatch
  Tier& bottom = tiers_.back();
  const MountStats stats = bottom.backend->Mount();
  const size_t b = tiers_.size() - 1;
  bottom.backend->ForEachPage([&](PageKey key) {
    bottom.lru.push_back(key);
    entries_[key] = Entry{b, 0, false, 0, std::prev(bottom.lru.end())};
  });
  for (Tier& tier : tiers_) {
    tier.pages_at_baseline = tier.lru.size();
  }
  return stats;
}

void TierStack::ForEachPage(const std::function<void(PageKey)>& fn) const {
  for (const auto& [key, entry] : entries_) {
    fn(key);
  }
}

void TierStack::ResetStats() {
  ResetBaseCounters();
  for (Tier& tier : tiers_) {
    tier.counters = TierCounters{};
    tier.pages_at_baseline = tier.lru.size();
    if (tier.read_ns != nullptr) {
      tier.read_ns->Reset();
    }
    if (tier.owned_layout != nullptr) {
      tier.owned_layout->ResetStats();
    }
    if (tier.ssd_device != nullptr) {
      tier.ssd_device->ResetStats();
    }
  }
  tiers_.back().backend->ResetStats();
}

void TierStack::SetTracer(EventTracer* tracer) {
  tracer_ = tracer;
  for (Tier& tier : tiers_) {
    if (tier.owned_layout != nullptr) {
      tier.owned_layout->SetTracer(tracer);
    }
  }
  tiers_.back().backend->SetTracer(tracer);
}

void TierStack::BindMetrics(MetricRegistry* registry) {
  tiers_.back().backend->BindMetrics(registry);
  for (size_t t = 0; t < tiers_.size(); ++t) {
    Tier* tier = &tiers_[t];
    const std::string prefix = "tier." + tier->spec.name + ".";
    registry->RegisterGauge(prefix + "level", [t] { return static_cast<double>(t); });
    registry->RegisterGauge(prefix + "pages",
                            [tier] { return static_cast<double>(tier->lru.size()); });
    registry->RegisterGauge(prefix + "sub_blocks",
                            [tier] { return static_cast<double>(tier->sub_blocks_used); });
    if (tier->is_ram) {
      registry->RegisterGauge(prefix + "frames", [tier] {
        return static_cast<double>(tier->ram->frames_held());
      });
    }
    const auto counter = [&](const char* name, const uint64_t* value) {
      registry->RegisterCounterGauge(prefix + name,
                                     [value] { return static_cast<double>(*value); });
    };
    counter("landings", &tier->counters.landings);
    counter("demotions_in", &tier->counters.demotions_in);
    counter("demotions_out", &tier->counters.demotions_out);
    counter("promotions_in", &tier->counters.promotions_in);
    counter("promotions_out", &tier->counters.promotions_out);
    counter("invalidations", &tier->counters.invalidations);
    counter("reads", &tier->counters.reads);
    counter("transcodes", &tier->counters.transcodes);
    counter("demotion_failures", &tier->counters.demotion_failures);
    if (tier->ssd_device != nullptr) {
      // The SSD device's own BindMetrics would collide with the bottom disk's
      // fixed "disk.*" names, so its stats surface under the tier prefix.
      DiskDevice* dev = tier->ssd_device.get();
      registry->RegisterCounterGauge(prefix + "device_read_ops", [dev] {
        return static_cast<double>(dev->stats().read_ops);
      });
      registry->RegisterCounterGauge(prefix + "device_write_ops", [dev] {
        return static_cast<double>(dev->stats().write_ops);
      });
      registry->RegisterCounterGauge(prefix + "device_busy_ns", [dev] {
        return static_cast<double>(dev->stats().busy_time.nanos());
      });
    }
    tier->read_ns = registry->BindHistogram(prefix + "read_ns");
  }
}

void TierStack::RegisterAuditChecks(InvariantAuditor* auditor) {
  tiers_.back().backend->RegisterAuditChecks(auditor);
  for (Tier& tier : tiers_) {
    if (tier.owned_layout != nullptr) {
      tier.owned_layout->RegisterAuditChecks(auditor);
    }
  }
  // Every page in exactly one tier, and the central map agrees with what the
  // per-tier stores actually hold.
  auditor->Register("tier", "residency-coherence", [this]() -> std::optional<std::string> {
    size_t total = 0;
    for (size_t t = 0; t < tiers_.size(); ++t) {
      const Tier& tier = tiers_[t];
      size_t store_pages = 0;
      std::optional<std::string> failure;
      const auto check_key = [&](PageKey key) {
        ++store_pages;
        const auto it = entries_.find(key);
        if (it == entries_.end()) {
          failure = "tier " + tier.spec.name + " holds an unmapped page";
        } else if (it->second.tier != t) {
          failure = "tier " + tier.spec.name + " holds a page mapped to tier " +
                    std::to_string(it->second.tier) + " (double residency)";
        }
      };
      if (tier.is_ram) {
        tier.ram->ForEach(check_key);
      } else {
        tier.backend->ForEachPage(check_key);
      }
      if (failure.has_value()) {
        return failure;
      }
      if (store_pages != tier.lru.size()) {
        return "tier " + tier.spec.name + " store holds " + std::to_string(store_pages) +
               " pages but lru tracks " + std::to_string(tier.lru.size());
      }
      if (tier.is_ram && tier.sub_blocks_used != tier.ram->sub_blocks_used()) {
        return "tier " + tier.spec.name + " sub_blocks " + std::to_string(tier.sub_blocks_used) +
               " != store " + std::to_string(tier.ram->sub_blocks_used());
      }
      total += store_pages;
    }
    if (total != entries_.size()) {
      return "tier stores hold " + std::to_string(total) + " pages but the map has " +
             std::to_string(entries_.size());
    }
    return std::nullopt;
  });
  // Per-tier occupancy: baseline plus inflows equals live pages plus outflows.
  auditor->Register("tier", "occupancy-conservation", [this]() -> std::optional<std::string> {
    for (const Tier& tier : tiers_) {
      const TierCounters& c = tier.counters;
      const uint64_t in = tier.pages_at_baseline + c.landings + c.demotions_in + c.promotions_in;
      const uint64_t out =
          static_cast<uint64_t>(tier.lru.size()) + c.demotions_out + c.promotions_out + c.invalidations;
      if (in != out) {
        return "tier " + tier.spec.name + " occupancy: inflows " + std::to_string(in) +
               " != live+outflows " + std::to_string(out);
      }
    }
    return std::nullopt;
  });
  // Flows move between adjacent tiers only, and never across the stack's ends.
  auditor->Register("tier", "flow-conservation", [this]() -> std::optional<std::string> {
    for (size_t t = 0; t + 1 < tiers_.size(); ++t) {
      const TierCounters& upper = tiers_[t].counters;
      const TierCounters& lower = tiers_[t + 1].counters;
      if (upper.demotions_out != lower.demotions_in) {
        return "boundary " + tiers_[t].spec.name + "/" + tiers_[t + 1].spec.name +
               ": demotions_out " + std::to_string(upper.demotions_out) + " != demotions_in " +
               std::to_string(lower.demotions_in);
      }
      if (lower.promotions_out != upper.promotions_in) {
        return "boundary " + tiers_[t].spec.name + "/" + tiers_[t + 1].spec.name +
               ": promotions_out " + std::to_string(lower.promotions_out) +
               " != promotions_in " + std::to_string(upper.promotions_in);
      }
    }
    if (tiers_.front().counters.demotions_in != 0 || tiers_.front().counters.promotions_out != 0 ||
        tiers_.back().counters.demotions_out != 0 || tiers_.back().counters.promotions_in != 0) {
      return "flow crossed the stack boundary (top received a demotion or bottom emitted one)";
    }
    return std::nullopt;
  });
}

uint64_t TierStack::TierOldestAgeNs(size_t t) const {
  const Tier& tier = tiers_[t];
  if (tier.lru.empty()) {
    return UINT64_MAX;
  }
  return entries_.at(tier.lru.front()).stamp_ns;
}

bool TierStack::TierReleaseOldestFrame(size_t t) {
  Tier& tier = tiers_[t];
  CC_EXPECTS(tier.is_ram);
  // Surplus reserve goes back for free; a packed tier must demote its oldest
  // pages down the stack until a reserve frame becomes releasable.
  while (!tier.ram->ReleaseFrame()) {
    if (!DemoteOldestFrom(t, {})) {
      return false;
    }
  }
  return true;
}

size_t TierStack::ram_frames_held() const {
  size_t total = 0;
  for (const Tier& tier : tiers_) {
    if (tier.ram != nullptr) {
      total += tier.ram->frames_held();
    }
  }
  return total;
}

uint64_t TierStack::total_checksum_mismatches() const {
  uint64_t total = checksum_mismatches_;
  for (const Tier& tier : tiers_) {
    if (tier.owned_layout != nullptr) {
      total += tier.owned_layout->checksum_mismatches();
    }
  }
  total += tiers_.back().backend->checksum_mismatches();
  return total;
}

uint64_t TierStack::total_io_failures() const {
  uint64_t total = io_failures_;
  for (const Tier& tier : tiers_) {
    if (tier.owned_layout != nullptr) {
      total += tier.owned_layout->io_failures();
    }
  }
  total += tiers_.back().backend->io_failures();
  return total;
}

std::optional<size_t> TierStack::TierOf(PageKey key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  return it->second.tier;
}

IoStatus TierStack::StorePortableBatch(size_t t, std::vector<SwapPageImage> portable, Flow flow,
                                       bool allow_fallthrough) {
  Tier& tier = tiers_[t];
  if (tier.is_bottom) {
    const IoStatus status = tier.backend->WriteBatch(portable);
    if (status != IoStatus::kOk) {
      // The layouts may persist a prefix of a failed batch (LFS appends
      // per-image). Same discipline as the ccache write paths: discard those
      // partial locations, or the backend holds pages the tier map doesn't
      // place here. Keys already mapped to this tier keep their copy — a
      // failed overwrite preserved the old one.
      DiscardPartialPersists(t, portable);
      return status;
    }
    for (const SwapPageImage& image : portable) {
      CommitStore(image.key, t, SubBlocksFor(image.bytes.size()), false, flow);
    }
    return IoStatus::kOk;
  }

  // Encode for this tier's codec; keep the portable originals for fall-through.
  std::vector<SwapPageImage> encoded = portable;
  std::vector<uint8_t> coded(encoded.size(), 0);
  std::vector<PageKey> keys;
  keys.reserve(encoded.size());
  uint64_t incoming = 0;
  for (size_t i = 0; i < encoded.size(); ++i) {
    bool tier_coded = false;
    EncodeForTier(t, &encoded[i], &tier_coded);
    coded[i] = tier_coded ? 1 : 0;
    keys.push_back(encoded[i].key);
    const uint32_t sb = SubBlocksFor(encoded[i].bytes.size());
    const auto it = entries_.find(encoded[i].key);
    if (it != entries_.end() && it->second.tier == t) {
      incoming += sb > it->second.sub_blocks ? sb - it->second.sub_blocks : 0;
    } else {
      incoming += sb;
    }
  }
  MakeRoom(t, incoming, keys);

  std::vector<size_t> leftover;
  if (tier.is_ram) {
    for (size_t i = 0; i < encoded.size(); ++i) {
      const auto make_image = [&] {
        RamTierStore::Image image;
        image.bytes = encoded[i].bytes;
        image.is_compressed = encoded[i].is_compressed;
        image.original_size = encoded[i].original_size;
        image.checksum = encoded[i].checksum;
        image.tier_coded = coded[i] != 0;
        return image;
      };
      // A Put can fail on frame shortage even under the sub-block budget (the
      // pool itself may be empty); demote more until a frame frees or the tier
      // runs dry.
      bool stored = tier.ram->Put(encoded[i].key, make_image());
      while (!stored && DemoteOldestFrom(t, keys)) {
        stored = tier.ram->Put(encoded[i].key, make_image());
      }
      if (stored) {
        CommitStore(encoded[i].key, t, SubBlocksFor(encoded[i].bytes.size()), coded[i] != 0, flow);
      } else {
        leftover.push_back(i);
      }
    }
  } else {
    const IoStatus status = tier.backend->WriteBatch(encoded);
    if (status == IoStatus::kOk) {
      for (size_t i = 0; i < encoded.size(); ++i) {
        CommitStore(encoded[i].key, t, SubBlocksFor(encoded[i].bytes.size()), coded[i] != 0, flow);
      }
    } else {
      ++io_failures_;
      DiscardPartialPersists(t, encoded);
      for (size_t i = 0; i < encoded.size(); ++i) {
        leftover.push_back(i);
      }
    }
  }

  if (leftover.empty()) {
    return IoStatus::kOk;
  }
  if (!allow_fallthrough) {
    return IoStatus::kFailed;
  }
  std::vector<SwapPageImage> down;
  down.reserve(leftover.size());
  for (const size_t i : leftover) {
    down.push_back(std::move(portable[i]));
  }
  return StorePortableBatch(t + 1, std::move(down), flow, true);
}

void TierStack::DiscardPartialPersists(size_t t, std::span<const SwapPageImage> batch) {
  Tier& tier = tiers_[t];
  for (const SwapPageImage& image : batch) {
    const auto it = entries_.find(image.key);
    if (it == entries_.end() || it->second.tier != t) {
      tier.backend->Invalidate(image.key);  // tolerant no-op if never persisted
    }
  }
}

void TierStack::MakeRoom(size_t t, uint64_t incoming_sub_blocks,
                         std::span<const PageKey> exclude) {
  Tier& tier = tiers_[t];
  if (tier.max_sub_blocks == UINT64_MAX ||
      tier.sub_blocks_used + incoming_sub_blocks <= tier.max_sub_blocks) {
    return;
  }
  uint64_t reclaim = 0;
  std::vector<PageKey> victims;
  for (const PageKey key : tier.lru) {
    if (in_flight_key_ == key || KeyListed(exclude, key)) {
      continue;
    }
    victims.push_back(key);
    reclaim += entries_.at(key).sub_blocks;
    if (tier.sub_blocks_used - reclaim + incoming_sub_blocks <= tier.max_sub_blocks) {
      break;
    }
  }
  if (victims.empty()) {
    return;  // everything eligible is in flight; tolerate transient overflow
  }
  std::vector<SwapPageImage> down;
  down.reserve(victims.size());
  for (const PageKey key : victims) {
    down.push_back(MakePortable(t, key));
  }
  const IoStatus status = StorePortableBatch(t + 1, std::move(down), Flow::kDemotion, true);
  if (status != IoStatus::kOk) {
    // Count the victims that actually stayed put (the cascade may have moved a
    // prefix before the disk failed).
    for (const PageKey key : victims) {
      const auto it = entries_.find(key);
      if (it != entries_.end() && it->second.tier == t) {
        ++tier.counters.demotion_failures;
      }
    }
  }
}

bool TierStack::DemoteOldestFrom(size_t t, std::span<const PageKey> exclude) {
  Tier& tier = tiers_[t];
  CC_EXPECTS(!tier.is_bottom);
  PageKey victim{};
  bool found = false;
  for (const PageKey key : tier.lru) {
    if (in_flight_key_ == key || KeyListed(exclude, key)) {
      continue;
    }
    victim = key;
    found = true;
    break;
  }
  if (!found) {
    return false;
  }
  std::vector<SwapPageImage> down;
  down.push_back(MakePortable(t, victim));
  if (StorePortableBatch(t + 1, std::move(down), Flow::kDemotion, true) != IoStatus::kOk) {
    ++tier.counters.demotion_failures;
    return false;
  }
  return true;
}

SwapPageImage TierStack::MakePortable(size_t t, PageKey key) {
  Tier& tier = tiers_[t];
  const Entry& entry = entries_.at(key);
  SwapPageImage image;
  image.key = key;
  if (tier.is_ram) {
    const RamTierStore::Image& stored = tier.ram->Find(key);
    clock_->Advance(costs_->CopyCost(stored.bytes.size()), TimeCategory::kCopy);
    image.bytes = stored.bytes;
    image.is_compressed = stored.is_compressed;
    image.original_size = stored.original_size;
    image.checksum = stored.checksum;
  } else {
    ReadResult result = tier.backend->ReadPage(key, false);
    image.bytes = std::move(result.bytes);
    image.is_compressed = result.is_compressed;
    image.original_size = result.original_size;
    image.checksum = result.checksum;
  }
  if (entry.tier_coded && tier.codec != nullptr) {
    std::vector<uint8_t> raw(image.original_size);
    if (tier.codec->TryDecompress(image.bytes, raw)) {
      clock_->Advance(costs_->DecompressCost(image.original_size), TimeCategory::kDecompression);
      image.bytes = std::move(raw);
      image.is_compressed = false;
      if (image.checksum != 0) {
        image.checksum = Crc32(image.bytes);
      }
    }
    // Undecodable tier-coded bytes travel verbatim; the final read detects the
    // damage. Unreachable without a corruption source on RAM/SSD tiers.
  }
  return image;
}

void TierStack::EncodeForTier(size_t t, SwapPageImage* image, bool* tier_coded) {
  Tier& tier = tiers_[t];
  *tier_coded = false;
  if (tier.codec == nullptr || IsZeroPageMarker(image->bytes)) {
    return;
  }
  std::vector<uint8_t> raw;
  if (image->is_compressed) {
    raw.resize(image->original_size);
    if (!stack_codec_->TryDecompress(image->bytes, raw)) {
      return;  // corrupt image: carry verbatim so the damage stays detectable
    }
    clock_->Advance(costs_->DecompressCost(image->original_size), TimeCategory::kDecompression);
  } else {
    raw = image->bytes;
  }
  std::vector<uint8_t> enc(tier.codec->MaxCompressedSize(raw.size()));
  const size_t enc_size = tier.codec->Compress(raw, enc);
  clock_->Advance(costs_->CompressCost(raw.size()), TimeCategory::kCompression);
  ++tier.counters.transcodes;
  // Keep the re-encoding only when it strictly shrinks the stored bytes;
  // otherwise the incoming form (stack bitstream or raw) stays, which the read
  // path can always serve without this tier's codec.
  if (enc_size < image->bytes.size()) {
    enc.resize(enc_size);
    image->bytes = std::move(enc);
    image->is_compressed = true;
    *tier_coded = true;
    if (image->checksum != 0) {
      image->checksum = Crc32(image->bytes);
    }
  }
}

void TierStack::CommitStore(PageKey key, size_t t, uint32_t sub_blocks, bool tier_coded,
                            Flow flow) {
  Tier& tier = tiers_[t];
  const uint64_t now_ns = static_cast<uint64_t>(clock_->Now().nanos());
  const auto it = entries_.find(key);
  if (it != entries_.end() && it->second.tier == t) {
    // In-place overwrite: the store already replaced the bytes; the old copy
    // counts as invalidated so occupancy stays conserved.
    tier.sub_blocks_used += sub_blocks;
    tier.sub_blocks_used -= it->second.sub_blocks;
    tier.lru.erase(it->second.lru_it);
    tier.lru.push_back(key);
    it->second.lru_it = std::prev(tier.lru.end());
    it->second.sub_blocks = sub_blocks;
    it->second.tier_coded = tier_coded;
    it->second.stamp_ns = now_ns;
    ++tier.counters.invalidations;
  } else {
    if (it != entries_.end()) {
      const size_t from = it->second.tier;
      const Removal kind = flow == Flow::kDemotion   ? Removal::kDemoted
                           : flow == Flow::kPromotion ? Removal::kPromoted
                                                      : Removal::kInvalidated;
      RemoveFrom(from, key, kind);
      if (flow == Flow::kDemotion) {
        // A demotion that fell through intermediate full tiers is booked as
        // transiting each one, so boundary flow conservation holds per hop.
        for (size_t mid = from + 1; mid < t; ++mid) {
          ++tiers_[mid].counters.demotions_in;
          ++tiers_[mid].counters.demotions_out;
        }
      }
      if (tracer_ != nullptr && flow != Flow::kLanding) {
        tracer_->Record(flow == Flow::kDemotion ? TraceEventKind::kTierDemotion
                                                : TraceEventKind::kTierPromotion,
                        clock_->Now(), key, from, t);
      }
    } else {
      CC_ASSERT(flow == Flow::kLanding);  // demotions/promotions move existing entries
    }
    tier.lru.push_back(key);
    entries_[key] = Entry{t, sub_blocks, tier_coded, now_ns, std::prev(tier.lru.end())};
    tier.sub_blocks_used += sub_blocks;
  }
  switch (flow) {
    case Flow::kLanding:
      ++tier.counters.landings;
      break;
    case Flow::kDemotion:
      ++tier.counters.demotions_in;
      break;
    case Flow::kPromotion:
      ++tier.counters.promotions_in;
      break;
  }
}

void TierStack::RemoveFrom(size_t t, PageKey key, Removal kind) {
  Tier& tier = tiers_[t];
  const auto it = entries_.find(key);
  CC_EXPECTS(it != entries_.end() && it->second.tier == t);
  if (tier.is_ram) {
    tier.ram->Erase(key);
  } else {
    tier.backend->Invalidate(key);
  }
  tier.lru.erase(it->second.lru_it);
  tier.sub_blocks_used -= it->second.sub_blocks;
  entries_.erase(it);
  switch (kind) {
    case Removal::kInvalidated:
      ++tier.counters.invalidations;
      break;
    case Removal::kDemoted:
      ++tier.counters.demotions_out;
      break;
    case Removal::kPromoted:
      ++tier.counters.promotions_out;
      break;
  }
}

void TierStack::TouchLru(size_t t, Entry* entry, PageKey key) {
  Tier& tier = tiers_[t];
  tier.lru.erase(entry->lru_it);
  tier.lru.push_back(key);
  entry->lru_it = std::prev(tier.lru.end());
  entry->stamp_ns = static_cast<uint64_t>(clock_->Now().nanos());
}

void TierStack::DecodeTierImage(Tier& tier, ReadResult* result) {
  CC_ASSERT(tier.codec != nullptr);
  std::vector<uint8_t> raw(result->original_size);
  if (!tier.codec->TryDecompress(result->bytes, raw)) {
    ++checksum_mismatches_;  // detected corruption, surfaced like a CRC failure
    result->status = IoStatus::kCorrupt;
    return;
  }
  clock_->Advance(costs_->DecompressCost(result->original_size), TimeCategory::kDecompression);
  result->bytes = std::move(raw);
  result->is_compressed = false;
  result->checksum = result->checksum != 0 ? Crc32(result->bytes) : 0;
}

}  // namespace compcache
