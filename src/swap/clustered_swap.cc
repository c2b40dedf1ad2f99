#include "swap/clustered_swap.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>

#include "util/assert.h"
#include "util/audit.h"
#include "util/checksum.h"
#include "util/wire.h"

namespace compcache {

namespace {

uint32_t FragsFor(size_t bytes) {
  return static_cast<uint32_t>((bytes + kSwapFragmentSize - 1) / kSwapFragmentSize);
}

}  // namespace

ClusteredSwapLayout::ClusteredSwapLayout(FileSystem* fs, Options options)
    : fs_(fs), options_(options) {
  CC_EXPECTS(fs_ != nullptr);
  file_ = fs_->OpenOrCreate("cswap");
  if (options_.durable) {
    journal_ = std::make_unique<SwapJournal>(fs_, "cswap.journal");
  }
}

void ClusteredSwapLayout::BindMetrics(MetricRegistry* registry) {
  CC_EXPECTS(registry != nullptr);
  const ClusteredSwapStats* s = &stats_;
  const auto gauge = [&](const char* name, const uint64_t ClusteredSwapStats::*field) {
    registry->RegisterCounterGauge(name,
                                   [s, field] { return static_cast<double>(s->*field); });
  };
  gauge("swap.clustered.batches_written", &ClusteredSwapStats::batches_written);
  gauge("swap.clustered.pages_written", &ClusteredSwapStats::pages_written);
  gauge("swap.clustered.pages_read", &ClusteredSwapStats::pages_read);
  gauge("swap.clustered.fragment_bytes_written", &ClusteredSwapStats::fragment_bytes_written);
  gauge("swap.clustered.payload_bytes_written", &ClusteredSwapStats::payload_bytes_written);
  gauge("swap.clustered.blocks_reused", &ClusteredSwapStats::blocks_reused);
  gauge("swap.clustered.blocks_appended", &ClusteredSwapStats::blocks_appended);
  gauge("swap.clustered.coresident_pages_returned",
        &ClusteredSwapStats::coresident_pages_returned);
  gauge("swap.clustered.readahead_blocks_read",
        &ClusteredSwapStats::readahead_blocks_read);
  // Base-class counter (bumped when a coresident fails its CRC and is not
  // returned); published here so silent integrity drops are observable.
  registry->RegisterCounterGauge("swap.clustered.coresidents_dropped", [this] {
    return static_cast<double>(coresidents_dropped());
  });
  registry->RegisterGauge("swap.clustered.live_pages",
                          [this] { return static_cast<double>(locations_.size()); });
  registry->RegisterGauge("swap.clustered.free_blocks",
                          [this] { return static_cast<double>(free_block_count_); });
  registry->RegisterGauge("swap.clustered.free_runs",
                          [this] { return static_cast<double>(free_runs_.size()); });
}

uint64_t ClusteredSwapLayout::AllocateBlocks(uint64_t blocks) {
  CC_EXPECTS(blocks > 0);
  // First fit by address: the lowest-addressed run long enough. Taking the
  // prefix of that run is exactly what the old per-block scan did when its
  // running count first reached `blocks`.
  for (auto it = free_runs_.begin(); it != free_runs_.end(); ++it) {
    if (it->second < blocks) {
      continue;
    }
    const uint64_t run_start = it->first;
    const uint64_t remainder = it->second - blocks;
    free_runs_.erase(it);
    if (remainder > 0) {
      free_runs_.emplace(run_start + blocks, remainder);
    }
    free_block_count_ -= blocks;
    stats_.blocks_reused += blocks;
    return run_start;
  }
  // Otherwise extend the swap file.
  const uint64_t start = end_block_;
  end_block_ += blocks;
  stats_.blocks_appended += blocks;
  CC_ASSERT(end_block_ * kFsBlockSize <= fs_->disk()->capacity());
  return start;
}

void ClusteredSwapLayout::FreeBlockRun(uint64_t start, uint64_t len) {
  CC_EXPECTS(len > 0);
  free_block_count_ += len;  // only the newly freed blocks; merges below don't add
  // Find the run after `start` and the one before it; merge with either side
  // that touches so the map always holds maximal runs.
  auto next = free_runs_.lower_bound(start);
  if (next != free_runs_.begin()) {
    auto prev = std::prev(next);
    CC_ASSERT(prev->first + prev->second <= start && "double free of swap block");
    if (prev->first + prev->second == start) {
      start = prev->first;
      len += prev->second;
      free_runs_.erase(prev);
    }
  }
  if (next != free_runs_.end()) {
    CC_ASSERT(start + len <= next->first && "double free of swap block");
    if (start + len == next->first) {
      len += next->second;
      free_runs_.erase(next);
    }
  }
  free_runs_.emplace(start, len);
}

void ClusteredSwapLayout::AddLiveFrags(const Location& loc) {
  for (uint32_t i = 0; i < loc.frag_count; ++i) {
    const uint64_t block = (loc.frag_start + i) / kFragsPerBlock;
    ++live_frags_per_block_[block];
  }
}

void ClusteredSwapLayout::ReleaseLocation(const Location& loc) {
  for (uint32_t i = 0; i < loc.frag_count; ++i) {
    const uint64_t block = (loc.frag_start + i) / kFragsPerBlock;
    auto it = live_frags_per_block_.find(block);
    CC_ASSERT(it != live_frags_per_block_.end() && it->second > 0);
    if (--it->second == 0) {
      live_frags_per_block_.erase(it);
      FreeBlockRun(block, 1);
    }
  }
}

IoStatus ClusteredSwapLayout::WriteBatch(std::span<const SwapPageImage> pages) {
  if (pages.empty()) {
    return IoStatus::kOk;
  }
  // Lay out fragments within the batch. With spanning disallowed, a page whose
  // fragments would straddle a block boundary is pushed to the next block and the
  // gap becomes padding (the fragmentation cost the paper describes).
  struct Placement {
    const SwapPageImage* image;
    uint64_t rel_frag;
    uint32_t frag_count;
  };
  std::vector<Placement> placements;
  placements.reserve(pages.size());
  uint64_t rel = 0;  // fragment index relative to batch start
  for (const SwapPageImage& img : pages) {
    CC_EXPECTS(!img.bytes.empty());
    CC_EXPECTS(img.key.valid());
    const uint32_t frags = FragsFor(img.bytes.size());
    CC_EXPECTS(frags <= kFragsPerBlock || img.bytes.size() <= kPageSize);
    if (!options_.allow_block_spanning) {
      const uint64_t within = rel % kFragsPerBlock;
      if (within + frags > kFragsPerBlock) {
        rel += kFragsPerBlock - within;  // pad to next block
      }
    }
    placements.push_back(Placement{&img, rel, frags});
    rel += frags;
  }

  const uint64_t total_frags = rel;
  const uint64_t total_blocks = (total_frags + kFragsPerBlock - 1) / kFragsPerBlock;
  const uint64_t start_block = AllocateBlocks(total_blocks);
  const uint64_t start_frag = start_block * kFragsPerBlock;

  // Stage and write whole blocks in one operation; padding bytes are zero.
  std::vector<uint8_t> staging(total_blocks * kFsBlockSize, 0);
  for (const Placement& p : placements) {
    std::memcpy(staging.data() + p.rel_frag * kSwapFragmentSize, p.image->bytes.data(),
                p.image->bytes.size());
  }
  const IoStatus status = fs_->Write(file_, start_block * kFsBlockSize, staging);
  if (status != IoStatus::kOk) {
    // Nothing landed durably: leave the location map alone so prior copies of
    // these pages stay valid, and return the freshly allocated blocks to the
    // free pool.
    ++io_failures_;
    FreeBlockRun(start_block, total_blocks);
    return status;
  }

  if (journal_ != nullptr) {
    // Commit point: the data is on disk, and the batch becomes durable when
    // this record lands. A crash before the append leaves the old locations
    // as the durable prefix; a failed append is reported as a failed batch
    // (map untouched), matching what replay would reconstruct.
    std::vector<uint8_t> payload;
    wire::PutU64(payload, start_block);
    wire::PutU64(payload, total_blocks);
    wire::PutU32(payload, static_cast<uint32_t>(placements.size()));
    for (const Placement& p : placements) {
      const SwapPageImage& img = *p.image;
      wire::PutU32(payload, img.key.segment);
      wire::PutU32(payload, img.key.page);
      wire::PutU64(payload, start_frag + p.rel_frag);
      wire::PutU32(payload, p.frag_count);
      wire::PutU32(payload, static_cast<uint32_t>(img.bytes.size()));
      wire::PutU8(payload, img.is_compressed ? 1 : 0);
      wire::PutU32(payload, img.original_size);
      wire::PutU32(payload, img.checksum);
    }
    if (journal_->Append(kRecBatch, payload) != IoStatus::kOk) {
      ++io_failures_;
      FreeBlockRun(start_block, total_blocks);
      return IoStatus::kFailed;
    }
  }
  ++stats_.batches_written;
  stats_.fragment_bytes_written += staging.size();
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kSwapWriteBatch, fs_->disk()->clock()->Now(),
                    pages.size(), staging.size());
  }

  // Update the location map; prior copies become garbage.
  for (const Placement& p : placements) {
    const SwapPageImage& img = *p.image;
    if (const auto it = locations_.find(img.key); it != locations_.end()) {
      by_frag_start_.erase(it->second.frag_start);
      ReleaseLocation(it->second);
      locations_.erase(it);
    }
    Location loc;
    loc.frag_start = start_frag + p.rel_frag;
    loc.frag_count = p.frag_count;
    loc.byte_size = static_cast<uint32_t>(img.bytes.size());
    loc.is_compressed = img.is_compressed;
    loc.original_size = img.original_size;
    loc.checksum = img.checksum;
    AddLiveFrags(loc);
    const bool loc_ok = locations_.emplace(img.key, loc).second;
    const bool frag_ok = by_frag_start_.emplace(loc.frag_start, img.key).second;
    CC_ASSERT(loc_ok && frag_ok);
    ++stats_.pages_written;
    stats_.payload_bytes_written += img.bytes.size();
  }
  return IoStatus::kOk;
}

ClusteredSwapLayout::ReadResult ClusteredSwapLayout::ReadPage(PageKey key,
                                                              bool collect_coresidents) {
  const auto it = locations_.find(key);
  CC_EXPECTS(it != locations_.end());
  const Location& loc = it->second;

  const uint64_t first_block = loc.frag_start / kFragsPerBlock;
  uint64_t last_block = (loc.frag_start + loc.frag_count - 1) / kFragsPerBlock;
  if (collect_coresidents && options_.readahead_blocks > 0) {
    // Fault batching: widen the read by adjacent blocks inside the same disk
    // operation (the seek and rotation are already paid; the widening costs
    // transfer only), bounded by the file's high-water mark. Live pages in
    // the extra blocks come back as coresidents below.
    const uint64_t widened =
        std::min(options_.readahead_blocks, end_block_ - 1 - last_block);
    last_block += widened;
    stats_.readahead_blocks_read += widened;
  }
  const uint64_t blocks = last_block - first_block + 1;

  // Whole-block read (the restriction the paper laments: "there is no way to avoid
  // reading a minimum of 4 Kbytes to satisfy a page fault").
  std::vector<uint8_t> staging(blocks * kFsBlockSize);
  ReadResult result;
  result.blocks_read = blocks;
  result.is_compressed = loc.is_compressed;
  result.original_size = loc.original_size;
  result.checksum = loc.checksum;
  if (fs_->Read(file_, first_block * kFsBlockSize, staging) != IoStatus::kOk) {
    ++io_failures_;
    result.status = IoStatus::kFailed;
    return result;
  }
  const uint64_t skip = (loc.frag_start - first_block * kFragsPerBlock) * kSwapFragmentSize;
  result.bytes.assign(staging.begin() + static_cast<ptrdiff_t>(skip),
                      staging.begin() + static_cast<ptrdiff_t>(skip + loc.byte_size));
  if (loc.checksum != 0) {
    // One CRC pass serves both the verdict and the trace record (the old code
    // recomputed it while building the mismatch event's arguments).
    const uint32_t actual = Crc32(result.bytes);
    if (actual != loc.checksum) {
      ++checksum_mismatches_;
      result.status = IoStatus::kCorrupt;
      if (tracer_ != nullptr) {
        tracer_->Record(TraceEventKind::kChecksumMismatch, fs_->disk()->clock()->Now(), key,
                        loc.checksum, actual);
      }
    }
  }
  ++stats_.pages_read;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kSwapReadPage, fs_->disk()->clock()->Now(), key,
                    loc.byte_size, blocks);
  }

  if (collect_coresidents) {
    const uint64_t range_start = first_block * kFragsPerBlock;
    const uint64_t range_end = (last_block + 1) * kFragsPerBlock;
    for (auto pos = by_frag_start_.lower_bound(range_start);
         pos != by_frag_start_.end() && pos->first < range_end; ++pos) {
      if (pos->second == key) {
        continue;
      }
      const Location& other = locations_.at(pos->second);
      CC_ASSERT(other.frag_start == pos->first);
      if (other.frag_start + other.frag_count > range_end) {
        continue;  // only whole pages come along for free
      }
      const uint64_t off = (other.frag_start - range_start) * kSwapFragmentSize;
      SwapPageImage img;
      img.key = pos->second;
      img.is_compressed = other.is_compressed;
      img.original_size = other.original_size;
      img.checksum = other.checksum;
      img.bytes.assign(staging.begin() + static_cast<ptrdiff_t>(off),
                       staging.begin() + static_cast<ptrdiff_t>(off + other.byte_size));
      // A coresident is a free bonus; a corrupt one is worse than none (it
      // would seed the ccache with a bad image), so drop it. Its on-disk copy
      // stays and a direct fault on it goes through the full recovery path.
      if (img.checksum != 0 && Crc32(img.bytes) != img.checksum) {
        ++coresidents_dropped_;
        continue;
      }
      result.coresidents.push_back(std::move(img));
      ++stats_.coresident_pages_returned;
    }
  }
  return result;
}

void ClusteredSwapLayout::Invalidate(PageKey key) {
  const auto it = locations_.find(key);
  if (it == locations_.end()) {
    return;
  }
  if (journal_ != nullptr) {
    std::vector<uint8_t> payload;
    wire::PutU32(payload, key.segment);
    wire::PutU32(payload, key.page);
    // On an append failure the in-memory release still happens — the pager
    // requires the copy gone — and replay would resurrect the page, which
    // recovery then treats as part of the durable prefix.
    if (journal_->Append(kRecFree, payload) != IoStatus::kOk) {
      ++io_failures_;
    }
  }
  by_frag_start_.erase(it->second.frag_start);
  ReleaseLocation(it->second);
  locations_.erase(it);
}

CompressedSwapBackend::MountStats ClusteredSwapLayout::Mount() {
  MountStats mount;
  if (journal_ == nullptr) {
    return mount;
  }
  CC_EXPECTS(locations_.empty() && end_block_ == 0);

  const auto replay = journal_->Replay([&](uint8_t type, std::span<const uint8_t> payload) {
    wire::Reader r(payload);
    if (type == kRecBatch) {
      const uint64_t start_block = r.U64();
      const uint64_t block_count = r.U64();
      const uint32_t npages = r.U32();
      if (!r.ok()) {
        return;
      }
      end_block_ = std::max(end_block_, start_block + block_count);
      // The committed data write physically overwrote this extent, so any
      // earlier location still inside it is dead even if its free record
      // never became durable (a failed journal append is tolerated there).
      const uint64_t extent_first = start_block * kFragsPerBlock;
      const uint64_t extent_last = (start_block + block_count) * kFragsPerBlock;
      for (auto it = locations_.begin(); it != locations_.end();) {
        const Location& loc = it->second;
        if (loc.frag_start < extent_last && loc.frag_start + loc.frag_count > extent_first) {
          it = locations_.erase(it);
        } else {
          ++it;
        }
      }
      for (uint32_t i = 0; i < npages && r.ok(); ++i) {
        PageKey key;
        key.segment = r.U32();
        key.page = r.U32();
        Location loc;
        loc.frag_start = r.U64();
        loc.frag_count = r.U32();
        loc.byte_size = r.U32();
        loc.is_compressed = r.U8() != 0;
        loc.original_size = r.U32();
        loc.checksum = r.U32();
        if (r.ok()) {
          locations_[key] = loc;  // the newest committed copy wins
        }
      }
    } else if (type == kRecFree) {
      PageKey key;
      key.segment = r.U32();
      key.page = r.U32();
      if (r.ok()) {
        locations_.erase(key);
      }
    }
  });
  mount.journal_replays = replay.records;
  if (replay.torn) {
    ++mount.torn_writes_detected;
  }

  // Verify every surviving page's image before trusting it: a CRC-valid
  // journal record can still point at latently corrupted data.
  std::vector<PageKey> dropped;
  std::vector<uint8_t> buf;
  for (const auto& [key, loc] : locations_) {
    bool ok = loc.frag_count > 0 && loc.byte_size > 0 && loc.byte_size <= kPageSize &&
              loc.byte_size <= static_cast<uint64_t>(loc.frag_count) * kSwapFragmentSize;
    if (ok) {
      buf.resize(loc.byte_size);
      ok = fs_->Read(file_, loc.frag_start * kSwapFragmentSize, buf) == IoStatus::kOk &&
           (loc.checksum == 0 || Crc32(buf) == loc.checksum);
    }
    if (!ok) {
      dropped.push_back(key);
    }
  }
  for (const PageKey key : dropped) {
    locations_.erase(key);
    ++mount.pages_dropped;
    ++mount.torn_writes_detected;
  }

  // Rebuild the derived structures: position index, live-fragment census, and
  // the free runs as the complement of the live blocks below the high-water
  // mark.
  for (const auto& [key, loc] : locations_) {
    AddLiveFrags(loc);
    const bool frag_ok = by_frag_start_.emplace(loc.frag_start, key).second;
    CC_ASSERT(frag_ok && "recovered locations overlap");
  }
  uint64_t run_start = 0;
  for (uint64_t block = 0; block <= end_block_; ++block) {
    if (block < end_block_ && !live_frags_per_block_.contains(block)) {
      continue;
    }
    if (block > run_start) {
      FreeBlockRun(run_start, block - run_start);
    }
    run_start = block + 1;
  }
  mount.pages_recovered = locations_.size();
  return mount;
}

void ClusteredSwapLayout::ForEachPage(const std::function<void(PageKey)>& fn) const {
  for (const auto& [key, loc] : locations_) {
    fn(key);
  }
}

void ClusteredSwapLayout::RegisterAuditChecks(InvariantAuditor* auditor) {
  CC_EXPECTS(auditor != nullptr);
  // Block conservation: the blocks below the high-water mark partition into
  // the coalesced free runs and the blocks holding at least one live fragment.
  // A leaked allocation (blocks neither free nor live) breaks the partition.
  auditor->Register("swap.clustered", "block-conservation", [this]() -> std::optional<std::string> {
    uint64_t run_total = 0;
    uint64_t prev_end = 0;
    bool first = true;
    for (const auto& [start, len] : free_runs_) {
      if (len == 0) {
        return "free run at block " + std::to_string(start) + " has zero length";
      }
      if (!first && start <= prev_end) {
        return "free runs overlap or are uncoalesced at block " + std::to_string(start);
      }
      if (start + len > end_block_) {
        return "free run [" + std::to_string(start) + ", " + std::to_string(start + len) +
               ") extends past end_block " + std::to_string(end_block_);
      }
      run_total += len;
      prev_end = start + len;
      first = false;
    }
    if (run_total != free_block_count_) {
      return "free_block_count " + std::to_string(free_block_count_) +
             " != sum of free runs " + std::to_string(run_total);
    }
    uint64_t live_blocks = 0;
    for (const auto& [block, frags] : live_frags_per_block_) {
      if (frags == 0) {
        return "block " + std::to_string(block) + " has a zero live-fragment count";
      }
      if (block >= end_block_) {
        return "live block " + std::to_string(block) + " is past end_block " +
               std::to_string(end_block_);
      }
      ++live_blocks;
    }
    if (free_block_count_ + live_blocks != end_block_) {
      return "free " + std::to_string(free_block_count_) + " + live " +
             std::to_string(live_blocks) + " blocks != end_block " +
             std::to_string(end_block_) + " (leaked or double-counted blocks)";
    }
    return std::nullopt;
  });
  // The position index must mirror the location map exactly, and the per-block
  // live-fragment census must equal a recount from the locations.
  auditor->Register("swap.clustered", "index-coherent", [this]() -> std::optional<std::string> {
    if (by_frag_start_.size() != locations_.size()) {
      return "by_frag_start has " + std::to_string(by_frag_start_.size()) +
             " entries, locations has " + std::to_string(locations_.size());
    }
    std::unordered_map<uint64_t, uint32_t> recount;
    for (const auto& [key, loc] : locations_) {
      const auto it = by_frag_start_.find(loc.frag_start);
      if (it == by_frag_start_.end() || !(it->second == key)) {
        return "location of page at fragment " + std::to_string(loc.frag_start) +
               " is missing from the position index";
      }
      if (loc.byte_size == 0 || loc.byte_size > kPageSize) {
        return "stored size " + std::to_string(loc.byte_size) + " at fragment " +
               std::to_string(loc.frag_start) + " is outside (0, page size]";
      }
      for (uint32_t i = 0; i < loc.frag_count; ++i) {
        ++recount[(loc.frag_start + i) / kFragsPerBlock];
      }
    }
    if (recount != live_frags_per_block_) {
      return "per-block live-fragment census does not match a recount from the "
             "location map";
    }
    return std::nullopt;
  });
}

}  // namespace compcache
