#include "swap/lfs_swap.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/assert.h"
#include "util/audit.h"
#include "util/checksum.h"
#include "util/wire.h"

namespace compcache {

namespace {

// Durable-format frame magics (both frames are [magic u32][payload_len u32]
// [payload][crc32c(payload) u32], little-endian).
constexpr uint32_t kSummaryMagic = 0x4C46'5353;  // "SSFL"
constexpr uint32_t kCkptMagic = 0x4C46'434B;     // "KCFL"

}  // namespace

LfsSwapLayout::LfsSwapLayout(FileSystem* fs, FrameSource* frames, Options options)
    : fs_(fs), frames_(frames), options_(options) {
  CC_EXPECTS(fs_ != nullptr);
  CC_EXPECTS(options_.segment_blocks > 0);
  CC_EXPECTS(options_.log_segments > options_.clean_threshold + 1);
  if (options_.durable) {
    CC_EXPECTS(options_.segment_blocks >= 2);  // one block is the summary
    CC_EXPECTS(options_.checkpoint_interval > 0);
    ckpt_files_[0] = fs_->OpenOrCreate("lfs_ckpt0");
    ckpt_files_[1] = fs_->OpenOrCreate("lfs_ckpt1");
  }
  file_ = fs_->OpenOrCreate("lfs_swap");
  open_buffer_.assign(SegmentBytes(), 0);
  live_bytes_.assign(options_.log_segments, 0);
  members_.resize(options_.log_segments);
  free_segments_.reserve(options_.log_segments);
  segment_is_free_.assign(options_.log_segments, 1);
  segment_pending_free_.assign(options_.log_segments, 0);
  for (uint32_t s = options_.log_segments; s > 0; --s) {
    free_segments_.push_back(s - 1);
  }
  open_segment_ = TakeFreeSegment();

  // "LFS requires significant memory for buffers": the open segment's frames are
  // taken from the machine's pool for the lifetime of the backend.
  if (frames_ != nullptr) {
    for (uint32_t b = 0; b < options_.segment_blocks; ++b) {
      buffer_frames_.push_back(frames_->AllocateFrame());
    }
  }
}

LfsSwapLayout::~LfsSwapLayout() {
  if (frames_ != nullptr) {
    for (const FrameId frame : buffer_frames_) {
      frames_->FreeFrame(frame);
    }
  }
}

void LfsSwapLayout::ReleaseLocation(PageKey key) {
  const auto it = locations_.find(key);
  if (it == locations_.end()) {
    return;
  }
  const Location& loc = it->second;
  CC_ASSERT(live_bytes_[loc.segment] >= loc.byte_size);
  live_bytes_[loc.segment] -= loc.byte_size;
  members_[loc.segment].erase(loc.offset);
  locations_.erase(it);
}

IoStatus LfsSwapLayout::FlushOpenSegment() {
  if (!options_.durable) {
    if (open_fill_ == 0) {
      return IoStatus::kOk;
    }
    // One large sequential write — the LFS bandwidth win the paper cites.
    const uint64_t disk_offset = static_cast<uint64_t>(open_segment_) * SegmentBytes();
    const uint64_t blocks = (open_fill_ + kFsBlockSize - 1) / kFsBlockSize;
    const IoStatus status =
        fs_->Write(file_, disk_offset,
                   std::span<const uint8_t>(open_buffer_.data(), blocks * kFsBlockSize));
    if (status != IoStatus::kOk) {
      // Keep the open segment as it is: its pages remain readable from the
      // buffer, and the next append retries the flush.
      ++io_failures_;
      return status;
    }
    ++stats_.segments_written;

    // Start a new segment.
    CC_ASSERT(!free_segments_.empty());
    open_segment_ = TakeFreeSegment();
    open_fill_ = 0;
    std::fill(open_buffer_.begin(), open_buffer_.end(), uint8_t{0});
    return IoStatus::kOk;
  }

  // Durable mode: emit the summary into the segment's last block and write
  // data and summary as ONE request with the summary last — a power failure
  // persists a prefix of the request, so a summary can never land without the
  // data it describes.
  std::vector<PageKey> dels;
  for (const PageKey& key : pending_dels_) {
    if (!locations_.contains(key)) {
      dels.push_back(key);  // still absent: the invalidate must become durable
    }
  }
  if (open_fill_ == 0 && dels.empty()) {
    // Nothing to make durable (re-added keys need no deletion record: their
    // newest add supersedes every older one at replay).
    pending_dels_.clear();
    return IoStatus::kOk;
  }
  std::sort(dels.begin(), dels.end(), [](PageKey a, PageKey b) {
    return a.segment != b.segment ? a.segment < b.segment : a.page < b.page;
  });
  const auto& adds = members_[open_segment_];
  // Deletions that no longer fit beside the adds stay pending for a later
  // summary (only reachable after repeated flush failures let them pile up).
  size_t ndels = dels.size();
  while (ndels > 0 && SummaryBytes(ndels, adds.size()) > kFsBlockSize) {
    --ndels;
  }
  CC_ASSERT(SummaryBytes(ndels, adds.size()) <= kFsBlockSize);

  std::vector<uint8_t> payload;
  wire::PutU64(payload, seq_ + 1);
  wire::PutU32(payload, static_cast<uint32_t>(ndels));
  wire::PutU32(payload, static_cast<uint32_t>(adds.size()));
  for (size_t i = 0; i < ndels; ++i) {
    wire::PutU32(payload, dels[i].segment);
    wire::PutU32(payload, dels[i].page);
  }
  for (const auto& [offset, key] : adds) {
    const Location& loc = locations_.at(key);
    wire::PutU32(payload, key.segment);
    wire::PutU32(payload, key.page);
    wire::PutU32(payload, loc.offset);
    wire::PutU32(payload, loc.byte_size);
    wire::PutU8(payload, loc.is_compressed ? 1 : 0);
    wire::PutU32(payload, loc.original_size);
    wire::PutU32(payload, loc.checksum);
  }
  std::vector<uint8_t> frame;
  wire::PutU32(frame, kSummaryMagic);
  wire::PutU32(frame, static_cast<uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  wire::PutU32(frame, Crc32(payload));
  CC_ASSERT(frame.size() <= kFsBlockSize);
  std::fill(open_buffer_.begin() + DataBytes(), open_buffer_.end(), uint8_t{0});
  std::memcpy(open_buffer_.data() + DataBytes(), frame.data(), frame.size());

  const uint64_t disk_offset = static_cast<uint64_t>(open_segment_) * SegmentBytes();
  const IoStatus status = fs_->Write(file_, disk_offset, open_buffer_);
  if (status != IoStatus::kOk) {
    ++io_failures_;
    return status;  // open segment intact; the next append retries
  }
  ++seq_;
  pending_dels_.clear();
  for (size_t i = ndels; i < dels.size(); ++i) {
    pending_dels_.insert(dels[i]);  // deferred deletions that did not fit
  }
  ++stats_.segments_written;

  CC_ASSERT(!free_segments_.empty());
  open_segment_ = TakeFreeSegment();
  open_fill_ = 0;
  std::fill(open_buffer_.begin(), open_buffer_.end(), uint8_t{0});
  if (++flushes_since_checkpoint_ >= options_.checkpoint_interval) {
    (void)WriteCheckpoint();  // the open buffer is empty right now
  }
  return IoStatus::kOk;
}

bool LfsSwapLayout::WriteCheckpoint() {
  CC_EXPECTS(options_.durable);
  CC_EXPECTS(open_fill_ == 0);  // the captured map must reference only flushed segments
  std::vector<uint8_t> payload;
  wire::PutU64(payload, seq_ + 1);
  wire::PutU32(payload, static_cast<uint32_t>(locations_.size()));
  // Iterate members_ (segment-major, offset-minor) for deterministic bytes.
  for (uint32_t s = 0; s < options_.log_segments; ++s) {
    for (const auto& [offset, key] : members_[s]) {
      const Location& loc = locations_.at(key);
      wire::PutU32(payload, key.segment);
      wire::PutU32(payload, key.page);
      wire::PutU32(payload, loc.segment);
      wire::PutU32(payload, loc.offset);
      wire::PutU32(payload, loc.byte_size);
      wire::PutU8(payload, loc.is_compressed ? 1 : 0);
      wire::PutU32(payload, loc.original_size);
      wire::PutU32(payload, loc.checksum);
    }
  }
  std::vector<uint8_t> frame;
  wire::PutU32(frame, kCkptMagic);
  wire::PutU32(frame, static_cast<uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  wire::PutU32(frame, Crc32(payload));
  if (fs_->Write(ckpt_files_[ckpt_slot_], 0, frame) != IoStatus::kOk) {
    ++io_failures_;
    return false;  // retried at the next checkpoint opportunity
  }
  ++seq_;
  ckpt_slot_ ^= 1u;
  flushes_since_checkpoint_ = 0;
  ++stats_.checkpoints_written;
  // The captured map is durable, so the stale summaries of cleaned victims are
  // now superseded: the segments may be overwritten.
  for (const uint32_t s : pending_free_) {
    segment_pending_free_[s] = 0;
    segment_is_free_[s] = 1;
    free_segments_.push_back(s);
  }
  pending_free_.clear();
  return true;
}

IoStatus LfsSwapLayout::AppendImage(const SwapPageImage& img, bool count_as_write) {
  CC_EXPECTS(!img.bytes.empty());
  CC_EXPECTS(img.bytes.size() <= DataBytes());
  bool need_flush = open_fill_ + img.bytes.size() > DataBytes();
  if (!need_flush && options_.durable) {
    // The summary must hold one more add record beside the pending deletions.
    need_flush = SummaryBytes(pending_dels_.size(), members_[open_segment_].size() + 1) >
                 kFsBlockSize;
  }
  if (need_flush) {
    if (FlushOpenSegment() != IoStatus::kOk) {
      return IoStatus::kFailed;  // no room and no flush: the old copy stays valid
    }
  }
  ReleaseLocation(img.key);  // the old copy (if any) becomes segment garbage

  Location loc;
  loc.segment = open_segment_;
  loc.offset = open_fill_;
  loc.byte_size = static_cast<uint32_t>(img.bytes.size());
  loc.is_compressed = img.is_compressed;
  loc.original_size = img.original_size;
  loc.checksum = img.checksum;
  std::memcpy(open_buffer_.data() + open_fill_, img.bytes.data(), img.bytes.size());
  open_fill_ += static_cast<uint32_t>(img.bytes.size());
  live_bytes_[loc.segment] += loc.byte_size;
  members_[loc.segment].emplace(loc.offset, img.key);
  locations_[img.key] = loc;
  if (count_as_write) {
    ++stats_.pages_written;
  }
  if (open_fill_ == DataBytes()) {
    // Exactly full: write it out now. A failure here is not the append's
    // problem — the image is safely in the buffer and the flush is retried.
    (void)FlushOpenSegment();
  }
  return IoStatus::kOk;
}

uint32_t LfsSwapLayout::TakeFreeSegment() {
  CC_ASSERT(!free_segments_.empty());
  const uint32_t s = free_segments_.back();
  free_segments_.pop_back();
  segment_is_free_[s] = 0;
  return s;
}

uint32_t LfsSwapLayout::PickVictimSegment() const {
  // Pick the closed segment with the least live data (greedy, as LFS does).
  uint32_t victim = UINT32_MAX;
  uint64_t victim_live = UINT64_MAX;
  for (uint32_t s = 0; s < options_.log_segments; ++s) {
    if (s == open_segment_ || segment_is_free_[s] || segment_pending_free_[s]) {
      continue;
    }
    if (live_bytes_[s] < victim_live) {
      victim_live = live_bytes_[s];
      victim = s;
    }
  }
  return victim;
}

bool LfsSwapLayout::CleanOneSegment() {
  const uint32_t victim = PickVictimSegment();
  CC_ASSERT(victim != UINT32_MAX && "LFS log full of live data");
  const uint64_t victim_live = live_bytes_[victim];

  if (victim_live > 0) {
    // Read the whole victim segment and re-append its live pages — the copying
    // cost the paper warns swap data inflicts on LFS cleaning.
    std::vector<uint8_t> segment(SegmentBytes());
    if (fs_->Read(file_, static_cast<uint64_t>(victim) * SegmentBytes(), segment) !=
        IoStatus::kOk) {
      ++io_failures_;
      return false;  // victim untouched; try again on the next write
    }
    // Members mutate as we re-append; snapshot first.
    std::vector<std::pair<uint32_t, PageKey>> live(members_[victim].begin(),
                                                   members_[victim].end());
    for (const auto& [offset, key] : live) {
      const Location loc = locations_.at(key);
      SwapPageImage img;
      img.key = key;
      img.is_compressed = loc.is_compressed;
      img.original_size = loc.original_size;
      img.checksum = loc.checksum;
      img.bytes.assign(segment.begin() + offset, segment.begin() + offset + loc.byte_size);
      if (AppendImage(img, /*count_as_write=*/false) != IoStatus::kOk) {
        // The copy stalled mid-segment; pages already moved are fine, the rest
        // stay live in the victim, which therefore cannot be freed yet.
        return false;
      }
      ++stats_.live_pages_copied;
    }
  }
  CC_ASSERT(live_bytes_[victim] == 0);
  CC_ASSERT(members_[victim].empty());
  if (options_.durable) {
    // The victim's stale summary stays replayable until a checkpoint captures
    // the re-appended copies; only then may the segment be overwritten.
    pending_free_.push_back(victim);
    segment_pending_free_[victim] = 1;
  } else {
    free_segments_.push_back(victim);
    segment_is_free_[victim] = 1;
  }
  ++stats_.segments_cleaned;
  return true;
}

void LfsSwapLayout::MaybeClean() {
  if (cleaning_) {
    return;  // re-appends during cleaning must not recurse
  }
  cleaning_ = true;
  while (free_segments_.size() + pending_free_.size() < options_.clean_threshold) {
    if (!CleanOneSegment()) {
      break;  // device trouble: postpone cleaning rather than wedge
    }
    if (options_.durable && free_segments_.size() <= 1 && !pending_free_.empty()) {
      // Down to the last free segment: promote now (flush + checkpoint) so the
      // cleaner's own re-appends cannot strand the log without a free segment.
      if (FlushOpenSegment() != IoStatus::kOk || !WriteCheckpoint()) {
        break;
      }
    }
  }
  cleaning_ = false;
  if (options_.durable && !pending_free_.empty() &&
      free_segments_.size() < options_.clean_threshold) {
    // Cleaned segments only become reusable once a checkpoint captures their
    // re-appended pages; flush to reach an open-buffer-empty point, then
    // checkpoint to promote them.
    if (FlushOpenSegment() == IoStatus::kOk && !pending_free_.empty()) {
      (void)WriteCheckpoint();
    }
  }
}

IoStatus LfsSwapLayout::WriteBatch(std::span<const SwapPageImage> pages) {
  IoStatus status = IoStatus::kOk;
  for (const SwapPageImage& img : pages) {
    if (AppendImage(img, /*count_as_write=*/true) != IoStatus::kOk) {
      status = IoStatus::kFailed;  // this image kept its old copy (if any)
    }
  }
  MaybeClean();
  return status;
}

CompressedSwapBackend::ReadResult LfsSwapLayout::ReadPage(PageKey key,
                                                          bool collect_coresidents) {
  const auto it = locations_.find(key);
  CC_EXPECTS(it != locations_.end());
  const Location loc = it->second;
  ReadResult result;
  result.is_compressed = loc.is_compressed;
  result.original_size = loc.original_size;
  result.checksum = loc.checksum;
  result.bytes.resize(loc.byte_size);
  ++stats_.pages_read;

  const auto verify = [&] {
    if (loc.checksum != 0 && Crc32(result.bytes) != loc.checksum) {
      ++checksum_mismatches_;
      result.status = IoStatus::kCorrupt;
    }
  };

  if (loc.segment == open_segment_) {
    // Still in the write buffer: no I/O at all.
    std::memcpy(result.bytes.data(), open_buffer_.data() + loc.offset, loc.byte_size);
    ++stats_.reads_from_buffer;
    verify();
    return result;
  }

  // Block-aligned read of the covering blocks, like the other layouts.
  const uint64_t seg_base = static_cast<uint64_t>(loc.segment) * SegmentBytes();
  const uint64_t first_block = loc.offset / kFsBlockSize;
  const uint64_t last_block = (loc.offset + loc.byte_size - 1) / kFsBlockSize;
  std::vector<uint8_t> staging((last_block - first_block + 1) * kFsBlockSize);
  if (fs_->Read(file_, seg_base + first_block * kFsBlockSize, staging) != IoStatus::kOk) {
    ++io_failures_;
    result.status = IoStatus::kFailed;
    result.bytes.clear();
    return result;
  }
  result.blocks_read = last_block - first_block + 1;
  std::memcpy(result.bytes.data(), staging.data() + (loc.offset - first_block * kFsBlockSize),
              loc.byte_size);
  verify();

  if (collect_coresidents) {
    const uint64_t range_start = first_block * kFsBlockSize;
    const uint64_t range_end = (last_block + 1) * kFsBlockSize;
    for (auto pos = members_[loc.segment].lower_bound(static_cast<uint32_t>(range_start));
         pos != members_[loc.segment].end() && pos->first < range_end; ++pos) {
      if (pos->second == key) {
        continue;
      }
      const Location& other = locations_.at(pos->second);
      if (other.offset + other.byte_size > range_end) {
        continue;
      }
      SwapPageImage img;
      img.key = pos->second;
      img.is_compressed = other.is_compressed;
      img.original_size = other.original_size;
      img.checksum = other.checksum;
      img.bytes.assign(staging.begin() + (other.offset - range_start),
                       staging.begin() + (other.offset - range_start) + other.byte_size);
      if (img.checksum != 0 && Crc32(img.bytes) != img.checksum) {
        ++coresidents_dropped_;  // never seed the ccache with a bad image
        continue;
      }
      result.coresidents.push_back(std::move(img));
    }
  }
  return result;
}

void LfsSwapLayout::Invalidate(PageKey key) {
  const bool present = locations_.contains(key);
  ReleaseLocation(key);
  if (options_.durable && present) {
    pending_dels_.insert(key);
    if (SummaryBytes(pending_dels_.size(), members_[open_segment_].size()) > kFsBlockSize) {
      (void)FlushOpenSegment();  // make room; on failure the del stays pending
    }
  }
}

CompressedSwapBackend::MountStats LfsSwapLayout::Mount() {
  MountStats mount;
  if (!options_.durable) {
    return mount;
  }
  CC_EXPECTS(locations_.empty() && open_fill_ == 0);

  // 1. Newest valid checkpoint wins; the other slot is the next write target.
  uint64_t best_seq = 0;
  int best_slot = -1;
  std::unordered_map<PageKey, Location, PageKeyHash> best_map;
  for (int slot = 0; slot < 2; ++slot) {
    const uint64_t size = fs_->FileSize(ckpt_files_[slot]);
    if (size < 12) {
      continue;  // never written
    }
    std::vector<uint8_t> raw(size);
    if (fs_->Read(ckpt_files_[slot], 0, raw) != IoStatus::kOk) {
      ++mount.torn_writes_detected;
      continue;
    }
    wire::Reader r(raw);
    if (r.U32() != kCkptMagic) {
      ++mount.torn_writes_detected;
      continue;
    }
    const uint64_t len = r.U32();
    if (12 + len > size) {
      ++mount.torn_writes_detected;  // torn: the tail never reached the disk
      continue;
    }
    const auto payload = std::span<const uint8_t>(raw).subspan(8, len);
    wire::Reader tail(std::span<const uint8_t>(raw).subspan(8 + len));
    if (tail.U32() != Crc32(payload)) {
      ++mount.torn_writes_detected;
      continue;
    }
    wire::Reader p(payload);
    const uint64_t seq = p.U64();
    const uint32_t count = p.U32();
    std::unordered_map<PageKey, Location, PageKeyHash> map;
    map.reserve(count);
    for (uint32_t i = 0; i < count && p.ok(); ++i) {
      PageKey key;
      key.segment = p.U32();
      key.page = p.U32();
      Location loc;
      loc.segment = p.U32();
      loc.offset = p.U32();
      loc.byte_size = p.U32();
      loc.is_compressed = p.U8() != 0;
      loc.original_size = p.U32();
      loc.checksum = p.U32();
      map[key] = loc;
    }
    if (!p.ok()) {
      ++mount.torn_writes_detected;
      continue;
    }
    if (seq > best_seq) {
      best_seq = seq;
      best_slot = slot;
      best_map = std::move(map);
    }
  }
  if (best_slot >= 0) {
    locations_ = std::move(best_map);
    ckpt_slot_ = static_cast<uint32_t>(best_slot) ^ 1u;
    ++mount.checkpoint_loads;
  }
  seq_ = best_seq;

  // 2. Roll forward: parse every segment summary newer than the checkpoint and
  // apply them in sequence order, deletions before additions (so an
  // invalidate-then-rewrite inside one flush window resolves to the rewrite).
  struct AddRec {
    PageKey key;
    Location loc;
  };
  struct Summary {
    uint64_t seq = 0;
    std::vector<PageKey> dels;
    std::vector<AddRec> adds;
  };
  std::vector<Summary> newer;
  const uint64_t fsize = fs_->FileSize(file_);
  for (uint32_t s = 0; s < options_.log_segments; ++s) {
    const uint64_t off = static_cast<uint64_t>(s) * SegmentBytes() + DataBytes();
    if (off + kFsBlockSize > fsize) {
      continue;  // segment never flushed
    }
    std::vector<uint8_t> block(kFsBlockSize);
    if (fs_->Read(file_, off, block) != IoStatus::kOk) {
      ++mount.torn_writes_detected;
      continue;
    }
    wire::Reader r(block);
    if (r.U32() != kSummaryMagic) {
      continue;  // never flushed, or the crash tore the segment before its summary
    }
    const uint64_t len = r.U32();
    if (12 + len > kFsBlockSize) {
      ++mount.torn_writes_detected;
      continue;
    }
    const auto payload = std::span<const uint8_t>(block).subspan(8, len);
    wire::Reader tail(std::span<const uint8_t>(block).subspan(8 + len));
    if (tail.U32() != Crc32(payload)) {
      ++mount.torn_writes_detected;
      continue;
    }
    wire::Reader p(payload);
    Summary sum;
    sum.seq = p.U64();
    const uint32_t ndels = p.U32();
    const uint32_t nadds = p.U32();
    for (uint32_t i = 0; i < ndels && p.ok(); ++i) {
      PageKey key;
      key.segment = p.U32();
      key.page = p.U32();
      sum.dels.push_back(key);
    }
    for (uint32_t i = 0; i < nadds && p.ok(); ++i) {
      AddRec rec;
      rec.key.segment = p.U32();
      rec.key.page = p.U32();
      rec.loc.segment = s;  // adds always describe the summary's own segment
      rec.loc.offset = p.U32();
      rec.loc.byte_size = p.U32();
      rec.loc.is_compressed = p.U8() != 0;
      rec.loc.original_size = p.U32();
      rec.loc.checksum = p.U32();
      sum.adds.push_back(rec);
    }
    if (!p.ok()) {
      ++mount.torn_writes_detected;
      continue;
    }
    if (sum.seq <= best_seq) {
      continue;  // already captured by the checkpoint
    }
    newer.push_back(std::move(sum));
  }
  std::sort(newer.begin(), newer.end(),
            [](const Summary& a, const Summary& b) { return a.seq < b.seq; });
  for (const Summary& sum : newer) {
    for (const PageKey& key : sum.dels) {
      locations_.erase(key);
    }
    for (const AddRec& rec : sum.adds) {
      locations_[rec.key] = rec.loc;  // newest add wins
    }
    seq_ = std::max(seq_, sum.seq);
    ++mount.journal_replays;
  }

  // 3. Verify every survivor's image; bad ones degrade through the pager's
  // lost ladder instead of faulting in corrupt data later.
  std::vector<uint8_t> buf;
  for (auto it = locations_.begin(); it != locations_.end();) {
    const Location& loc = it->second;
    bool ok = loc.segment < options_.log_segments && loc.byte_size > 0 &&
              loc.byte_size <= kPageSize &&
              static_cast<uint64_t>(loc.offset) + loc.byte_size <= DataBytes();
    if (ok) {
      buf.assign(loc.byte_size, 0);
      ok = fs_->Read(file_,
                     static_cast<uint64_t>(loc.segment) * SegmentBytes() + loc.offset,
                     buf) == IoStatus::kOk &&
           (loc.checksum == 0 || Crc32(buf) == loc.checksum);
    }
    if (ok) {
      ++it;
    } else {
      ++mount.pages_dropped;
      ++mount.torn_writes_detected;
      it = locations_.erase(it);
    }
  }

  // 4. Rebuild the segment usage table and free state from the recovered map.
  live_bytes_.assign(options_.log_segments, 0);
  for (auto& mem : members_) {
    mem.clear();
  }
  free_segments_.clear();
  segment_is_free_.assign(options_.log_segments, 1);
  segment_pending_free_.assign(options_.log_segments, 0);
  pending_free_.clear();
  pending_dels_.clear();
  for (const auto& [key, loc] : locations_) {
    live_bytes_[loc.segment] += loc.byte_size;
    members_[loc.segment].emplace(loc.offset, key);
    segment_is_free_[loc.segment] = 0;
  }
  for (uint32_t s = options_.log_segments; s > 0; --s) {
    if (segment_is_free_[s - 1]) {
      free_segments_.push_back(s - 1);
    }
  }
  open_segment_ = TakeFreeSegment();
  open_fill_ = 0;
  std::fill(open_buffer_.begin(), open_buffer_.end(), uint8_t{0});
  flushes_since_checkpoint_ = 0;

  mount.pages_recovered = locations_.size();
  return mount;
}

void LfsSwapLayout::ForEachPage(const std::function<void(PageKey)>& fn) const {
  for (const auto& [key, loc] : locations_) {
    fn(key);
  }
}

void LfsSwapLayout::RegisterAuditChecks(InvariantAuditor* auditor) {
  CC_EXPECTS(auditor != nullptr);
  // The free-segment LIFO and the membership bitmap are updated together; a
  // disagreement means a segment was leaked (freed in one structure only) or
  // double-freed.
  auditor->Register("swap.lfs", "free-list-coherent", [this]() -> std::optional<std::string> {
    size_t bitmap_free = 0;
    for (uint32_t s = 0; s < options_.log_segments; ++s) {
      if (segment_is_free_[s] != 0) {
        ++bitmap_free;
      }
    }
    if (bitmap_free != free_segments_.size()) {
      return "bitmap marks " + std::to_string(bitmap_free) +
             " segments free, free list holds " + std::to_string(free_segments_.size());
    }
    for (const uint32_t s : free_segments_) {
      if (segment_is_free_[s] == 0) {
        return "segment " + std::to_string(s) + " is on the free list but not in the bitmap";
      }
      if (live_bytes_[s] != 0 || !members_[s].empty()) {
        return "free segment " + std::to_string(s) + " still has " +
               std::to_string(live_bytes_[s]) + " live bytes / " +
               std::to_string(members_[s].size()) + " members";
      }
    }
    if (segment_is_free_[open_segment_] != 0) {
      return "open segment " + std::to_string(open_segment_) + " is marked free";
    }
    size_t pending_bits = 0;
    for (uint32_t s = 0; s < options_.log_segments; ++s) {
      if (segment_pending_free_[s] != 0) {
        ++pending_bits;
      }
    }
    if (pending_bits != pending_free_.size()) {
      return "bitmap marks " + std::to_string(pending_bits) +
             " segments pending-free, list holds " + std::to_string(pending_free_.size());
    }
    for (const uint32_t s : pending_free_) {
      if (segment_pending_free_[s] == 0) {
        return "segment " + std::to_string(s) +
               " is on the pending-free list but not in the bitmap";
      }
      if (segment_is_free_[s] != 0) {
        return "segment " + std::to_string(s) + " is both free and pending-free";
      }
      if (live_bytes_[s] != 0 || !members_[s].empty()) {
        return "pending-free segment " + std::to_string(s) + " still has " +
               std::to_string(live_bytes_[s]) + " live bytes / " +
               std::to_string(members_[s].size()) + " members";
      }
    }
    return std::nullopt;
  });
  // live_bytes_ / members_ are incremental caches over locations_; recompute
  // them from scratch and compare. A stuck live-byte count is how a leaked
  // location (e.g. from a partially failed batch) shows up.
  auditor->Register("swap.lfs", "live-bytes-conserved", [this]() -> std::optional<std::string> {
    std::vector<uint64_t> recount(options_.log_segments, 0);
    uint64_t total_members = 0;
    for (const auto& [key, loc] : locations_) {
      if (loc.segment >= options_.log_segments) {
        return "location points at segment " + std::to_string(loc.segment) +
               " beyond the log";
      }
      if (loc.byte_size == 0) {
        return "location in segment " + std::to_string(loc.segment) + " has zero size";
      }
      recount[loc.segment] += loc.byte_size;
      const auto& mem = members_[loc.segment];
      const auto it = mem.find(loc.offset);
      if (it == mem.end() || !(it->second == key)) {
        return "location at segment " + std::to_string(loc.segment) + " offset " +
               std::to_string(loc.offset) + " is missing from the member table";
      }
      ++total_members;
    }
    uint64_t member_entries = 0;
    for (const auto& mem : members_) {
      member_entries += mem.size();
    }
    if (member_entries != total_members) {
      return "member tables hold " + std::to_string(member_entries) +
             " entries, location map holds " + std::to_string(total_members) +
             " (leaked member entries)";
    }
    for (uint32_t s = 0; s < options_.log_segments; ++s) {
      if (recount[s] != live_bytes_[s]) {
        return "segment " + std::to_string(s) + " live_bytes " +
               std::to_string(live_bytes_[s]) + " != recomputed " +
               std::to_string(recount[s]);
      }
    }
    return std::nullopt;
  });
}

void LfsSwapLayout::BindMetrics(MetricRegistry* registry) {
  CC_EXPECTS(registry != nullptr);
  const LfsSwapStats* s = &stats_;
  const auto gauge = [&](const char* name, const uint64_t LfsSwapStats::*field) {
    registry->RegisterCounterGauge(name,
                                   [s, field] { return static_cast<double>(s->*field); });
  };
  gauge("swap.lfs.pages_written", &LfsSwapStats::pages_written);
  gauge("swap.lfs.pages_read", &LfsSwapStats::pages_read);
  gauge("swap.lfs.segments_written", &LfsSwapStats::segments_written);
  gauge("swap.lfs.segments_cleaned", &LfsSwapStats::segments_cleaned);
  gauge("swap.lfs.live_pages_copied", &LfsSwapStats::live_pages_copied);
  gauge("swap.lfs.reads_from_buffer", &LfsSwapStats::reads_from_buffer);
  gauge("swap.lfs.checkpoints_written", &LfsSwapStats::checkpoints_written);
  // Base-class counter, same drop path as the clustered layout's.
  registry->RegisterCounterGauge("swap.lfs.coresidents_dropped", [this] {
    return static_cast<double>(coresidents_dropped());
  });
  registry->RegisterGauge("swap.lfs.free_segments",
                          [this] { return static_cast<double>(free_segments_.size()); });
}

}  // namespace compcache
