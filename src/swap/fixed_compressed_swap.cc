#include "swap/fixed_compressed_swap.h"

#include <algorithm>
#include <string>
#include <vector>

#include "util/assert.h"
#include "util/audit.h"
#include "util/checksum.h"
#include "util/wire.h"

namespace compcache {

namespace {

void PutStoredMeta(std::vector<uint8_t>& out, uint32_t byte_size, bool is_compressed,
                   uint32_t original_size, uint32_t checksum) {
  wire::PutU32(out, byte_size);
  wire::PutU8(out, is_compressed ? 1 : 0);
  wire::PutU32(out, original_size);
  wire::PutU32(out, checksum);
}

}  // namespace

FixedCompressedSwapLayout::FixedCompressedSwapLayout(FileSystem* fs, Options options)
    : fs_(fs), options_(options) {
  CC_EXPECTS(fs_ != nullptr);
  if (options_.durable) {
    journal_ = std::make_unique<SwapJournal>(fs_, "fcswap.journal");
  }
}

FileId FixedCompressedSwapLayout::SwapFileFor(uint32_t segment) {
  const auto it = swap_files_.find(segment);
  if (it != swap_files_.end()) {
    return it->second;
  }
  const FileId id = fs_->OpenOrCreate("fcswap.seg" + std::to_string(segment));
  swap_files_.emplace(segment, id);
  return id;
}

IoStatus FixedCompressedSwapLayout::WriteBatch(std::span<const SwapPageImage> pages) {
  // No clustering is possible: each page lives at its own fixed offset, so every
  // page is its own (usually partial-block) write — the design's whole problem.
  IoStatus status = IoStatus::kOk;
  for (const SwapPageImage& img : pages) {
    CC_EXPECTS(!img.bytes.empty());
    CC_EXPECTS(img.bytes.size() <= kPageSize);  // one fixed page-sized slot each
    if (journal_ != nullptr) {
      // Intent *before* data: the overwrite destroys the previous image in
      // place, so Mount() needs both generations' metadata to classify the
      // slot after a crash.
      std::vector<uint8_t> payload;
      wire::PutU32(payload, img.key.segment);
      wire::PutU32(payload, img.key.page);
      const auto prev = sizes_.find(img.key);
      wire::PutU8(payload, prev != sizes_.end() ? 1 : 0);
      if (prev != sizes_.end()) {
        PutStoredMeta(payload, prev->second.byte_size, prev->second.is_compressed,
                      prev->second.original_size, prev->second.checksum);
      } else {
        PutStoredMeta(payload, 0, false, 0, 0);
      }
      PutStoredMeta(payload, static_cast<uint32_t>(img.bytes.size()), img.is_compressed,
                    img.original_size, img.checksum);
      if (journal_->Append(kRecIntent, payload) != IoStatus::kOk) {
        // Without a durable intent the overwrite must not start: the old slot
        // stays untouched and authoritative.
        ++io_failures_;
        status = IoStatus::kFailed;
        continue;
      }
    }
    if (fs_->Write(SwapFileFor(img.key.segment), OffsetOf(img.key), img.bytes) !=
        IoStatus::kOk) {
      // This page's slot is unchanged (or partially stale — the checksum would
      // catch that at read time); the old StoredSize entry stays authoritative.
      ++io_failures_;
      status = IoStatus::kFailed;
      continue;
    }
    sizes_[img.key] = StoredSize{static_cast<uint32_t>(img.bytes.size()), img.is_compressed,
                                 img.original_size, img.checksum};
    ++stats_.pages_written;
    stats_.payload_bytes_written += img.bytes.size();
  }
  return status;
}

CompressedSwapBackend::ReadResult FixedCompressedSwapLayout::ReadPage(
    PageKey key, bool /*collect_coresidents*/) {
  const auto it = sizes_.find(key);
  CC_EXPECTS(it != sizes_.end());
  ReadResult result;
  result.is_compressed = it->second.is_compressed;
  result.original_size = it->second.original_size;
  result.checksum = it->second.checksum;
  result.bytes.resize(it->second.byte_size);
  // The request is for just the compressed bytes; the file system still moves
  // whole blocks underneath. No coresidents ever: each block holds one page.
  if (fs_->Read(SwapFileFor(key.segment), OffsetOf(key), result.bytes) != IoStatus::kOk) {
    ++io_failures_;
    result.status = IoStatus::kFailed;
    result.bytes.clear();
    return result;
  }
  if (result.checksum != 0 && Crc32(result.bytes) != result.checksum) {
    ++checksum_mismatches_;
    result.status = IoStatus::kCorrupt;
  }
  result.blocks_read = 1;
  ++stats_.pages_read;
  return result;
}

void FixedCompressedSwapLayout::Invalidate(PageKey key) {
  if (journal_ != nullptr && sizes_.contains(key)) {
    std::vector<uint8_t> payload;
    wire::PutU32(payload, key.segment);
    wire::PutU32(payload, key.page);
    if (journal_->Append(kRecFree, payload) != IoStatus::kOk) {
      // The in-memory release still happens; replay would resurrect the page,
      // which recovery then treats as part of the durable prefix.
      ++io_failures_;
    }
  }
  sizes_.erase(key);
}

CompressedSwapBackend::MountStats FixedCompressedSwapLayout::Mount() {
  MountStats mount;
  if (journal_ == nullptr) {
    return mount;
  }
  CC_EXPECTS(sizes_.empty());

  // Fold the journal down to each key's newest record: a free record means the
  // slot is durably absent; an intent record means the slot holds the new
  // image, the previous one, or a torn mix — resolved below by reading it.
  struct LastIntent {
    bool prev_present = false;
    StoredSize prev;
    StoredSize next;
  };
  std::unordered_map<PageKey, LastIntent, PageKeyHash> intents;
  const auto replay = journal_->Replay([&](uint8_t type, std::span<const uint8_t> payload) {
    wire::Reader r(payload);
    PageKey key;
    key.segment = r.U32();
    key.page = r.U32();
    if (type == kRecIntent) {
      LastIntent li;
      li.prev_present = r.U8() != 0;
      li.prev.byte_size = r.U32();
      li.prev.is_compressed = r.U8() != 0;
      li.prev.original_size = r.U32();
      li.prev.checksum = r.U32();
      li.next.byte_size = r.U32();
      li.next.is_compressed = r.U8() != 0;
      li.next.original_size = r.U32();
      li.next.checksum = r.U32();
      if (r.ok()) {
        intents[key] = li;
      }
    } else if (type == kRecFree) {
      if (r.ok()) {
        intents.erase(key);
      }
    }
  });
  mount.journal_replays = replay.records;
  if (replay.torn) {
    ++mount.torn_writes_detected;
  }

  std::vector<uint8_t> buf;
  for (const auto& [key, li] : intents) {
    const bool next_sane = li.next.byte_size > 0 && li.next.byte_size <= kPageSize;
    const bool prev_sane =
        li.prev_present && li.prev.byte_size > 0 && li.prev.byte_size <= kPageSize;
    if (!next_sane && !prev_sane) {
      ++mount.pages_dropped;
      ++mount.torn_writes_detected;
      continue;
    }
    buf.assign(std::max(next_sane ? li.next.byte_size : 0u,
                        prev_sane ? li.prev.byte_size : 0u),
               0);
    const bool read_ok =
        fs_->Read(SwapFileFor(key.segment), OffsetOf(key), buf) == IoStatus::kOk;
    const auto prefix = [&](uint32_t n) {
      return std::span<const uint8_t>(buf).subspan(0, n);
    };
    if (read_ok && next_sane && li.next.checksum != 0 &&
        Crc32(prefix(li.next.byte_size)) == li.next.checksum) {
      sizes_[key] = li.next;  // the overwrite completed
      continue;
    }
    if (read_ok && prev_sane && li.prev.checksum != 0 &&
        Crc32(prefix(li.prev.byte_size)) == li.prev.checksum) {
      sizes_[key] = li.prev;  // the overwrite never started
      ++mount.torn_writes_detected;
      continue;
    }
    if (read_ok && next_sane && li.next.checksum == 0) {
      sizes_[key] = li.next;  // unverifiable image: trust the durable intent
      continue;
    }
    ++mount.pages_dropped;  // torn slot: neither generation survives
    ++mount.torn_writes_detected;
  }
  mount.pages_recovered = sizes_.size();
  return mount;
}

void FixedCompressedSwapLayout::ForEachPage(const std::function<void(PageKey)>& fn) const {
  for (const auto& [key, size] : sizes_) {
    fn(key);
  }
}

void FixedCompressedSwapLayout::RegisterAuditChecks(InvariantAuditor* auditor) {
  CC_EXPECTS(auditor != nullptr);
  // The layout has no free-space structures to conserve (slots are fixed), but
  // every stored size must be a plausible page image and its segment must have
  // a swap file to read it back from.
  auditor->Register("swap.fixed_compressed", "stored-sizes",
                    [this]() -> std::optional<std::string> {
    for (const auto& [key, size] : sizes_) {
      if (size.byte_size == 0 || size.byte_size > kPageSize) {
        return "stored size " + std::to_string(size.byte_size) +
               " for segment " + std::to_string(key.segment) + " page " +
               std::to_string(key.page) + " is outside (0, page size]";
      }
      if (!swap_files_.contains(key.segment)) {
        return "segment " + std::to_string(key.segment) +
               " has stored pages but no swap file";
      }
    }
    return std::nullopt;
  });
}

void FixedCompressedSwapLayout::BindMetrics(MetricRegistry* registry) {
  CC_EXPECTS(registry != nullptr);
  const FixedCompressedSwapStats* s = &stats_;
  registry->RegisterCounterGauge("swap.fixed_compressed.pages_written",
                                 [s] { return static_cast<double>(s->pages_written); });
  registry->RegisterCounterGauge("swap.fixed_compressed.pages_read",
                                 [s] { return static_cast<double>(s->pages_read); });
  registry->RegisterCounterGauge("swap.fixed_compressed.payload_bytes_written",
                                 [s] { return static_cast<double>(s->payload_bytes_written); });
}

}  // namespace compcache
