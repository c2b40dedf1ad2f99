// Interface over backing-store layouts for compressed pages, so the paper's
// section-4.3 design alternatives can be swapped against each other:
//   * ClusteredSwapLayout — the paper's implemented design (1 KB fragments,
//     32 KB batched writes, explicit location map, block-reuse GC);
//   * FixedCompressedSwapLayout — the paper's rejected "ideal": keep each page at
//     its fixed swap-file offset and transfer only the compressed bytes, which
//     runs into the file system's whole-block semantics (a 2 KB write becomes a
//     4 KB read plus a 4 KB write).
#ifndef COMPCACHE_SWAP_COMPRESSED_SWAP_BACKEND_H_
#define COMPCACHE_SWAP_COMPRESSED_SWAP_BACKEND_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "disk/disk_device.h"
#include "util/io_status.h"
#include "util/metrics.h"
#include "util/time_types.h"
#include "util/trace.h"
#include "util/units.h"
#include "vm/page_key.h"

namespace compcache {

class InvariantAuditor;

// One page image queued for a write (shared by all backends).
struct SwapPageImage {
  PageKey key;
  std::vector<uint8_t> bytes;  // compressed bitstream, or raw page if !is_compressed
  bool is_compressed = true;
  uint32_t original_size = kPageSize;
  // CRC-32C of `bytes`, carried in fragment metadata and verified at read time.
  // 0 means "not recorded": readers skip verification for such images.
  uint32_t checksum = 0;
};

class CompressedSwapBackend {
 public:
  virtual ~CompressedSwapBackend() = default;

  // Writes a batch of page images. Any previous copy of the same pages becomes
  // obsolete. On kFailed nothing is recorded: prior copies of the same pages
  // stay valid and readable.
  virtual IoStatus WriteBatch(std::span<const SwapPageImage> pages) = 0;

  // --- split submit/complete (async write lifecycle) ---
  // SubmitWriteBatch performs the batch *physically* at the submit instant —
  // stored bytes, durable metadata, IoStatus, and fault-injector ordinals are
  // exactly those of WriteBatch — but the device time accrues on the disk's
  // deferred timeline instead of the caller's clock. The returned ticket says
  // what happened and when the device finishes servicing it; the write-behind
  // engine turns the latter into a completion event. Splitting "what happened"
  // (submit) from "when it cost" (completion) is what keeps pipelined runs
  // deterministic: outcomes never depend on queue depth.
  struct WriteTicket {
    IoStatus status = IoStatus::kOk;
    SimTime complete_at;      // when the device finishes the batch's requests
    SimDuration device_time;  // service time the batch added to the disk queue
  };
  virtual WriteTicket SubmitWriteBatch(std::span<const SwapPageImage> pages) {
    DiskDevice::DeferredScope window(device());
    WriteTicket ticket;
    ticket.status = WriteBatch(pages);
    ticket.device_time = window.busy();
    ticket.complete_at = window.Close();
    return ticket;
  }

  // The device the layout's I/O is charged to (used for deferred windows).
  virtual DiskDevice* device() = 0;

  virtual bool Contains(PageKey key) const = 0;

  struct ReadResult {
    // kFailed: the device gave up and `bytes` is empty. kCorrupt: `bytes` was
    // read but failed checksum verification (returned anyway, for forensics).
    IoStatus status = IoStatus::kOk;
    std::vector<uint8_t> bytes;
    bool is_compressed = true;
    uint32_t original_size = kPageSize;
    uint32_t checksum = 0;  // as stored; 0 when the image carried none
    // Other whole pages that happened to live in the blocks read (only the
    // clustered layouts produce these). Corrupt coresidents are dropped, never
    // returned.
    std::vector<SwapPageImage> coresidents;
    uint64_t blocks_read = 0;
  };

  // Reads one page (the page must be present).
  virtual ReadResult ReadPage(PageKey key, bool collect_coresidents) = 0;

  // Marks a page's copy obsolete (rewritten in memory or dropped).
  virtual void Invalidate(PageKey key) = 0;

  // --- crash recovery ---
  struct MountStats {
    uint64_t pages_recovered = 0;        // pages readable after the scan
    uint64_t pages_dropped = 0;          // durable metadata but bad/absent data
    uint64_t journal_replays = 0;        // journal records (or summaries) applied
    uint64_t torn_writes_detected = 0;   // torn tails / failed verify reads
    uint64_t checkpoint_loads = 0;       // LFS only: checkpoint slots accepted
  };

  // Rebuilds the layout's in-memory maps from its durable on-disk format
  // (journal replay / checkpoint + summary roll-forward). A non-durable
  // layout mounts empty. Call exactly once, before the first WriteBatch, on a
  // backend constructed over a surviving disk image.
  virtual MountStats Mount() { return MountStats{}; }

  // Calls `fn` once per page currently stored (order unspecified). The pager's
  // audit check walks this to prove every backend copy is still claimed by a
  // page-table entry — leaked locations show up as orphans here.
  virtual void ForEachPage(const std::function<void(PageKey)>& fn) const = 0;

  // Registers the layout's internal consistency checks (free-space
  // conservation, index/location agreement) with the auditor.
  virtual void RegisterAuditChecks(InvariantAuditor* auditor) = 0;

  // Zeroes event counters (layout stats plus the shared integrity counters).
  // Stored pages and free-space structures are untouched.
  virtual void ResetStats() { ResetBaseCounters(); }

  // --- integrity ---
  // Every read verifies a recorded checksum; there is no switch to skip it.
  uint64_t checksum_mismatches() const { return checksum_mismatches_; }
  uint64_t io_failures() const { return io_failures_; }
  uint64_t coresidents_dropped() const { return coresidents_dropped_; }

  // --- observability ---
  // Publishes the layout's counters as "swap.<layout>.*" gauges.
  virtual void BindMetrics(MetricRegistry* registry) = 0;
  // Records write-batch/read events; the default keeps tracing off.
  virtual void SetTracer(EventTracer* tracer) { (void)tracer; }

 protected:
  void ResetBaseCounters() {
    checksum_mismatches_ = 0;
    io_failures_ = 0;
    coresidents_dropped_ = 0;
  }

  uint64_t checksum_mismatches_ = 0;
  uint64_t io_failures_ = 0;
  uint64_t coresidents_dropped_ = 0;
};

}  // namespace compcache

#endif  // COMPCACHE_SWAP_COMPRESSED_SWAP_BACKEND_H_
