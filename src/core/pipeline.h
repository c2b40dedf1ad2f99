// Decompress-ahead engine: the prefetching half of the async I/O pipeline.
//
// The engine watches the fault stream through the Pager's PagePrefetcher hook,
// feeds it to a seeded stride+Markov predictor, and speculatively decompresses
// predicted-next ccache entries into a small buffer of arbiter-charged frames.
// In the model, a fault that hits the buffer is served by a memory copy: the
// decompression was already charged on the background timeline, and no disk
// is touched. On the host, decoding is lazy: a buffer frame holds the entry's
// verified compressed image, decoded into the faulting frame only on a hit,
// so the many predictions nobody consumes cost a copy and a checksum, not a
// decode.
// Swapped-out pages are never read speculatively — on a seek-dominated disk a
// separate single-page read costs more than the fault it might save. Instead,
// fault batching widens the demand swap read itself (the clustered layout's
// readahead_blocks), whose coresidents land in the ccache and become
// decompress-ahead targets here.
//
// Speculative work is free of the app clock but not free of time: each issue
// runs on a background timeline (decompression serialized behind the previous
// speculation), and a demand hit that arrives before its entry is ready waits
// out the remainder. Speculation never perturbs outcomes: no injector ordinals
// are drawn on the ccache path, and a corrupt or unreadable source page is
// simply not buffered — the demand fault rediscovers the problem through the
// real ladder.
//
// Buffer frames are the memory arbiter's fourth consumer ("prefetch"), biased
// at parity with resident VM pages: a fresh speculation is a page expected to
// be referenced next and should not be the instant victim, but one that has
// aged past the oldest resident page is a stale guess and goes first.
#ifndef COMPCACHE_CORE_PIPELINE_H_
#define COMPCACHE_CORE_PIPELINE_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "ccache/compression_cache.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "swap/write_behind_backend.h"
#include "util/audit.h"
#include "util/metrics.h"
#include "vm/fault_predictor.h"
#include "vm/frame_source.h"
#include "vm/page_key.h"
#include "vm/prefetcher.h"

namespace compcache {

class Pager;

// Knobs for the whole pipeline (write-behind + decompress-ahead), carried in
// MachineConfig. Pipelining requires the compression-cache configuration.
struct PipelineOptions {
  bool enabled = false;
  // Outstanding write-behind batches, counting the one being submitted;
  // 1 degenerates to the synchronous machine.
  uint32_t write_behind_depth = 1;
  // Decompress-ahead prefetcher on/off (off: the engine only observes faults).
  bool prefetch = false;
  // Frames the prefetch buffer may hold (arbiter-charged).
  uint32_t prefetch_buffer_pages = 8;
  // Predictions issued per serviced fault.
  uint32_t prefetch_per_fault = 1;
  // Fault batching: widen each demand swap read by up to this many adjacent
  // file blocks (one disk operation — the seek is already paid), and
  // decompress-ahead the coresident neighbors it returns. 0 disables.
  uint32_t fault_batch_window = 0;
};

struct PrefetchStats {
  uint64_t issued = 0;   // speculative pages buffered (decompressed, in the model)
  uint64_t hits = 0;     // demand faults served from the buffer
  uint64_t misses = 0;   // buffered pages discarded unconsumed
  uint64_t batched = 0;  // issues that came from fault batching (subset of issued)
  SimDuration wait_ready_time;  // demand hits waiting on unfinished speculation
  SimDuration background_time;  // speculative decompress/copy time (off-clock)
};

class PipelineEngine : public PagePrefetcher {
 public:
  // Seed of the predictor's tie-break draws (fixed: every run is seeded alike).
  static constexpr uint64_t kPredictorSeed = 1;

  PipelineEngine(Clock* clock, const CostModel* costs, FrameSource* frames,
                 CompressionCache* ccache, WriteBehindBackend* write_behind,
                 const PipelineOptions& options);
  ~PipelineEngine() override;

  PipelineEngine(const PipelineEngine&) = delete;
  PipelineEngine& operator=(const PipelineEngine&) = delete;

  // The pager is wired after construction (it needs the engine as its
  // PagePrefetcher, and the engine needs the pager's page states).
  void SetPager(Pager* pager) { pager_ = pager; }

  // --- PagePrefetcher ---
  std::optional<FaultOrigin> TryFill(PageKey key, std::span<uint8_t> out) override;
  void OnFault(PageKey key, FaultOrigin origin) override;
  void Invalidate(PageKey key) override;

  // --- memory arbitration interface (consumer "prefetch") ---
  uint64_t OldestAge() const;
  bool ReleaseOldest();

  // Discards every buffered entry as a miss (benches call this, via
  // Machine::DrainPipeline, before taking a snapshot so that
  // issued == hits + misses holds over the published counters).
  void Flush();

  size_t buffered_frames() const { return buffer_.size(); }
  bool IsBuffered(PageKey key) const { return buffer_.contains(key); }
  const PrefetchStats& stats() const { return stats_; }
  FaultPredictor& predictor() { return predictor_; }

  void ResetStats() { stats_ = PrefetchStats{}; }
  // Publishes "prefetch.*" gauges.
  void BindMetrics(MetricRegistry* registry);
  // Registers buffer-conservation checks under subsystem "prefetch".
  void RegisterAuditChecks(InvariantAuditor* auditor);

 private:
  struct Entry {
    FrameId frame;
    uint32_t image_len = 0;  // staged compressed image bytes; 0 = zero page
    SimTime ready_at;        // speculation finishes on the background timeline
    uint64_t age_ns = 0;     // issue time, for the arbiter
  };

  // Issues one speculative page if it is a sensible target; returns true when
  // an entry entered the buffer. `batched` marks fault-batching issues.
  bool IssueOne(PageKey key, bool batched);
  // Fault batching: decompress ahead the neighbors the widened swap read just
  // deposited in the ccache, skipping the trailing side of a directional walk.
  void IssueNeighbors(PageKey key);
  // Discards `key`'s entry (if any), freeing its frame. Counts a miss when
  // `count_miss`.
  void Drop(PageKey key, bool count_miss);
  // Removes the oldest entry (miss) to make room.
  void EvictOldest();

  Clock* clock_;
  const CostModel* costs_;
  FrameSource* frames_;
  CompressionCache* ccache_;
  WriteBehindBackend* write_behind_;
  Pager* pager_ = nullptr;
  PipelineOptions options_;

  FaultPredictor predictor_;
  // Candidate buffer for predictor_.Predict, sized once: a few more than
  // prefetch_per_fault, since some candidates are resident or buffered.
  std::vector<PageKey> candidates_;
  std::unordered_map<PageKey, Entry, PageKeyHash> buffer_;
  std::deque<PageKey> order_;  // issue order, oldest first
  // Background timeline: speculative decompression is serialized on a single
  // virtual "spare cycles" track that never runs ahead of the app clock's past.
  SimTime background_busy_until_;

  PrefetchStats stats_;
  // Lifetime counters for the auditor (survive ResetStats):
  // issued == hits + misses + buffered.
  uint64_t lifetime_issued_ = 0;
  uint64_t lifetime_hits_ = 0;
  uint64_t lifetime_misses_ = 0;
};

}  // namespace compcache

#endif  // COMPCACHE_CORE_PIPELINE_H_
