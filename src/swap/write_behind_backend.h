// Write-behind decorator over a compressed swap backend.
//
// The paper's clustered 32 KB write-out amortizes seek cost but is still fully
// synchronous in the baseline machine: the faulting app stalls until the whole
// batch reaches the platter. This decorator turns each WriteBatch into a
// *submitted* background request: the wrapped layout performs the batch
// physically at the submit instant (bytes, metadata, IoStatus, and fault
// ordinals are identical to the synchronous path — outcomes never depend on
// queue depth), while the device time accrues on the disk's deferred timeline
// and a completion event is scheduled on a (time, seq)-ordered event queue.
// Subsequent app CPU (compression of the next batch, page touches) overlaps
// the disk.
//
// Three rules keep the model honest:
//   * Backpressure — at most `depth` batches may be outstanding; a submit that
//     would exceed the bound stalls (kIo) until the oldest batch completes.
//     Depth 1 therefore degenerates to the synchronous machine: every submit
//     waits out its own disk time before returning.
//   * Barrier — faulting in a page whose batch is still in flight waits for
//     that batch's completion first (the data is physically readable, but a
//     real disk queue would not let the read overtake the write).
//   * FIFO device — foreground I/O issued while deferred work is pending
//     queues behind it (charged by DiskDevice as disk.queue_wait_ns).
#ifndef COMPCACHE_SWAP_WRITE_BEHIND_BACKEND_H_
#define COMPCACHE_SWAP_WRITE_BEHIND_BACKEND_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/clock.h"
#include "sim/event_queue.h"
#include "swap/compressed_swap_backend.h"
#include "vm/page_key.h"

namespace compcache {

struct WriteBehindStats {
  uint64_t batches_submitted = 0;
  uint64_t batches_completed = 0;
  uint64_t pages_submitted = 0;
  uint64_t barrier_stalls = 0;       // fault-in hit an in-flight batch
  uint64_t backpressure_stalls = 0;  // submit found the queue full
  SimDuration stall_time;            // clock advanced waiting on completions
  SimDuration deferred_io_time;      // device time accrued off the app clock
};

class WriteBehindBackend : public CompressedSwapBackend {
 public:
  // `depth` >= 1 bounds outstanding batches (1 = effectively synchronous).
  WriteBehindBackend(std::unique_ptr<CompressedSwapBackend> inner, Clock* clock,
                     uint32_t depth);

  // Submits the batch via the inner layout's SubmitWriteBatch, schedules its
  // completion event, then applies backpressure. Returns the batch's IoStatus
  // (known at submit: outcomes are depth-independent).
  IoStatus WriteBatch(std::span<const SwapPageImage> pages) override;

  // A wrapped wrapper would double-defer; forward to the inner layout.
  WriteTicket SubmitWriteBatch(std::span<const SwapPageImage> pages) override {
    return inner_->SubmitWriteBatch(pages);
  }
  DiskDevice* device() override { return inner_->device(); }

  // Barrier: if `key` belongs to an in-flight batch, stalls to that batch's
  // completion before reading through.
  ReadResult ReadPage(PageKey key, bool collect_coresidents) override;

  // Metadata is committed at submit, so these forward without stalling.
  bool Contains(PageKey key) const override { return inner_->Contains(key); }
  void Invalidate(PageKey key) override { inner_->Invalidate(key); }
  MountStats Mount() override { return inner_->Mount(); }
  void ForEachPage(const std::function<void(PageKey)>& fn) const override {
    inner_->ForEachPage(fn);
  }
  void RegisterAuditChecks(InvariantAuditor* auditor) override;
  void ResetStats() override {
    stats_ = WriteBehindStats{};
    inner_->ResetStats();
  }
  void BindMetrics(MetricRegistry* registry) override;
  void SetTracer(EventTracer* tracer) override { inner_->SetTracer(tracer); }

  // Fires completion events the clock has already passed (never advances it).
  void Poll();
  // Waits out every in-flight batch: advances the clock (kIo, counted in
  // stall_time) to each completion in order. With `advance_clock` false the
  // events are retired without moving time (post-crash teardown).
  void Drain(bool advance_clock);
  // True while the batch that last wrote `key` is still in flight.
  bool InFlight(PageKey key) const { return inflight_keys_.contains(key); }

  CompressedSwapBackend* inner() { return inner_.get(); }
  const WriteBehindStats& stats() const { return stats_; }
  size_t inflight_batches() const { return inflight_.size(); }

 private:
  struct Batch {
    uint64_t seq = 0;
    SimTime complete_at;
    std::vector<PageKey> keys;  // successfully written pages (empty on kFailed)
  };

  // Advances the clock to `t` (kIo) if it is in the future, then polls.
  void StallUntil(SimTime t);
  // Completion handler: removes batch `seq` and its key-index entries.
  void Retire(uint64_t seq);

  std::unique_ptr<CompressedSwapBackend> inner_;
  Clock* clock_;
  uint32_t depth_;
  EventQueue events_;
  std::deque<Batch> inflight_;  // completion order == submit order
  // key -> seq of the latest in-flight batch holding it.
  std::unordered_map<PageKey, uint64_t, PageKeyHash> inflight_keys_;
  uint64_t next_seq_ = 0;
  WriteBehindStats stats_;
  // Lifetime counters for the auditor (survive ResetStats, unlike stats_).
  uint64_t lifetime_submitted_ = 0;
  uint64_t lifetime_completed_ = 0;
};

}  // namespace compcache

#endif  // COMPCACHE_SWAP_WRITE_BEHIND_BACKEND_H_
