#include "core/pipeline.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string>

#include "util/assert.h"
#include "util/units.h"
#include "vm/pager.h"

namespace compcache {

PipelineEngine::PipelineEngine(Clock* clock, const CostModel* costs,
                               FrameSource* frames, CompressionCache* ccache,
                               WriteBehindBackend* write_behind,
                               const PipelineOptions& options)
    : clock_(clock),
      costs_(costs),
      frames_(frames),
      ccache_(ccache),
      write_behind_(write_behind),
      options_(options),
      predictor_(kPredictorSeed),
      candidates_(static_cast<size_t>(options.prefetch_per_fault) * 2) {
  CC_EXPECTS(clock_ != nullptr);
  CC_EXPECTS(costs_ != nullptr);
  CC_EXPECTS(frames_ != nullptr);
  CC_EXPECTS(ccache_ != nullptr);
  CC_EXPECTS(write_behind_ != nullptr);
  CC_EXPECTS(options_.prefetch_buffer_pages >= 1);
}

PipelineEngine::~PipelineEngine() {
  // Frames go home; the final audit already ran with the buffer accounted for.
  for (auto& [key, entry] : buffer_) {
    frames_->FreeFrame(entry.frame);
  }
  buffer_.clear();
  order_.clear();
}

void PipelineEngine::Drop(PageKey key, bool count_miss) {
  const auto it = buffer_.find(key);
  if (it == buffer_.end()) {
    return;
  }
  frames_->FreeFrame(it->second.frame);
  buffer_.erase(it);
  order_.erase(std::find(order_.begin(), order_.end(), key));
  if (count_miss) {
    ++stats_.misses;
    ++lifetime_misses_;
  }
}

void PipelineEngine::EvictOldest() {
  CC_EXPECTS(!order_.empty());
  Drop(order_.front(), /*count_miss=*/true);
}

uint64_t PipelineEngine::OldestAge() const {
  if (order_.empty()) {
    return UINT64_MAX;
  }
  return buffer_.at(order_.front()).age_ns;
}

bool PipelineEngine::ReleaseOldest() {
  if (order_.empty()) {
    return false;
  }
  EvictOldest();
  return true;
}

void PipelineEngine::Flush() {
  while (!order_.empty()) {
    EvictOldest();
  }
}

void PipelineEngine::Invalidate(PageKey key) { Drop(key, /*count_miss=*/true); }

std::optional<FaultOrigin> PipelineEngine::TryFill(PageKey key,
                                                   std::span<uint8_t> out) {
  const auto it = buffer_.find(key);
  if (it == buffer_.end()) {
    return std::nullopt;
  }
  const Entry entry = it->second;
  // The speculation may still be "running" on the background timeline; a
  // demand hit waits out the remainder (still far cheaper than redoing the
  // whole rung).
  if (entry.ready_at > clock_->Now()) {
    const SimDuration wait = entry.ready_at - clock_->Now();
    clock_->Advance(wait, TimeCategory::kDecompression);
    stats_.wait_ready_time += wait;
  }
  // The model serves the hit with a page copy (the decompression was charged
  // on the background track at issue); the host decodes the staged image only
  // now, so speculation that is never consumed costs no host decode.
  const auto data = frames_->FrameData(entry.frame);
  CC_ASSERT(data.size() == out.size());
  ccache_->DecodeStagedImage(data.first(entry.image_len), out);
  clock_->Advance(costs_->CopyCost(out.size()), TimeCategory::kCopy);
  // The retained compressed copy just serviced a demand reference.
  ccache_->Touch(key);
  frames_->FreeFrame(entry.frame);
  buffer_.erase(key);
  order_.erase(std::find(order_.begin(), order_.end(), key));
  ++stats_.hits;
  ++lifetime_hits_;
  return FaultOrigin::kCcache;
}

bool PipelineEngine::IssueOne(PageKey key, bool batched) {
  CC_ASSERT(pager_ != nullptr);
  if (IsFileKey(key) || buffer_.contains(key)) {
    return false;
  }
  // Only pages living in the compression cache are worth decompressing
  // ahead. Swapped-out pages are deliberately NOT read speculatively: on this
  // disk every operation pays a seek and rotation, so a predictor-initiated
  // single-page swap read costs more queueing delay than the fault it might
  // save — adjacent swapped pages instead coalesce into the demand read
  // itself (the clustered layout's widened reads), arrive as coresidents,
  // and become decompress-ahead targets here once they are in the ccache.
  const PageEntry* page = pager_->PeekEntry(key);
  if (page == nullptr || page->state != PageState::kCompressed) {
    return false;
  }
  if (buffer_.size() >= options_.prefetch_buffer_pages) {
    EvictOldest();
  }

  // Prefer a frame that is free right now (speculation on idle memory); when
  // the pool is saturated, front-run the demand fault this prediction stands
  // in for — the arbiter picks the globally oldest victim, and on a hit the
  // freed buffer frame satisfies the demand fault's own allocation, so the
  // steady-state eviction rate matches the synchronous machine.
  std::optional<FrameId> frame = frames_->TryAllocateFrame();
  if (!frame.has_value()) {
    frame = frames_->AllocateFrame();
    // Forced allocation can reclaim — from this buffer or from the ccache
    // (possibly the very entry being prefetched) — so re-read the page's
    // state before touching the source copy.
    if (page->state != PageState::kCompressed) {
      frames_->FreeFrame(*frame);
      return false;
    }
  }
  SimDuration work;  // decompress time, background timeline
  const std::optional<uint32_t> image_len =
      ccache_->StageImage(key, frames_->FrameData(*frame), &work);
  if (!image_len.has_value()) {
    // Corrupt or unreadable source: leave it for the demand fault's ladder
    // (which meters and recovers); speculation stays invisible.
    frames_->FreeFrame(*frame);
    return false;
  }

  // Decompression serializes on the background track.
  const SimTime start = std::max(background_busy_until_, clock_->Now());
  Entry entry;
  entry.frame = *frame;
  entry.image_len = *image_len;
  entry.ready_at = start + work;
  entry.age_ns = static_cast<uint64_t>(clock_->Now().nanos());
  background_busy_until_ = entry.ready_at;
  stats_.background_time += work;

  buffer_.emplace(key, entry);
  order_.push_back(key);
  ++stats_.issued;
  ++lifetime_issued_;
  if (batched) {
    ++stats_.batched;
  }
  return true;
}

void PipelineEngine::IssueNeighbors(PageKey key) {
  // The demand swap read just widened across adjacent blocks and deposited
  // their coresident pages in the ccache; decompress them ahead, nearest
  // first. When the fault stream has a confirmed direction, only the leading
  // side — trailing neighbors of a directional walk are guaranteed-dead
  // guesses. Undirected streams probe both sides.
  const int dir = predictor_.StrideDirection(key.segment);
  for (uint32_t d = 1; d <= options_.fault_batch_window; ++d) {
    if (dir >= 0) {
      IssueOne(PageKey{key.segment, key.page + d}, /*batched=*/true);
    }
    if (dir <= 0 && key.page >= d) {
      IssueOne(PageKey{key.segment, key.page - d}, /*batched=*/true);
    }
  }
}

void PipelineEngine::OnFault(PageKey key, FaultOrigin origin) {
  predictor_.RecordFault(key);
  if (!options_.prefetch) {
    return;
  }
  if (origin == FaultOrigin::kSwap && options_.fault_batch_window > 0) {
    IssueNeighbors(key);
  }
  if (options_.prefetch_per_fault == 0) {
    return;
  }
  const size_t predicted = predictor_.Predict(candidates_);
  uint32_t issued = 0;
  for (const PageKey candidate : std::span(candidates_).first(predicted)) {
    if (issued >= options_.prefetch_per_fault) {
      break;
    }
    if (IssueOne(candidate, /*batched=*/false)) {
      ++issued;
    }
  }
}

void PipelineEngine::BindMetrics(MetricRegistry* registry) {
  CC_EXPECTS(registry != nullptr);
  const PrefetchStats* s = &stats_;
  registry->RegisterCounterGauge(
      "prefetch.issued", [s] { return static_cast<double>(s->issued); });
  registry->RegisterCounterGauge(
      "prefetch.hits", [s] { return static_cast<double>(s->hits); });
  registry->RegisterCounterGauge(
      "prefetch.misses", [s] { return static_cast<double>(s->misses); });
  registry->RegisterCounterGauge(
      "prefetch.batched", [s] { return static_cast<double>(s->batched); });
  registry->RegisterCounterGauge("prefetch.wait_ready_ns", [s] {
    return static_cast<double>(s->wait_ready_time.nanos());
  });
  registry->RegisterCounterGauge("prefetch.background_ns", [s] {
    return static_cast<double>(s->background_time.nanos());
  });
  registry->RegisterGauge("prefetch.buffered", [this] {
    return static_cast<double>(buffer_.size());
  });
}

void PipelineEngine::RegisterAuditChecks(InvariantAuditor* auditor) {
  CC_EXPECTS(auditor != nullptr);
  auditor->Register("prefetch", "buffer-conservation",
                    [this]() -> std::optional<std::string> {
                      if (lifetime_issued_ !=
                          lifetime_hits_ + lifetime_misses_ + buffer_.size()) {
                        return "issued " + std::to_string(lifetime_issued_) +
                               " != hits " + std::to_string(lifetime_hits_) +
                               " + misses " + std::to_string(lifetime_misses_) +
                               " + buffered " + std::to_string(buffer_.size());
                      }
                      if (buffer_.size() != order_.size()) {
                        return "buffer holds " + std::to_string(buffer_.size()) +
                               " entries but the age order lists " +
                               std::to_string(order_.size());
                      }
                      if (buffer_.size() > options_.prefetch_buffer_pages) {
                        return "buffer exceeds its bound";
                      }
                      return std::nullopt;
                    });
}

}  // namespace compcache
