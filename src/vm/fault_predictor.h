// Fault-stream predictor for the decompress-ahead prefetcher: a per-segment
// stride detector backed by a first-order Markov successor table.
//
// The stride detector captures the thrasher's (and any scan's) linear walks:
// two consecutive equal strides confirm a stream, after which predictions
// extrapolate it. When no stride is confirmed, the Markov table predicts the
// most frequent successor seen after the current page — enough to learn
// repeating non-linear patterns. Ties among equally frequent successors are
// broken by a seeded Rng draw, so prediction is deterministic per seed and
// two identically seeded predictors fed the same stream agree exactly.
#ifndef COMPCACHE_VM_FAULT_PREDICTOR_H_
#define COMPCACHE_VM_FAULT_PREDICTOR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>

#include "util/rng.h"
#include "vm/page_key.h"

namespace compcache {

class FaultPredictor {
 public:
  explicit FaultPredictor(uint64_t seed) : rng_(seed) {}

  // Feeds one fault into the stride and Markov state.
  void RecordFault(PageKey key);

  // Writes up to out.size() distinct predicted next pages into `out`, most
  // confident first, never including the page just faulted, and returns how
  // many it wrote. May write fewer (cold state). The caller owns the buffer,
  // so a prediction allocates nothing.
  size_t Predict(std::span<PageKey> out);

  // Introspection for tests.
  bool stride_confirmed(uint32_t segment) const {
    const auto it = streams_.find(segment);
    return it != streams_.end() && it->second.confirmed;
  }

  // Sign of the confirmed stride for `segment`: +1 ascending, -1 descending,
  // 0 when no stream is confirmed. Fault batching uses this to avoid reading
  // trailing neighbors on a directional walk.
  int StrideDirection(uint32_t segment) const {
    const auto it = streams_.find(segment);
    if (it == streams_.end() || !it->second.confirmed) {
      return 0;
    }
    return it->second.delta > 0 ? 1 : it->second.delta < 0 ? -1 : 0;
  }

 private:
  // Per-segment stride stream: last fault page, last delta, confirmation.
  struct Stream {
    uint32_t last_page = 0;
    int64_t delta = 0;
    bool has_last = false;
    bool confirmed = false;
  };
  // Markov successors of one page, counted. Kept tiny (kMaxSuccessors),
  // inline in the table entry, and ordered by count so prediction is a scan
  // of a short array.
  struct Successor {
    PageKey key;
    uint32_t count = 0;
  };
  static constexpr size_t kMaxSuccessors = 4;
  struct Successors {
    std::array<Successor, kMaxSuccessors> entries;
    size_t size = 0;
  };

  std::unordered_map<uint32_t, Stream> streams_;
  // fault key -> counted successors (the fault observed right after it).
  std::unordered_map<PageKey, Successors, PageKeyHash> markov_;
  PageKey last_fault_;
  bool has_fault_ = false;
  Rng rng_;
};

}  // namespace compcache

#endif  // COMPCACHE_VM_FAULT_PREDICTOR_H_
