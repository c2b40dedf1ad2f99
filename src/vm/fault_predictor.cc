#include "vm/fault_predictor.h"

#include <algorithm>
#include <cstddef>

#include "util/units.h"

namespace compcache {

void FaultPredictor::RecordFault(PageKey key) {
  // Markov: count `key` as a successor of the previous fault.
  if (has_fault_ && !(last_fault_ == key)) {
    Successors& succ = markov_[last_fault_];
    Successor* const begin = succ.entries.data();
    Successor* const end = begin + succ.size;
    Successor* it =
        std::find_if(begin, end, [&](const Successor& s) { return s.key == key; });
    if (it != end) {
      ++it->count;
      // Keep the entries ordered by count (descending, stable) so prediction
      // is a prefix scan.
      while (it != begin && (it - 1)->count < it->count) {
        std::iter_swap(it - 1, it);
        --it;
      }
    } else if (succ.size < kMaxSuccessors) {
      succ.entries[succ.size++] = Successor{key, 1};
    } else {
      // Table full: age the weakest entry; replace it once it decays to zero.
      Successor& weakest = succ.entries[kMaxSuccessors - 1];
      if (weakest.count <= 1) {
        weakest = Successor{key, 1};
      } else {
        --weakest.count;
      }
    }
  }

  // Stride: two equal consecutive deltas within a segment confirm a stream.
  Stream& stream = streams_[key.segment];
  if (stream.has_last) {
    const int64_t delta = static_cast<int64_t>(key.page) -
                          static_cast<int64_t>(stream.last_page);
    if (delta != 0 && delta == stream.delta) {
      stream.confirmed = true;
    } else {
      stream.delta = delta;
      stream.confirmed = false;
    }
  }
  stream.last_page = key.page;
  stream.has_last = true;

  last_fault_ = key;
  has_fault_ = true;
}

size_t FaultPredictor::Predict(std::span<PageKey> out) {
  const size_t max = out.size();
  size_t count = 0;
  if (!has_fault_ || max == 0) {
    return count;
  }

  const auto push_unique = [&](PageKey key) {
    if (key == last_fault_) {
      return;
    }
    const std::span<PageKey> filled = out.first(count);
    if (std::find(filled.begin(), filled.end(), key) == filled.end()) {
      out[count++] = key;
    }
  };

  // Confirmed stride: extrapolate the stream.
  const auto sit = streams_.find(last_fault_.segment);
  if (sit != streams_.end() && sit->second.confirmed) {
    int64_t page = static_cast<int64_t>(sit->second.last_page);
    while (count < max) {
      page += sit->second.delta;
      if (page < 0 || page > static_cast<int64_t>(UINT32_MAX)) {
        break;
      }
      push_unique(PageKey{last_fault_.segment, static_cast<uint32_t>(page)});
    }
    return count;
  }

  // Markov fallback: chain the most frequent successors. A tie among equally
  // frequent candidates is broken by a seeded draw — deterministic per seed.
  PageKey cursor = last_fault_;
  while (count < max) {
    const auto mit = markov_.find(cursor);
    if (mit == markov_.end() || mit->second.size == 0) {
      break;
    }
    const Successors& succ = mit->second;
    const uint32_t best = succ.entries[0].count;
    size_t tied = 1;
    while (tied < succ.size && succ.entries[tied].count == best) {
      ++tied;
    }
    const PageKey pick =
        succ.entries[tied == 1 ? 0 : static_cast<size_t>(rng_.Below(tied))].key;
    const size_t before = count;
    push_unique(pick);
    if (count == before) {
      break;  // already predicted (cycle) — stop rather than loop
    }
    cursor = pick;
  }
  return count;
}

}  // namespace compcache
