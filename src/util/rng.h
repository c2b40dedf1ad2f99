// Deterministic pseudo-random number generator (xoshiro256**).
//
// The simulator must be bit-for-bit reproducible across platforms and standard
// library versions, so we do not use <random> engines or distributions (their
// outputs are implementation-defined for some distributions). All randomness in the
// repository flows through this class.
#ifndef COMPCACHE_UTIL_RNG_H_
#define COMPCACHE_UTIL_RNG_H_

#include <cstdint>

#include "util/assert.h"

namespace compcache {

class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  // Re-seeds the generator via SplitMix64 so that nearby seeds give unrelated
  // streams.
  void Seed(uint64_t seed) {
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). bound must be positive. Uses Lemire's
  // multiply-shift rejection method to avoid modulo bias.
  uint64_t Below(uint64_t bound) {
    CC_EXPECTS(bound > 0);
    while (true) {
      const uint64_t x = Next();
      const unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
      const auto low = static_cast<uint64_t>(m);
      if (low >= bound || low >= (0 - bound) % bound) {
        return static_cast<uint64_t>(m >> 64);
      }
    }
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t Range(int64_t lo, int64_t hi) {
    CC_EXPECTS(lo <= hi);
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo) + 1));
  }

  // Uniform double in [0, 1): the top 53 bits of Next(), scaled by 2^-53.
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Bernoulli draw: true with probability p. Consumes exactly one Next() for
  // every p and returns exactly what `NextDouble() < p` would, but as an
  // integer compare of the same 53 bits against ChanceThreshold(p). With a
  // constant p the threshold folds at compile time, so the draw costs a shift
  // and a compare.
  bool Chance(double p) { return ChanceBelow(ChanceThreshold(p)); }

  // Chance() against a threshold computed once by ChanceThreshold(), for
  // callers whose p is a runtime value reused across many draws.
  bool ChanceBelow(uint64_t threshold) { return (Next() >> 11) < threshold; }

  // T(p) = ceil(p * 2^53), clamped to [0, 2^53]. For integer x in [0, 2^53),
  // x * 2^-53 < p  <=>  x < p * 2^53  <=>  x < ceil(p * 2^53): the double
  // x * 2^-53 is exact (x has at most 53 significant bits), and so is the
  // product p * 2^53 (scaling by a power of two below the overflow range), so
  // the integer compare decides exactly what the double compare decides.
  // p <= 0 and NaN give 0 (never true); p >= 1 gives 2^53 (always true); no
  // out-of-range double is ever converted to an integer.
  static constexpr uint64_t ChanceThreshold(double p) {
    if (!(p > 0.0)) {
      return 0;
    }
    if (p >= 1.0) {
      return uint64_t{1} << 53;
    }
    const double scaled = p * 0x1.0p53;  // in (0, 2^53), exact
    const auto whole = static_cast<uint64_t>(scaled);
    return static_cast<double>(whole) < scaled ? whole + 1 : whole;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4] = {};
};

}  // namespace compcache

#endif  // COMPCACHE_UTIL_RNG_H_
