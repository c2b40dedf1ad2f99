#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/checksum.h"
#include "util/intrusive_lru.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time_types.h"

namespace compcache {
namespace {

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Below(bound), bound);
    }
  }
}

TEST(RngTest, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.Below(1), 0u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.Below(10)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);
  }
}

// Chance(p) is an integer compare of Next()'s top 53 bits against
// ChanceThreshold(p); it must decide exactly what `NextDouble() < p` decides,
// draw for draw, for every p, including the edges of [0, 1] and NaN.
TEST(RngTest, ChanceMatchesNextDouble) {
  const auto reference = [](Rng& rng, double p) { return rng.NextDouble() < p; };
  // The exact predicate at the threshold's edges: x * 2^-53 < p <=> x < T(p).
  const auto expect_exact_edge = [](double p) {
    const uint64_t t = Rng::ChanceThreshold(p);
    ASSERT_LE(t, uint64_t{1} << 53) << p;
    for (const uint64_t x : {t - 1, t, t + 1}) {
      if (x < (uint64_t{1} << 53)) {  // t - 1 wraps for t == 0 and is skipped
        EXPECT_EQ(static_cast<double>(x) * 0x1.0p-53 < p, x < t) << "p " << p << " x " << x;
      }
    }
  };
  const auto expect_twins_agree = [&](double p, uint64_t seed, int draws) {
    Rng a(seed);
    Rng b(seed);
    for (int i = 0; i < draws; ++i) {
      ASSERT_EQ(a.Chance(p), reference(b, p)) << "p " << p << " draw " << i;
    }
    EXPECT_EQ(a.Next(), b.Next()) << "p " << p;  // one draw per call on both sides
  };

  const double fixed[] = {0.0,
                          0x1.0p-60,
                          1e-3,
                          0.25,
                          0.6,
                          0.5 + 0x1.0p-53,
                          1.0 - 0x1.0p-53,
                          1.0,
                          1.5,
                          -0.1,
                          std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
  for (const double p : fixed) {
    expect_exact_edge(p);
    expect_twins_agree(p, 17, 4096);
  }
  EXPECT_EQ(Rng::ChanceThreshold(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(Rng::ChanceThreshold(-0.1), 0u);
  EXPECT_EQ(Rng::ChanceThreshold(1.5), uint64_t{1} << 53);
  EXPECT_EQ(Rng::ChanceThreshold(0.25), uint64_t{1} << 51);
  EXPECT_EQ(Rng::ChanceThreshold(0x1.0p-60), 1u);

  Rng pick(23);
  for (int i = 0; i < 10000; ++i) {
    // Spread p over many binades, down to 2^-64, so thresholds of zero, one
    // or a few units are covered too.
    const double p = pick.NextDouble() * std::ldexp(1.0, -static_cast<int>(pick.Below(65)));
    expect_exact_edge(p);
    expect_twins_agree(p, 1000 + static_cast<uint64_t>(i), 8);
  }
}

TEST(RngTest, ReseedReproduces) {
  Rng rng(42);
  const uint64_t first = rng.Next();
  rng.Next();
  rng.Seed(42);
  EXPECT_EQ(rng.Next(), first);
}

// ---------- RunningStats ----------

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.Add(42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStatsTest, ResetClears) {
  RunningStats s;
  s.Add(5.0);
  s.Reset();
  EXPECT_EQ(s.count(), 0u);
}

// ---------- Histogram ----------

TEST(HistogramTest, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);
  h.Add(9.5);
  h.Add(-100.0);  // clamps into bucket 0
  h.Add(100.0);   // clamps into bucket 9
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
}

TEST(HistogramTest, FractionAtOrAbove) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) {
    h.Add(i + 0.5);
  }
  EXPECT_DOUBLE_EQ(h.FractionAtOrAbove(5.0), 0.5);
  EXPECT_DOUBLE_EQ(h.FractionAtOrAbove(0.0), 1.0);
}

TEST(HistogramTest, BucketEdges) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.BucketLow(0), 0.0);
  EXPECT_DOUBLE_EQ(h.BucketHigh(0), 1.0);
  EXPECT_DOUBLE_EQ(h.BucketLow(9), 9.0);
}

// ---------- LruList ----------

struct Node {
  int id = 0;
  LruLink lru_link;
};

TEST(LruListTest, PushAndPopOrder) {
  LruList<Node> list;
  Node a{1, {}};
  Node b{2, {}};
  Node c{3, {}};
  list.PushMru(a);
  list.PushMru(b);
  list.PushMru(c);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.PopLru()->id, 1);
  EXPECT_EQ(list.PopLru()->id, 2);
  EXPECT_EQ(list.PopLru()->id, 3);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.PopLru(), nullptr);
}

TEST(LruListTest, TouchMovesToMru) {
  LruList<Node> list;
  Node a{1, {}};
  Node b{2, {}};
  Node c{3, {}};
  list.PushMru(a);
  list.PushMru(b);
  list.PushMru(c);
  list.Touch(a);
  EXPECT_EQ(list.Lru()->id, 2);
  EXPECT_EQ(list.Mru()->id, 1);
}

TEST(LruListTest, RemoveMiddle) {
  LruList<Node> list;
  Node a{1, {}};
  Node b{2, {}};
  Node c{3, {}};
  list.PushMru(a);
  list.PushMru(b);
  list.PushMru(c);
  list.Remove(b);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_FALSE(list.Contains(b));
  EXPECT_EQ(list.PopLru()->id, 1);
  EXPECT_EQ(list.PopLru()->id, 3);
}

TEST(LruListTest, PushLruInsertsAtFront) {
  LruList<Node> list;
  Node a{1, {}};
  Node b{2, {}};
  list.PushMru(a);
  list.PushLru(b);
  EXPECT_EQ(list.Lru()->id, 2);
}

TEST(LruListTest, ForEachVisitsInLruOrder) {
  LruList<Node> list;
  Node nodes[5];
  for (int i = 0; i < 5; ++i) {
    nodes[i].id = i;
    list.PushMru(nodes[i]);
  }
  std::vector<int> order;
  list.ForEach([&](const Node& n) { order.push_back(n.id); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(LruListTest, FindFirstStopsAtTheFirstMatch) {
  LruList<Node> list;
  Node nodes[5];
  for (int i = 0; i < 5; ++i) {
    nodes[i].id = i;
    list.PushMru(nodes[i]);
  }
  std::vector<int> visited;
  Node* hit = list.FindFirst([&](Node& n) {
    visited.push_back(n.id);
    return n.id >= 2;
  });
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 2);
  EXPECT_EQ(visited, (std::vector<int>{0, 1, 2}));  // nothing past the match
  EXPECT_EQ(list.FindFirst([](Node& n) { return n.id > 9; }), nullptr);
  LruList<Node> empty;
  EXPECT_EQ(empty.FindFirst([](Node&) { return true; }), nullptr);
}

// ---------- CRC-32C ----------

// The textbook bytewise loop every implementation must agree with.
uint32_t BytewiseCrc32c(std::span<const uint8_t> data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  crc ^= 0xFFFFFFFFu;
  return crc == 0 ? 1u : crc;
}

using Crc32Fn = uint32_t (*)(std::span<const uint8_t>);

// Every CRC-32C implementation this host can run, by name: the dispatching
// Crc32(), the portable tables, and the SSE4.2 path when the CPU has it.
std::vector<std::pair<std::string, Crc32Fn>> Crc32Implementations() {
  std::vector<std::pair<std::string, Crc32Fn>> fns = {
      {"Crc32", &Crc32},
      {"sliced", &internal::Crc32cSliced},
  };
#ifdef COMPCACHE_CRC32C_HARDWARE
  if (Crc32HardwarePath()) {
    fns.emplace_back("sse4.2", &internal::Crc32cHardware);
  }
#endif
  return fns;
}

TEST(Crc32Test, KnownAnswer) {
  const std::string check = "123456789";
  const std::vector<uint8_t> bytes(check.begin(), check.end());
  for (const auto& [name, crc32] : Crc32Implementations()) {
    EXPECT_EQ(crc32(bytes), 0xE3069283u) << name;  // the CRC-32C check value
    // The empty input's true CRC is 0, which is reserved for "absent".
    EXPECT_EQ(crc32({}), 1u) << name;
  }
}

TEST(Crc32Test, HardwarePathFollowsTheCpu) {
#ifdef COMPCACHE_CRC32C_HARDWARE
  __builtin_cpu_init();
  EXPECT_EQ(Crc32HardwarePath(), __builtin_cpu_supports("sse4.2") != 0);
#else
  EXPECT_FALSE(Crc32HardwarePath());
#endif
  std::printf("Crc32 path on this host: %s\n", Crc32HardwarePath() ? "sse4.2" : "sliced");
}

TEST(Crc32Test, EveryImplementationMatchesBytewiseAtEveryOffsetAndLength) {
  Rng rng(0xC2C);
  std::vector<uint8_t> buf(4500 + 16);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Below(256));
  }
  for (const auto& [name, crc32] : Crc32Implementations()) {
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t len = 0; len <= 4500; len += (len < 64 ? 1 : 1 + rng.Below(61))) {
        const auto span = std::span<const uint8_t>(buf).subspan(offset, len);
        ASSERT_EQ(crc32(span), BytewiseCrc32c(span))
            << name << " offset " << offset << " len " << len;
      }
      const auto whole = std::span<const uint8_t>(buf).subspan(offset, 4500);
      ASSERT_EQ(crc32(whole), BytewiseCrc32c(whole)) << name << " offset " << offset;
    }
  }
}

// ---------- time types ----------

TEST(TimeTest, DurationArithmetic) {
  const SimDuration a = SimDuration::Millis(2);
  const SimDuration b = SimDuration::Micros(500);
  EXPECT_EQ((a + b).nanos(), 2'500'000);
  EXPECT_EQ((a - b).nanos(), 1'500'000);
  EXPECT_EQ((b * 4).nanos(), 2'000'000);
  EXPECT_LT(b, a);
}

TEST(TimeTest, ForBytes) {
  // 1 MB at 1 MB/s = 1 s.
  EXPECT_EQ(SimDuration::ForBytes(1'000'000, 1e6).nanos(), 1'000'000'000);
}

TEST(TimeTest, ToMinSec) {
  EXPECT_EQ(SimDuration::Seconds(974).ToMinSec(), "16:14");
  EXPECT_EQ(SimDuration::Seconds(60).ToMinSec(), "1:00");
  EXPECT_EQ(SimDuration::Seconds(5).ToMinSec(), "0:05");
}

TEST(TimeTest, TimePlusDuration) {
  const SimTime t = SimTime::FromNanos(100) + SimDuration::Nanos(50);
  EXPECT_EQ(t.nanos(), 150);
  EXPECT_EQ((t - SimTime::FromNanos(100)).nanos(), 50);
}

}  // namespace
}  // namespace compcache
