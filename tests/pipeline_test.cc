// Async pipelined I/O: event-queue ordering, fault-stream prediction,
// write-behind backpressure/barrier semantics, and — the load-bearing gate —
// the differential check that a pipeline at depth 1 with prefetch off is
// byte- and counter-identical to the synchronous machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compress/pagegen.h"
#include "compress/registry.h"
#include "core/machine.h"
#include "disk/disk_device.h"
#include "disk/disk_model.h"
#include "fs/file_system.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "swap/clustered_swap.h"
#include "swap/write_behind_backend.h"
#include "tests/test_util.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "vm/fault_predictor.h"
#include "vm/heap.h"

namespace compcache {
namespace {

// --- event queue -------------------------------------------------------------

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(SimTime::FromNanos(30), [&] { fired.push_back(3); });
  q.Schedule(SimTime::FromNanos(10), [&] { fired.push_back(1); });
  q.Schedule(SimTime::FromNanos(20), [&] { fired.push_back(2); });
  q.RunUntil(SimTime::FromNanos(25));
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.size(), 1u);
  q.RunUntil(SimTime::FromNanos(30));  // boundary is inclusive
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, SameTimeFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    q.Schedule(SimTime::FromNanos(100), [&fired, i] { fired.push_back(i); });
  }
  q.RunUntil(SimTime::FromNanos(100));
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueTest, CallbackMayScheduleFurtherDueEvents) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(SimTime::FromNanos(10), [&] {
    fired.push_back(1);
    q.Schedule(SimTime::FromNanos(15), [&] { fired.push_back(2); });
  });
  q.RunUntil(SimTime::FromNanos(20));
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

// --- fault predictor ---------------------------------------------------------

// Runs one prediction into a buffer of `max` slots; returns what was written.
std::vector<PageKey> PredictUpTo(FaultPredictor& p, size_t max) {
  std::vector<PageKey> out(max);
  out.resize(p.Predict(out));
  return out;
}

TEST(FaultPredictorTest, TwoEqualStridesConfirmAndExtrapolate) {
  FaultPredictor p(1);
  p.RecordFault(PageKey{1, 10});
  EXPECT_FALSE(p.stride_confirmed(1));
  p.RecordFault(PageKey{1, 12});
  EXPECT_FALSE(p.stride_confirmed(1));  // one stride seen, not yet confirmed
  p.RecordFault(PageKey{1, 14});
  EXPECT_TRUE(p.stride_confirmed(1));

  const auto predicted = PredictUpTo(p, 3);
  ASSERT_EQ(predicted.size(), 3u);
  EXPECT_EQ(predicted[0], (PageKey{1, 16}));
  EXPECT_EQ(predicted[1], (PageKey{1, 18}));
  EXPECT_EQ(predicted[2], (PageKey{1, 20}));
}

TEST(FaultPredictorTest, BackwardStrideExtrapolatesDown) {
  FaultPredictor p(1);
  p.RecordFault(PageKey{2, 50});
  p.RecordFault(PageKey{2, 47});
  p.RecordFault(PageKey{2, 44});
  EXPECT_TRUE(p.stride_confirmed(2));
  const auto predicted = PredictUpTo(p, 2);
  ASSERT_EQ(predicted.size(), 2u);
  EXPECT_EQ(predicted[0], (PageKey{2, 41}));
  EXPECT_EQ(predicted[1], (PageKey{2, 38}));
}

TEST(FaultPredictorTest, MarkovLearnsRepeatingNonLinearPattern) {
  FaultPredictor p(1);
  // 5 -> 9 -> 3 repeating: strides alternate, so the stride detector never
  // confirms and prediction falls through to the successor table.
  const uint32_t pattern[] = {5, 9, 3, 5, 9, 3, 5, 9};
  for (const uint32_t page : pattern) {
    p.RecordFault(PageKey{1, page});
  }
  EXPECT_FALSE(p.stride_confirmed(1));
  const auto predicted = PredictUpTo(p, 2);
  ASSERT_GE(predicted.size(), 1u);
  EXPECT_EQ(predicted[0], (PageKey{1, 3}));  // most frequent successor of 9
  if (predicted.size() > 1) {
    EXPECT_EQ(predicted[1], (PageKey{1, 5}));  // chained: successor of 3
  }
}

TEST(FaultPredictorTest, IdenticalSeedsAgreeExactly) {
  FaultPredictor a(7);
  FaultPredictor b(7);
  // A stream with genuine ties so the seeded tie-break draws actually fire.
  Rng stream(99);
  for (int i = 0; i < 400; ++i) {
    const uint32_t page = static_cast<uint32_t>(stream.Below(8));
    a.RecordFault(PageKey{1, page});
    b.RecordFault(PageKey{1, page});
    if (i % 5 == 0) {
      EXPECT_EQ(PredictUpTo(a, 3), PredictUpTo(b, 3)) << "diverged at fault " << i;
    }
  }
}

TEST(FaultPredictorTest, NeverPredictsThePageJustFaulted) {
  FaultPredictor p(1);
  // 4 -> 4 would be the most frequent "successor" if self-loops were counted.
  for (int i = 0; i < 6; ++i) {
    p.RecordFault(PageKey{1, 4});
  }
  for (const PageKey key : PredictUpTo(p, 4)) {
    EXPECT_NE(key, (PageKey{1, 4}));
  }
}

// --- write-behind backend (unit level) ---------------------------------------

struct WriteBehindStack {
  explicit WriteBehindStack(uint32_t depth)
      : device(&clock, std::make_unique<SeekDiskModel>(), SimDuration::Micros(500)),
        fs(&device),
        backend(std::make_unique<ClusteredSwapLayout>(&fs, ClusteredSwapLayout::Options{}),
                &clock, depth) {}

  SwapPageImage MakeImage(uint32_t page, size_t bytes) {
    SwapPageImage img;
    img.key = PageKey{1, page};
    img.bytes.resize(bytes);
    for (size_t i = 0; i < bytes; ++i) {
      img.bytes[i] = static_cast<uint8_t>((page + i) & 0xff);
    }
    img.is_compressed = true;
    img.original_size = kPageSize;
    img.checksum = Crc32(img.bytes);
    return img;
  }

  Clock clock;
  DiskDevice device;
  FileSystem fs;
  WriteBehindBackend backend;
};

TEST(WriteBehindTest, SubmitReturnsWithoutWaitingBelowDepth) {
  WriteBehindStack s(/*depth=*/2);
  const SimTime before = s.clock.Now();
  std::vector<SwapPageImage> batch{s.MakeImage(0, 1024), s.MakeImage(1, 900)};
  ASSERT_EQ(s.backend.WriteBatch(batch), IoStatus::kOk);
  // One batch in flight, below the depth bound: the app clock did not wait for
  // the disk, but the device time was accrued on the deferred timeline.
  EXPECT_EQ(s.clock.Now(), before);
  EXPECT_EQ(s.backend.inflight_batches(), 1u);
  EXPECT_EQ(s.backend.stats().batches_submitted, 1u);
  EXPECT_EQ(s.backend.stats().backpressure_stalls, 0u);
  EXPECT_GT(s.backend.stats().deferred_io_time, SimDuration{});
  EXPECT_TRUE(s.backend.InFlight(PageKey{1, 0}));
  EXPECT_TRUE(s.backend.Contains(PageKey{1, 0}));  // metadata commits at submit
}

TEST(WriteBehindTest, BackpressureStallsWhenQueueIsFull) {
  WriteBehindStack s(/*depth=*/2);
  std::vector<SwapPageImage> b1{s.MakeImage(0, 1024)};
  std::vector<SwapPageImage> b2{s.MakeImage(1, 1024)};
  ASSERT_EQ(s.backend.WriteBatch(b1), IoStatus::kOk);
  const SimTime before = s.clock.Now();
  ASSERT_EQ(s.backend.WriteBatch(b2), IoStatus::kOk);
  // The second submit found the queue full and waited out the oldest batch.
  EXPECT_GT(s.clock.Now(), before);
  EXPECT_EQ(s.backend.stats().backpressure_stalls, 1u);
  EXPECT_EQ(s.backend.stats().batches_completed, 1u);
  EXPECT_EQ(s.backend.inflight_batches(), 1u);
}

TEST(WriteBehindTest, DepthOneIsSynchronous) {
  WriteBehindStack s(/*depth=*/1);
  std::vector<SwapPageImage> batch{s.MakeImage(0, 1024)};
  ASSERT_EQ(s.backend.WriteBatch(batch), IoStatus::kOk);
  // Depth 1 waits out its own disk time before returning: nothing in flight.
  EXPECT_EQ(s.backend.inflight_batches(), 0u);
  EXPECT_EQ(s.backend.stats().batches_completed, 1u);
  EXPECT_FALSE(s.backend.InFlight(PageKey{1, 0}));
}

TEST(WriteBehindTest, ReadOfInFlightPageTakesTheBarrier) {
  WriteBehindStack s(/*depth=*/4);
  std::vector<SwapPageImage> batch{s.MakeImage(7, 1500)};
  ASSERT_EQ(s.backend.WriteBatch(batch), IoStatus::kOk);
  ASSERT_TRUE(s.backend.InFlight(PageKey{1, 7}));
  const SimTime before = s.clock.Now();
  const auto result = s.backend.ReadPage(PageKey{1, 7}, /*collect_coresidents=*/false);
  ASSERT_EQ(result.status, IoStatus::kOk);
  EXPECT_EQ(result.bytes, batch[0].bytes);
  EXPECT_GT(s.clock.Now(), before);  // waited for the write to land first
  EXPECT_EQ(s.backend.stats().barrier_stalls, 1u);
  EXPECT_FALSE(s.backend.InFlight(PageKey{1, 7}));
}

TEST(WriteBehindTest, ReadOfSettledPageTakesNoBarrier) {
  WriteBehindStack s(/*depth=*/4);
  std::vector<SwapPageImage> b1{s.MakeImage(0, 1024)};
  ASSERT_EQ(s.backend.WriteBatch(b1), IoStatus::kOk);
  s.backend.Drain(/*advance_clock=*/true);
  EXPECT_EQ(s.backend.inflight_batches(), 0u);
  const auto result = s.backend.ReadPage(PageKey{1, 0}, false);
  ASSERT_EQ(result.status, IoStatus::kOk);
  EXPECT_EQ(s.backend.stats().barrier_stalls, 0u);
}

TEST(WriteBehindTest, DrainRetiresEverything) {
  WriteBehindStack s(/*depth=*/8);
  for (uint32_t i = 0; i < 5; ++i) {
    std::vector<SwapPageImage> batch{s.MakeImage(i, 800 + i * 100)};
    ASSERT_EQ(s.backend.WriteBatch(batch), IoStatus::kOk);
  }
  EXPECT_EQ(s.backend.inflight_batches(), 5u);
  s.backend.Drain(/*advance_clock=*/true);
  EXPECT_EQ(s.backend.inflight_batches(), 0u);
  EXPECT_EQ(s.backend.stats().batches_completed, 5u);
  // The clock landed on the last completion; all deferred work is paid for.
  EXPECT_GE(s.clock.Now().nanos(), s.backend.stats().deferred_io_time.nanos());
}

// --- differential gate: depth 1 + prefetch off == synchronous machine --------

void RunThrash(Heap& heap, int passes) {
  Rng rng(42);
  std::vector<uint8_t> page(kPageSize);
  const uint64_t pages = heap.size_bytes() / kPageSize;
  for (int pass = 0; pass < passes; ++pass) {
    for (uint64_t p = 0; p < pages; ++p) {
      FillPage(page,
               p % 5 == 0 ? ContentClass::kRandom
                          : p % 2 == 0 ? ContentClass::kSparseNumeric
                                       : ContentClass::kText,
               rng);
      heap.WriteBytes(p * kPageSize, page);
    }
  }
}

struct PipelineRun {
  uint64_t page_hash = 0;
  std::map<std::string, double> snapshot;
};

PipelineRun RunOne(CompressedSwapKind kind, const PipelineOptions& pipeline) {
  // LFS wires its 128-frame segment buffer out of the pool at construction;
  // pad its pool so usable frames match the other layouts (same trick as the
  // backend differential test).
  const uint64_t memory =
      kind == CompressedSwapKind::kLfs ? 2 * kMiB + 128 * kPageSize : 2 * kMiB;
  MachineConfig config = MachineConfig::WithCompressionCache(memory);
  config.compressed_swap = kind;
  config.pipeline = pipeline;
  Machine machine(config);
  Heap heap = machine.NewHeap(4 * kMiB);
  RunThrash(heap, 2);
  machine.DrainPipeline();

  PipelineRun run;
  for (const auto& [name, value] : machine.metrics().Snapshot()) {
    run.snapshot[name] = value;
  }
  run.page_hash = HashTouchedPages(machine);
  return run;
}

TEST(PipelineDifferentialTest, DepthOneNoPrefetchMatchesSyncMachine) {
  for (const CompressedSwapKind kind :
       {CompressedSwapKind::kClustered, CompressedSwapKind::kFixedOffset,
        CompressedSwapKind::kLfs}) {
    SCOPED_TRACE(static_cast<int>(kind));
    PipelineOptions off;  // pipeline disabled entirely
    PipelineOptions degenerate;
    degenerate.enabled = true;
    degenerate.write_behind_depth = 1;
    degenerate.prefetch = false;
    const PipelineRun sync = RunOne(kind, off);
    const PipelineRun piped = RunOne(kind, degenerate);

    EXPECT_EQ(piped.page_hash, sync.page_hash);
    ASSERT_GT(sync.snapshot.at("vm.faults_from_swap"), 0.0)
        << "workload never reached the backing store; the gate is vacuous";
    // Every metric the synchronous machine publishes must be bit-equal on the
    // degenerate pipelined one (which additionally publishes pipeline.* /
    // prefetch.* / arbiter.prefetch.* — all allowed to exist, none compared).
    // audit.checks is structural, not behavioral: the pipelined machine
    // registers the pipeline/prefetch invariants on top of the common set.
    for (const auto& [name, value] : sync.snapshot) {
      if (name == "audit.checks") {
        continue;
      }
      ASSERT_TRUE(piped.snapshot.contains(name)) << "pipelined machine lacks " << name;
      EXPECT_EQ(piped.snapshot.at(name), value)
          << name << " diverges at depth 1: sync=" << value
          << " pipelined=" << piped.snapshot.at(name);
    }
    // And the degenerate queue never actually overlapped anything.
    EXPECT_EQ(piped.snapshot.at("pipeline.inflight"), 0.0);
    EXPECT_EQ(piped.snapshot.at("prefetch.issued"), 0.0);
  }
}

TEST(PipelineDifferentialTest, DeepQueueOverlapsDiskWithAppCpu) {
  PipelineOptions off;
  PipelineOptions deep;
  deep.enabled = true;
  deep.write_behind_depth = 8;
  const PipelineRun sync = RunOne(CompressedSwapKind::kClustered, off);
  const PipelineRun piped = RunOne(CompressedSwapKind::kClustered, deep);

  // Same bytes, same faults — strictly less virtual time: the batch device
  // time that the synchronous machine serialized now overlaps compression.
  EXPECT_EQ(piped.page_hash, sync.page_hash);
  EXPECT_EQ(piped.snapshot.at("vm.faults"), sync.snapshot.at("vm.faults"));
  EXPECT_GT(piped.snapshot.at("pipeline.batches_submitted"), 0.0);
  EXPECT_LT(piped.snapshot.at("clock.now_ns"), sync.snapshot.at("clock.now_ns"));
}

// --- machine-level prefetch --------------------------------------------------

TEST(PipelineMachineTest, SequentialThrashHitsThePrefetchBuffer) {
  MachineConfig config = MachineConfig::WithCompressionCache(2 * kMiB);
  config.pipeline.enabled = true;
  config.pipeline.write_behind_depth = 4;
  config.pipeline.prefetch = true;
  config.pipeline.prefetch_buffer_pages = 8;
  config.pipeline.prefetch_per_fault = 2;
  config.pipeline.fault_batch_window = 2;
  Machine machine(config);
  machine.auditor().set_abort_on_violation(false);

  Heap heap = machine.NewHeap(6 * kMiB);
  std::vector<uint8_t> page(kPageSize);
  Rng rng(7);
  const uint64_t pages = heap.size_bytes() / kPageSize;
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t p = 0; p < pages; ++p) {
      FillPage(page, ContentClass::kSparseNumeric, rng);
      heap.WriteBytes(p * kPageSize, page);
    }
  }
  machine.DrainPipeline();

  const auto& ps = machine.pipeline()->stats();
  const auto& vs = machine.pager().stats();
  EXPECT_GT(vs.faults_from_swap, 0u) << "workload never thrashed";
  EXPECT_GT(ps.issued, 0u);
  EXPECT_GT(ps.hits, 0u) << "a linear walk should be stride-predictable";
  EXPECT_GT(ps.batched, 0u) << "swap faults should coalesce adjacent reads";
  EXPECT_EQ(vs.faults_prefetch_hit, ps.hits);
  // Drained: every issue is resolved and the conservation equation closes.
  EXPECT_EQ(ps.issued, ps.hits + ps.misses);
  EXPECT_EQ(machine.pipeline()->buffered_frames(), 0u);
  EXPECT_EQ(machine.write_behind()->inflight_batches(), 0u);
  EXPECT_EQ(machine.RunAudit(), 0u);
}

TEST(PipelineMachineTest, PipelinedRunsAreDeterministic) {
  const auto run = [] {
    MachineConfig config = MachineConfig::WithCompressionCache(2 * kMiB);
    config.pipeline.enabled = true;
    config.pipeline.write_behind_depth = 4;
    config.pipeline.prefetch = true;
    config.pipeline.prefetch_per_fault = 2;
    config.pipeline.fault_batch_window = 1;
    Machine machine(config);
    Heap heap = machine.NewHeap(4 * kMiB);
    RunThrash(heap, 2);
    machine.DrainPipeline();
    PipelineRun r;
    for (const auto& [name, value] : machine.metrics().Snapshot()) {
      r.snapshot[name] = value;
    }
    r.page_hash = HashTouchedPages(machine);
    return r;
  };
  const PipelineRun a = run();
  const PipelineRun b = run();
  EXPECT_EQ(a.page_hash, b.page_hash);
  ASSERT_EQ(a.snapshot.size(), b.snapshot.size());
  for (const auto& [name, value] : a.snapshot) {
    EXPECT_EQ(b.snapshot.at(name), value) << name << " is nondeterministic";
  }
}

// --- lazy speculative decode -------------------------------------------------
//
// A buffer frame holds the entry's compressed image and decodes only on a hit.
// These tests pin what the demand fault sees: the same bytes as a machine with
// prefetch off, and the same verdict on a corrupt source as the eager decode.

constexpr uint32_t kLazyNumericPages = 768;  // 3 MiB of sparse-numeric pages
constexpr uint32_t kLazyZeroPages = 256;     // then 1 MiB of all-zero pages

// Every eighth numeric page is all zero too, so zero entries interleave with
// compressed ones inside a stride walk.
bool LazyPageIsZero(uint32_t p) { return p >= kLazyNumericPages || p % 8 == 3; }

void WriteLazyPage(Heap& heap, uint32_t p, Rng& rng, std::vector<uint8_t>& page) {
  if (LazyPageIsZero(p)) {
    std::fill(page.begin(), page.end(), 0);
  } else {
    FillPage(page, ContentClass::kSparseNumeric, rng);
  }
  heap.WriteBytes(uint64_t{p} * kPageSize, page);
}

void ReadPage(Heap& heap, uint32_t p, std::vector<uint8_t>& page) {
  heap.ReadBytes(uint64_t{p} * kPageSize, page);
}

struct LazyDecodeRun {
  uint64_t page_hash = 0;
  uint64_t numeric_walk_hits = 0;  // prefetch hits during the numeric stride walk
  uint64_t zero_walk_hits = 0;     // prefetch hits during the all-zero stride walk
  PrefetchStats prefetch;
  uint64_t faults_prefetch_hit = 0;
  size_t audit_violations = 0;
};

LazyDecodeRun RunLazyDecodeWorkload(bool prefetch, bool checksums) {
  MachineConfig config = MachineConfig::WithCompressionCache(2 * kMiB);
  config.integrity.checksums = checksums;
  if (prefetch) {
    config.pipeline.enabled = true;
    config.pipeline.write_behind_depth = 4;
    config.pipeline.prefetch = true;
    config.pipeline.prefetch_buffer_pages = 8;
    config.pipeline.prefetch_per_fault = 2;
  }
  Machine machine(config);
  machine.auditor().set_abort_on_violation(false);
  Heap heap = machine.NewHeap(uint64_t{kLazyNumericPages + kLazyZeroPages} * kPageSize);
  const PipelineEngine* engine = machine.pipeline();
  const auto hits = [engine] { return engine != nullptr ? engine->stats().hits : 0; };

  std::vector<uint8_t> page(kPageSize);
  Rng rng(11);
  for (uint32_t p = 0; p < kLazyNumericPages + kLazyZeroPages; ++p) {
    WriteLazyPage(heap, p, rng, page);
  }

  LazyDecodeRun run;
  // Stride walks: the numeric region evicts the zero region into the ccache
  // as zero entries, and the zero walk then faults them back through the
  // buffer.
  uint64_t before = hits();
  for (uint32_t p = 0; p < kLazyNumericPages; ++p) {
    ReadPage(heap, p, page);
  }
  run.numeric_walk_hits = hits() - before;
  before = hits();
  for (uint32_t p = kLazyNumericPages; p < kLazyNumericPages + kLazyZeroPages; ++p) {
    ReadPage(heap, p, page);
  }
  run.zero_walk_hits = hits() - before;

  // Short stride bursts in both directions and at stride 2, separated by
  // random reads and rewrites: predictions past a burst's end go unconsumed,
  // and a rewritten page's next prediction must stage its new image.
  const uint32_t pages = kLazyNumericPages + kLazyZeroPages;
  for (int burst = 0; burst < 300; ++burst) {
    const int stride = (burst % 2 == 0 ? 1 : -1) * (burst % 3 == 0 ? 2 : 1);
    const int64_t start = 12 + static_cast<int64_t>(rng.Below(pages - 24));
    for (int64_t i = 0; i < 6; ++i) {
      ReadPage(heap, static_cast<uint32_t>(start + i * stride), page);
    }
    const uint32_t touched = static_cast<uint32_t>(rng.Below(pages));
    if (rng.Below(3) == 0) {
      WriteLazyPage(heap, touched, rng, page);
    } else {
      ReadPage(heap, touched, page);
    }
  }

  machine.DrainPipeline();
  if (engine != nullptr) {
    run.prefetch = engine->stats();
  }
  run.faults_prefetch_hit = machine.pager().stats().faults_prefetch_hit;
  run.audit_violations = machine.RunAudit();
  run.page_hash = HashTouchedPages(machine);
  return run;
}

TEST(LazyDecodeTest, BufferHitsServeTheSameBytesAsPrefetchOff) {
  for (const bool checksums : {true, false}) {
    SCOPED_TRACE(checksums ? "checksums on: CRC verdict" : "checksums off: trial decode");
    const LazyDecodeRun off = RunLazyDecodeWorkload(/*prefetch=*/false, checksums);
    const LazyDecodeRun on = RunLazyDecodeWorkload(/*prefetch=*/true, checksums);

    EXPECT_EQ(on.page_hash, off.page_hash);
    EXPECT_GT(on.numeric_walk_hits, 0u) << "no compressed entry was served from the buffer";
    EXPECT_GT(on.zero_walk_hits, 0u) << "no zero-page entry was served from the buffer";
    EXPECT_GT(on.prefetch.hits, 0u);
    EXPECT_GT(on.prefetch.misses, 0u);
    EXPECT_EQ(on.prefetch.issued, on.prefetch.hits + on.prefetch.misses);
    EXPECT_EQ(on.faults_prefetch_hit, on.prefetch.hits);
    EXPECT_EQ(on.audit_violations, 0u);
    EXPECT_EQ(off.audit_violations, 0u);
  }
}

// The stride walk t-3, t-2, t-1 confirms stride +1, so the fault on t-1
// predicts t first and t+1 second (one issue per fault). With `corrupt`, one
// bit of t's stored payload is flipped before the walk — a bit the codec
// rejects, so the verdict does not hinge on the checksum.
struct VerdictRun {
  bool target_buffered = false;  // after the fault on t-1
  bool next_buffered = false;
  uint64_t target_prefetch_hits = 0;  // prefetch hits over the fault on t
  uint64_t mismatches = 0;            // ccache.checksum_mismatches over it
  uint64_t recovered = 0;
  uint64_t lost = 0;
  bool target_intact = false;
  size_t audit_violations = 0;
};

VerdictRun RunCorruptionVerdict(bool prefetch, bool checksums, bool corrupt) {
  MachineConfig config = MachineConfig::WithCompressionCache(2 * kMiB);
  config.integrity.checksums = checksums;
  if (prefetch) {
    config.pipeline.enabled = true;
    config.pipeline.write_behind_depth = 4;
    config.pipeline.prefetch = true;
    config.pipeline.prefetch_buffer_pages = 8;
    config.pipeline.prefetch_per_fault = 1;
  }
  Machine machine(config);
  machine.auditor().set_abort_on_violation(false);
  constexpr uint32_t kPages = 768;
  Heap heap = machine.NewHeap(uint64_t{kPages} * kPageSize);
  std::vector<std::vector<uint8_t>> reference(kPages, std::vector<uint8_t>(kPageSize));
  Rng rng(5);
  for (uint32_t p = 0; p < kPages; ++p) {
    FillPage(reference[p], ContentClass::kSparseNumeric, rng);
    heap.WriteBytes(uint64_t{p} * kPageSize, reference[p]);
  }
  // Every compressed entry gets a clean backing copy, so the ladder below the
  // ccache has a rung to recover from.
  machine.ccache()->FlushDirty();

  const uint32_t seg = heap.segment()->id();
  const auto compressed = [&](uint32_t p) {
    const PageEntry* e = machine.pager().PeekEntry(PageKey{seg, p});
    return e != nullptr && e->state == PageState::kCompressed;
  };
  // The target t is the first page with t-3 .. t+1 all in the ccache.
  uint32_t t = 0;
  for (uint32_t p = 0, run = 0; p < kPages && t == 0; ++p) {
    run = compressed(p) ? run + 1 : 0;
    if (run == 5) {
      t = p - 1;
    }
  }
  CC_ASSERT(t != 0 && "no run of five compressed pages");
  const PageKey target{seg, t};

  // A payload bit whose flip the codec rejects (the trial decode's case when
  // no checksum vouches for the image).
  const std::vector<uint8_t> payload = *machine.ccache()->RawPayloadFor(target);
  const std::unique_ptr<Codec> codec = MakeCodec(config.codec);
  std::vector<uint8_t> scratch(kPageSize);
  size_t bit = 0;
  for (; bit < payload.size() * 8; ++bit) {
    std::vector<uint8_t> flipped = payload;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    if (!codec->TryDecompress(flipped, scratch)) {
      break;
    }
  }
  CC_ASSERT(bit < payload.size() * 8 && "no single-bit flip is rejected by the codec");
  if (corrupt) {
    machine.ccache()->CorruptPayloadBitForTest(target, bit);
  }

  std::vector<uint8_t> page(kPageSize);
  for (uint32_t p = t - 3; p < t; ++p) {
    ReadPage(heap, p, page);
  }
  const PipelineEngine* engine = machine.pipeline();
  VerdictRun run;
  if (engine != nullptr) {
    run.target_buffered = engine->IsBuffered(target);
    run.next_buffered = engine->IsBuffered(PageKey{seg, t + 1});
  }
  const uint64_t hits_before = engine != nullptr ? engine->stats().hits : 0;
  const uint64_t mismatches_before = machine.ccache()->stats().checksum_mismatches;
  const VmStats vm_before = machine.pager().stats();
  ReadPage(heap, t, page);
  run.target_prefetch_hits = (engine != nullptr ? engine->stats().hits : 0) - hits_before;
  run.mismatches = machine.ccache()->stats().checksum_mismatches - mismatches_before;
  run.recovered = machine.pager().stats().pages_recovered - vm_before.pages_recovered;
  run.lost = machine.pager().stats().pages_lost - vm_before.pages_lost;
  run.target_intact = page == reference[t];
  machine.DrainPipeline();
  run.audit_violations = machine.RunAudit();
  return run;
}

TEST(LazyDecodeTest, CorruptSourceIsNotBufferedAndTheDemandFaultTakesTheLadder) {
  for (const bool checksums : {true, false}) {
    SCOPED_TRACE(checksums ? "checksums on: CRC verdict" : "checksums off: trial decode");
    // Control: intact, the target is the next page buffered.
    const VerdictRun control = RunCorruptionVerdict(/*prefetch=*/true, checksums, false);
    ASSERT_TRUE(control.target_buffered) << "the walk no longer predicts the target";
    EXPECT_EQ(control.target_prefetch_hits, 1u);
    EXPECT_EQ(control.mismatches, 0u);
    EXPECT_TRUE(control.target_intact);

    const VerdictRun off = RunCorruptionVerdict(/*prefetch=*/false, checksums, true);
    const VerdictRun on = RunCorruptionVerdict(/*prefetch=*/true, checksums, true);
    // Not buffered: the engine moved on to the next prediction instead.
    EXPECT_FALSE(on.target_buffered);
    EXPECT_TRUE(on.next_buffered);
    EXPECT_EQ(on.target_prefetch_hits, 0u);
    // The demand fault meets the corruption exactly as with prefetch off.
    EXPECT_EQ(off.mismatches, 1u);
    EXPECT_EQ(on.mismatches, off.mismatches);
    EXPECT_EQ(on.recovered, off.recovered);
    EXPECT_EQ(on.lost, off.lost);
    EXPECT_EQ(off.recovered, 1u) << "the flushed backing copy should recover the page";
    EXPECT_TRUE(off.target_intact);
    EXPECT_TRUE(on.target_intact);
    EXPECT_EQ(control.audit_violations, 0u);
    EXPECT_EQ(off.audit_violations, 0u);
    EXPECT_EQ(on.audit_violations, 0u);
  }
}

}  // namespace
}  // namespace compcache
