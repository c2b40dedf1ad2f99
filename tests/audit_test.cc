// Tests for the cross-subsystem invariant auditor: that a healthy machine
// audits clean under load, that each seeded corruption is attributed to the
// exact subsystem and invariant, and that the accounting bugs the auditor
// surfaced (frame leaks on segment teardown, partially persisted swap batches,
// tick-valued buffer-cache ages, piecemeal stat resets) stay fixed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compress/pagegen.h"
#include "core/machine.h"
#include "policy/memory_arbiter.h"
#include "sim/clock.h"
#include "tests/test_util.h"
#include "util/audit.h"
#include "util/rng.h"
#include "vm/heap.h"

namespace compcache {
namespace {

// Drives enough paging traffic that every subsystem has non-trivial state:
// the ccache fills, the backing store takes batches, the arbiter reclaims.
void Thrash(Heap& heap, int ops, uint64_t seed = 7) {
  Rng rng(seed);
  std::vector<uint8_t> page(kPageSize);
  for (int op = 0; op < ops; ++op) {
    const uint64_t p = rng.Below(heap.size_bytes() / kPageSize);
    if (rng.Chance(0.7)) {
      FillPage(page, op % 4 == 0 ? ContentClass::kRandom : ContentClass::kSparseNumeric,
               rng);
      heap.WriteBytes(p * kPageSize, page);
    } else {
      heap.ReadBytes(p * kPageSize, page);
    }
  }
}

bool HasViolation(const InvariantAuditor& auditor, const std::string& subsystem,
                  const std::string& invariant) {
  for (const auto& v : auditor.last_violations()) {
    if (v.subsystem == subsystem && v.invariant == invariant) {
      return true;
    }
  }
  return false;
}

TEST(AuditorTest, RunAllReportsEveryFailingCheck) {
  InvariantAuditor auditor;
  auditor.set_abort_on_violation(false);
  auditor.Register("a", "always-holds", [] { return std::nullopt; });
  auditor.Register("b", "always-fails",
                   [] { return std::optional<std::string>("broken"); });
  EXPECT_EQ(auditor.num_checks(), 2u);
  EXPECT_EQ(auditor.RunAll(), 1u);
  EXPECT_EQ(auditor.RunAll(), 1u);
  EXPECT_EQ(auditor.runs(), 2u);
  EXPECT_EQ(auditor.total_violations(), 2u);
  ASSERT_EQ(auditor.last_violations().size(), 1u);
  EXPECT_EQ(auditor.last_violations()[0].subsystem, "b");
  EXPECT_EQ(auditor.last_violations()[0].invariant, "always-fails");
  EXPECT_EQ(auditor.last_violations()[0].detail, "broken");

  MetricRegistry registry;
  auditor.BindMetrics(&registry);
  EXPECT_EQ(registry.GaugeValue("audit.runs"), 2.0);
  EXPECT_EQ(registry.GaugeValue("audit.violations"), 2.0);
  EXPECT_EQ(registry.GaugeValue("audit.checks"), 2.0);
}

TEST(AuditTest, HealthyMachineAuditsCleanUnderLoad) {
  for (const CompressedSwapKind kind :
       {CompressedSwapKind::kClustered, CompressedSwapKind::kFixedOffset,
        CompressedSwapKind::kLfs}) {
    MachineConfig config = SmallConfig(true);
    config.compressed_swap = kind;
    config.audit_interval = 16;  // audit every 16 faults while thrashing
    Machine machine(config);
    Heap heap = machine.NewHeap(4 * kMiB);
    Thrash(heap, 1500);
    EXPECT_GT(machine.auditor().runs(), 0u);
    EXPECT_EQ(machine.auditor().total_violations(), 0u);
    EXPECT_EQ(machine.RunAudit(), 0u);
  }
}

TEST(AuditTest, StdModeAuditsClean) {
  MachineConfig config = SmallConfig(false);
  config.audit_interval = 16;
  Machine machine(config);
  Heap heap = machine.NewHeap(4 * kMiB);
  Thrash(heap, 800);
  EXPECT_GT(machine.auditor().runs(), 0u);
  EXPECT_EQ(machine.auditor().total_violations(), 0u);
}

// --- seeded-mutation attribution -------------------------------------------

TEST(AuditMutationTest, CcacheOccupancyCorruptionIsAttributed) {
  Machine machine(SmallConfig(true));
  machine.auditor().set_abort_on_violation(false);
  Heap heap = machine.NewHeap(4 * kMiB);
  Thrash(heap, 1500);
  ASSERT_GT(machine.ccache()->live_entries(), 0u);
  EXPECT_EQ(machine.RunAudit(), 0u);

  machine.ccache()->CorruptLiveBytesForTest(0, +8);
  EXPECT_GT(machine.RunAudit(), 0u);
  EXPECT_TRUE(HasViolation(machine.auditor(), "ccache", "occupancy"));

  machine.ccache()->CorruptLiveBytesForTest(0, -8);  // undo for shutdown audit
  EXPECT_EQ(machine.RunAudit(), 0u);
}

TEST(AuditMutationTest, CcacheDoubleMappedKeyIsAttributed) {
  Machine machine(SmallConfig(true));
  machine.auditor().set_abort_on_violation(false);
  Heap heap = machine.NewHeap(4 * kMiB);
  Thrash(heap, 1500);

  // Find any VM page whose compressed copy is live in the cache.
  Segment* segment = heap.segment();
  PageKey victim{};
  bool found = false;
  for (uint32_t p = 0; p < segment->num_pages() && !found; ++p) {
    victim = PageKey{segment->id(), p};
    found = machine.ccache()->Contains(victim);
  }
  ASSERT_TRUE(found);

  const PageKey alias{segment->id() + 1000, 0};
  machine.ccache()->AliasIndexKeyForTest(victim, alias);
  EXPECT_GT(machine.RunAudit(), 0u);
  EXPECT_TRUE(HasViolation(machine.auditor(), "ccache", "index-coherent"));

  machine.ccache()->RemoveIndexKeyForTest(alias);
  EXPECT_EQ(machine.RunAudit(), 0u);
}

TEST(AuditMutationTest, CcacheDirtyCursorPastDirtyEntryIsAttributed) {
  Machine machine(SmallConfig(true));
  machine.auditor().set_abort_on_violation(false);
  Heap heap = machine.NewHeap(4 * kMiB);
  Thrash(heap, 1500);
  EXPECT_EQ(machine.RunAudit(), 0u);

  // The ring holds dirty entries after a write-heavy thrash; skipping the
  // cleaner's cursor past them would strand them.
  const uint64_t cursor = machine.ccache()->SkipDirtyCursorToTailForTest();
  EXPECT_GT(machine.RunAudit(), 0u);
  EXPECT_TRUE(HasViolation(machine.auditor(), "ccache", "dirty-cursor"));

  machine.ccache()->RestoreDirtyCursorForTest(cursor);  // undo for shutdown audit
  EXPECT_EQ(machine.RunAudit(), 0u);
}

TEST(AuditMutationTest, LeakedSwapBlocksAreAttributed) {
  MachineConfig config = SmallConfig(true);
  config.compressed_swap = CompressedSwapKind::kClustered;
  Machine machine(config);
  machine.auditor().set_abort_on_violation(false);
  Heap heap = machine.NewHeap(3 * kMiB);
  Thrash(heap, 400);
  EXPECT_EQ(machine.RunAudit(), 0u);

  machine.clustered_swap()->LeakBlocksForTest(4);
  EXPECT_GT(machine.RunAudit(), 0u);
  EXPECT_TRUE(HasViolation(machine.auditor(), "swap.clustered", "block-conservation"));
  // Leaked blocks cannot be returned; the auditor stays non-aborting so the
  // shutdown audit records (rather than kills) the planted leak.
}

TEST(AuditMutationTest, UnaccountedFrameIsAttributed) {
  Machine machine(SmallConfig(true));
  machine.auditor().set_abort_on_violation(false);
  Heap heap = machine.NewHeap(3 * kMiB);
  Thrash(heap, 200);
  EXPECT_EQ(machine.RunAudit(), 0u);

  const FrameId held = machine.AllocateFrame();  // a frame no subsystem owns
  EXPECT_GT(machine.RunAudit(), 0u);
  EXPECT_TRUE(HasViolation(machine.auditor(), "machine", "frame-conservation"));

  machine.FreeFrame(held);
  EXPECT_EQ(machine.RunAudit(), 0u);
}

TEST(AuditMutationTest, PiecemealStatResetTripsMonotonicityCheck) {
  Machine machine(SmallConfig(true));
  machine.auditor().set_abort_on_violation(false);
  Heap heap = machine.NewHeap(3 * kMiB);
  Thrash(heap, 300);
  ASSERT_GT(machine.pager().stats().faults, 0u);
  EXPECT_EQ(machine.RunAudit(), 0u);  // baselines the counter watermarks

  // Resetting one subsystem behind the machine's back is exactly the kind of
  // accounting drift the metrics check exists to catch: vm.* counters move
  // backwards relative to the audited watermark.
  machine.pager().ResetStats();
  EXPECT_GT(machine.RunAudit(), 0u);
  EXPECT_TRUE(HasViolation(machine.auditor(), "metrics", "counters-monotone"));

  // Machine::ResetStats is the sanctioned path: it re-baselines the watermarks.
  machine.ResetStats();
  EXPECT_EQ(machine.RunAudit(), 0u);
}

// --- arbiter age checks ------------------------------------------------------

struct FakeConsumer {
  uint64_t age = UINT64_MAX;
  bool will_release = true;
  int release_calls = 0;
  int released = 0;

  void AddTo(MemoryArbiter& arbiter, const std::string& name, SimDuration bias,
             bool monotone = false) {
    arbiter.AddConsumer(
        name, [this] { return age; },
        [this] {
          ++release_calls;
          if (!will_release) {
            return false;
          }
          ++released;
          return true;
        },
        bias, monotone);
  }
};

TEST(ArbiterAuditTest, AgeAheadOfVirtualTimeIsFlagged) {
  Clock clock;
  MemoryArbiter arbiter;
  FakeConsumer c;
  c.age = 100;  // virtual time is still 0
  c.AddTo(arbiter, "early", SimDuration::Nanos(0));

  InvariantAuditor auditor;
  auditor.set_abort_on_violation(false);
  arbiter.RegisterAuditChecks(&auditor, &clock);
  EXPECT_EQ(auditor.RunAll(), 1u);
  EXPECT_EQ(auditor.last_violations()[0].subsystem, "arbiter");
  EXPECT_EQ(auditor.last_violations()[0].invariant, "ages-plausible");

  clock.Advance(SimDuration::Nanos(100));
  EXPECT_EQ(auditor.RunAll(), 0u);
}

TEST(ArbiterAuditTest, MonotoneConsumerMovingBackwardsIsFlagged) {
  Clock clock;
  clock.Advance(SimDuration::Micros(10));
  MemoryArbiter arbiter;
  FakeConsumer c;
  c.age = 500;
  c.AddTo(arbiter, "lru", SimDuration::Nanos(0), /*monotone=*/true);

  InvariantAuditor auditor;
  auditor.set_abort_on_violation(false);
  arbiter.RegisterAuditChecks(&auditor, &clock);
  EXPECT_EQ(auditor.RunAll(), 0u);
  c.age = 900;
  EXPECT_EQ(auditor.RunAll(), 0u);
  c.age = 400;  // an LRU front got *older*: bookkeeping bug
  EXPECT_EQ(auditor.RunAll(), 1u);
  EXPECT_EQ(auditor.last_violations()[0].invariant, "ages-plausible");

  // An empty consumer (UINT64_MAX) is not a regression.
  c.age = UINT64_MAX;
  EXPECT_EQ(auditor.RunAll(), 0u);
}

// --- arbiter selection edge cases (satellite fixes) --------------------------

TEST(ArbiterEdgeTest, EqualEffectiveAgesBreakTowardLowerIndex) {
  // Near virtual time 0 every consumer can publish age 0; selection must still
  // be deterministic: ties break by consumer name (not registration index), so
  // "first" — alphabetically lowest — goes. The name here happens to coincide
  // with registration order; ReclaimChoiceIgnoresRegistrationOrder pins the
  // distinction.
  MemoryArbiter arbiter;
  FakeConsumer first;
  FakeConsumer second;
  first.age = 0;
  second.age = 0;
  first.AddTo(arbiter, "first", SimDuration::Nanos(0));
  second.AddTo(arbiter, "second", SimDuration::Nanos(0));
  EXPECT_TRUE(arbiter.ReclaimOne());
  EXPECT_EQ(first.released, 1);
  EXPECT_EQ(second.released, 0);
}

TEST(ArbiterEdgeTest, ReclaimChoiceIgnoresRegistrationOrder) {
  // Registering a new consumer (an N-tier stack adds one per RAM tier) must
  // never perturb which of the existing consumers gets reclaimed: ties and the
  // refusal fallback walk consumers in name order, not registration order.
  for (const bool reversed : {false, true}) {
    MemoryArbiter arbiter;
    FakeConsumer alpha;
    FakeConsumer beta;
    alpha.age = 50;
    beta.age = 50;  // genuine tie
    if (reversed) {
      beta.AddTo(arbiter, "beta", SimDuration::Nanos(0));
      alpha.AddTo(arbiter, "alpha", SimDuration::Nanos(0));
    } else {
      alpha.AddTo(arbiter, "alpha", SimDuration::Nanos(0));
      beta.AddTo(arbiter, "beta", SimDuration::Nanos(0));
    }
    EXPECT_TRUE(arbiter.ReclaimOne());
    EXPECT_EQ(alpha.released, 1) << "reversed=" << reversed;
    EXPECT_EQ(beta.released, 0) << "reversed=" << reversed;
  }

  // The last-resort fallback pass (everything looked empty or refused in the
  // ordered pass, e.g. a wired tier reserve publishing UINT64_MAX) is equally
  // order-blind.
  for (const bool reversed : {false, true}) {
    MemoryArbiter arbiter;
    FakeConsumer alpha;
    FakeConsumer beta;
    alpha.age = UINT64_MAX;  // "empty" to the ordered pass, releasable anyway
    beta.age = UINT64_MAX;
    if (reversed) {
      beta.AddTo(arbiter, "beta", SimDuration::Nanos(0));
      alpha.AddTo(arbiter, "alpha", SimDuration::Nanos(0));
    } else {
      alpha.AddTo(arbiter, "alpha", SimDuration::Nanos(0));
      beta.AddTo(arbiter, "beta", SimDuration::Nanos(0));
    }
    EXPECT_TRUE(arbiter.ReclaimOne());
    EXPECT_EQ(alpha.released, 1) << "reversed=" << reversed;
    EXPECT_EQ(beta.released, 0) << "reversed=" << reversed;
  }
}

TEST(ArbiterEdgeTest, BiasSaturatesInsteadOfWrapping) {
  // Ages are LRU timestamps: smaller = older = reclaimed first; the bias makes
  // a consumer look more recently used (harder to reclaim). age + bias would
  // wrap uint64 here and come out as ~997 — *older* than the unbiased
  // consumer's 100, inverting the preference the bias exists to express. The
  // sum must clamp to UINT64_MAX-young instead.
  MemoryArbiter arbiter;
  FakeConsumer huge;
  FakeConsumer normal;
  huge.age = UINT64_MAX - 2;  // non-empty, stamped at an astronomically late time
  normal.age = 100;
  huge.AddTo(arbiter, "huge", SimDuration::Nanos(1000));  // would wrap
  normal.AddTo(arbiter, "normal", SimDuration::Nanos(0));
  EXPECT_TRUE(arbiter.ReclaimOne());
  EXPECT_EQ(huge.released, 0);
  EXPECT_EQ(normal.released, 1);
}

TEST(ArbiterEdgeTest, SaturatedConsumerIsStillAskedInTheMainPass) {
  // A consumer whose biased age saturates to UINT64_MAX is NOT empty. When
  // everything younger refuses, it must be asked in the main ordered pass —
  // the refusing consumer is asked exactly once. (Before the fix the main loop
  // stopped at the first UINT64_MAX effective age, so reclamation fell through
  // to the last-resort pass and asked the refusing consumer a second time.)
  MemoryArbiter arbiter;
  FakeConsumer refuser;
  FakeConsumer saturated;
  refuser.age = 100;
  refuser.will_release = false;
  saturated.age = UINT64_MAX - 2;
  refuser.AddTo(arbiter, "refuser", SimDuration::Nanos(0));
  saturated.AddTo(arbiter, "saturated", SimDuration::Nanos(1000));
  EXPECT_TRUE(arbiter.ReclaimOne());
  EXPECT_EQ(saturated.released, 1);
  EXPECT_EQ(refuser.release_calls, 1);
}

TEST(ArbiterEdgeTest, EmptyConsumersAreNeverAskedInTheMainPass) {
  MemoryArbiter arbiter;
  FakeConsumer empty;
  FakeConsumer full;
  empty.age = UINT64_MAX;
  full.age = 50;
  empty.AddTo(arbiter, "empty", SimDuration::Nanos(0));
  full.AddTo(arbiter, "full", SimDuration::Nanos(0));
  EXPECT_TRUE(arbiter.ReclaimOne());
  EXPECT_EQ(full.released, 1);
  EXPECT_EQ(empty.release_calls, 0);
}

// --- buffer-cache age units (satellite fix) ----------------------------------

TEST(AuditTest, BufferCacheAgesAreVirtualTimeNanoseconds) {
  // The buffer cache used to stamp block ages with logical clock ticks while
  // the pager and ccache stamped virtual-time nanoseconds; the arbiter compared
  // them directly, so file blocks always looked ancient and were reclaimed
  // almost unconditionally. An age must now be a plausible recent timestamp.
  Machine machine(SmallConfig(true));
  // Burn some virtual time first so ticks and nanoseconds are far apart.
  Heap heap = machine.NewHeap(1 * kMiB);
  Thrash(heap, 100);
  const int64_t before_io = machine.clock().Now().nanos();
  ASSERT_GT(before_io, 1'000'000);  // far more nanoseconds than ticks elapsed

  const FileId f = machine.fs().Create("aged");
  std::vector<uint8_t> block(kFsBlockSize, 0x5a);
  machine.buffer_cache().Write(f, 0, block);
  const uint64_t age = machine.buffer_cache().OldestAge();
  EXPECT_GE(age, static_cast<uint64_t>(before_io));
  EXPECT_LE(age, static_cast<uint64_t>(machine.clock().Now().nanos()));
  EXPECT_EQ(machine.RunAudit(), 0u);
}

// --- segment teardown (satellite fix) ----------------------------------------

TEST(AuditTest, TeardownSegmentReturnsFramesAndSwapBlocks) {
  MachineConfig config = SmallConfig(true);
  config.compressed_swap = CompressedSwapKind::kClustered;
  Machine machine(config);
  Heap heap = machine.NewHeap(4 * kMiB);
  Thrash(heap, 1200);

  // Precondition: the segment actually has state in every tier.
  EXPECT_GT(machine.pager().resident_pages(), 0u);
  ASSERT_GT(machine.metrics().GaugeValue("swap.clustered.live_pages"), 0.0);
  const double free_blocks_before = machine.metrics().GaugeValue("swap.clustered.free_blocks");
  const size_t free_frames_before = machine.frame_pool().free_frames();

  machine.pager().TeardownSegment(*heap.segment());

  EXPECT_TRUE(heap.segment()->torn_down());
  EXPECT_EQ(machine.pager().stats().segments_torn_down, 1u);
  EXPECT_EQ(machine.pager().resident_pages(), 0u);
  EXPECT_EQ(machine.ccache()->live_entries(), 0u);
  // Every block the segment's compressed pages held comes back to the free
  // pool — this is the leak the teardown fix closed.
  EXPECT_EQ(machine.metrics().GaugeValue("swap.clustered.live_pages"), 0.0);
  EXPECT_GT(machine.metrics().GaugeValue("swap.clustered.free_blocks"), free_blocks_before);
  EXPECT_GT(machine.frame_pool().free_frames(), free_frames_before);
  // And the auditor agrees nothing leaked or dangles.
  EXPECT_EQ(machine.RunAudit(), 0u);
}

TEST(AuditTest, TeardownSegmentStdMode) {
  Machine machine(SmallConfig(false));
  Heap heap = machine.NewHeap(4 * kMiB);
  Thrash(heap, 800);
  ASSERT_GT(machine.pager().stats().evictions_std_write, 0u);

  machine.pager().TeardownSegment(*heap.segment());
  EXPECT_EQ(machine.pager().resident_pages(), 0u);
  // The fixed layout forgets the segment's recorded copies.
  bool any_recorded = false;
  machine.fixed_swap()->ForEachPage([&](PageKey key) {
    any_recorded |= key.segment == heap.segment()->id();
  });
  EXPECT_FALSE(any_recorded);
  EXPECT_EQ(machine.RunAudit(), 0u);
}

TEST(AuditTest, TeardownOfAbortedSegmentRecoversItsBlocks) {
  // The motivating case: a segment poisoned by an unrecoverable page loss gets
  // torn down, and all its backing blocks return to the free pool instead of
  // leaking until shutdown.
  MachineConfig config = SmallConfig(true);
  config.compressed_swap = CompressedSwapKind::kClustered;
  config.fault_injection.enabled = true;
  config.fault_injection.seed = 11;
  // Per-attempt rate; the device retries 4x, so batches only fail outright
  // when errors are near-constant — which is what poisons the segment.
  config.fault_injection.disk_write_error_rate = 0.95;
  Machine machine(config);
  machine.auditor().set_abort_on_violation(false);
  Heap heap = machine.NewHeap(4 * kMiB);
  Thrash(heap, 2000);
  ASSERT_GT(machine.pager().stats().pages_lost, 0u);
  ASSERT_TRUE(heap.segment()->aborted());
  EXPECT_EQ(machine.RunAudit(), 0u);

  machine.pager().TeardownSegment(*heap.segment());
  EXPECT_EQ(machine.metrics().GaugeValue("swap.clustered.live_pages"), 0.0);
  EXPECT_EQ(machine.RunAudit(), 0u);
}

// --- partially persisted write batches (satellite fix) -----------------------

TEST(AuditTest, FailedWriteBatchLeavesNoOrphanedBackendPages) {
  // The fixed-offset layout persists each page of a batch separately; when the
  // batch as a whole fails, the pages that did persist used to stay recorded in
  // the backend while the ccache kept their entries dirty — backend copies no
  // page-table entry claims. The orphan check makes that a hard failure; the
  // fix discards the partial locations.
  MachineConfig config = SmallConfig(true);
  config.compressed_swap = CompressedSwapKind::kFixedOffset;
  config.fault_injection.enabled = true;
  config.fault_injection.seed = 5;
  // High per-attempt rate so some requests exhaust the device's 4 retries.
  config.fault_injection.disk_write_error_rate = 0.5;
  config.audit_interval = 8;
  Machine machine(config);
  machine.auditor().set_abort_on_violation(false);
  Heap heap = machine.NewHeap(4 * kMiB);
  Thrash(heap, 2000);
  // Precondition: batches really did fail mid-flight.
  ASSERT_GT(machine.ccache()->stats().write_batch_failures, 0u);
  EXPECT_EQ(machine.auditor().total_violations(), 0u);
  EXPECT_EQ(machine.RunAudit(), 0u);
}

// --- ResetStats parity (satellite fix) ---------------------------------------

TEST(AuditTest, ResetStatsZeroesEveryCounterMetricInTheRegistry) {
  for (const bool use_cc : {true, false}) {
    MachineConfig config = SmallConfig(use_cc);
    if (use_cc) {
      config.compressed_swap = CompressedSwapKind::kLfs;  // exercise base + override
    }
    Machine machine(config);
    Heap heap = machine.NewHeap(4 * kMiB);
    Thrash(heap, 600);

    // The sweep is registry-driven: no hand-maintained metric list, so a newly
    // added subsystem counter is covered the day it is registered.
    ASSERT_FALSE(machine.metrics().counter_gauge_names().empty());
    // The crash-recovery counters are registered unconditionally (stable bench
    // schema even on machines that never crash), so the sweep must see them.
    for (const char* name : {"recovery.mounts", "recovery.pages_recovered",
                             "recovery.pages_lost", "recovery.orphans_discarded",
                             "recovery.journal_replays", "recovery.checkpoint_loads",
                             "recovery.torn_writes_detected", "recovery.mount_ns",
                             "fault.crashes"}) {
      EXPECT_TRUE(machine.metrics().counter_gauge_names().contains(name))
          << name << " missing from the registry";
    }
    bool any_nonzero = false;
    for (const std::string& name : machine.metrics().counter_gauge_names()) {
      any_nonzero |= machine.metrics().GaugeValue(name) != 0.0;
    }
    ASSERT_TRUE(any_nonzero);

    machine.ResetStats();
    for (const std::string& name : machine.metrics().counter_gauge_names()) {
      EXPECT_EQ(machine.metrics().GaugeValue(name), 0.0) << name << " survived ResetStats";
    }
    for (const std::string& name : machine.metrics().HistogramNames()) {
      EXPECT_EQ(machine.metrics().FindHistogram(name)->count(), 0u)
          << name << " survived ResetStats";
    }

    // The machine keeps working and the audit (including the monotonicity
    // check, re-baselined by the reset) stays clean.
    Thrash(heap, 200, /*seed=*/8);
    EXPECT_GT(machine.pager().stats().accesses, 0u);
    EXPECT_EQ(machine.RunAudit(), 0u);
  }
}

// PR-8's pipeline-era counters (disk queue waits, write-behind batches,
// decompress-ahead prefetching) must obey the same reset parity as everything
// older. This variant of the sweep runs a pipelined clustered machine so those
// metrics exist and are non-trivial before the reset.
TEST(AuditTest, ResetStatsZeroesPipelineEraCounters) {
  MachineConfig config = SmallConfig(true);
  config.compressed_swap = CompressedSwapKind::kClustered;
  config.pipeline.enabled = true;
  config.pipeline.write_behind_depth = 4;
  config.pipeline.prefetch = true;
  config.pipeline.prefetch_buffer_pages = 8;
  config.pipeline.prefetch_per_fault = 2;
  config.pipeline.fault_batch_window = 2;
  Machine machine(config);
  Heap heap = machine.NewHeap(4 * kMiB);
  Thrash(heap, 800);
  // Quiesce in-flight batches and the prefetch buffer so the conservation
  // rules (issued == hits + misses, inflight == 0) hold over the counters the
  // sweep reads.
  machine.DrainPipeline();

  const auto& names = machine.metrics().counter_gauge_names();
  for (const char* name :
       {"disk.queue_wait_ns", "pipeline.batches_submitted", "pipeline.batches_completed",
        "pipeline.pages_submitted", "pipeline.barrier_stalls", "pipeline.backpressure_stalls",
        "pipeline.stall_ns", "pipeline.deferred_io_ns", "prefetch.issued", "prefetch.hits",
        "prefetch.misses", "prefetch.batched", "prefetch.wait_ready_ns",
        "prefetch.background_ns", "swap.clustered.coresidents_dropped"}) {
    EXPECT_TRUE(names.contains(name)) << name << " missing from the registry";
  }
  ASSERT_GT(machine.metrics().GaugeValue("pipeline.batches_submitted"), 0.0);
  ASSERT_GT(machine.metrics().GaugeValue("prefetch.issued"), 0.0);

  machine.ResetStats();
  for (const std::string& name : names) {
    EXPECT_EQ(machine.metrics().GaugeValue(name), 0.0) << name << " survived ResetStats";
  }
  for (const std::string& name : machine.metrics().HistogramNames()) {
    EXPECT_EQ(machine.metrics().FindHistogram(name)->count(), 0u)
        << name << " survived ResetStats";
  }

  // Still a working, auditable machine after the reset.
  Thrash(heap, 200, /*seed=*/9);
  machine.DrainPipeline();
  EXPECT_EQ(machine.RunAudit(), 0u);
}

// PR-10's tier-era counters (per-tier landings, demotion/promotion flows,
// the SSD tier's device stats, per-tier read latency histograms) get the same
// registry-driven reset parity. The machine runs a RAM + SSD stack over the
// clustered disk so every tier level exists and sees traffic first.
TEST(AuditTest, ResetStatsZeroesTierEraCounters) {
  MachineConfig config = SmallConfig(true);
  config.tiers.enabled = true;
  TierSpec ram;
  ram.name = "ram";
  ram.medium = TierMedium::kCompressedRam;
  ram.capacity_bytes = 128 * kKiB;
  TierSpec ssd;
  ssd.name = "ssd";
  ssd.medium = TierMedium::kSsd;
  ssd.capacity_bytes = 512 * kKiB;
  config.tiers.tiers = {ram, ssd};
  config.tiers.classifier.hot_window = SimDuration::Seconds(120);
  config.ccache_max_frames = 128;
  Machine machine(config);
  Heap heap = machine.NewHeap(4 * kMiB);
  Thrash(heap, 2000);

  const auto& names = machine.metrics().counter_gauge_names();
  for (const char* name :
       {"tier.ram.landings", "tier.ram.demotions_out", "tier.ram.promotions_in",
        "tier.ram.invalidations", "tier.ram.reads", "tier.ram.transcodes",
        "tier.ram.demotion_failures", "tier.ssd.landings", "tier.ssd.demotions_in",
        "tier.ssd.device_read_ops", "tier.ssd.device_write_ops", "tier.ssd.device_busy_ns",
        "tier.disk.landings", "tier.disk.demotions_in", "tier.disk.reads"}) {
    EXPECT_TRUE(names.contains(name)) << name << " missing from the registry";
  }
  ASSERT_GT(machine.metrics().GaugeValue("tier.ram.landings") +
                machine.metrics().GaugeValue("tier.ram.promotions_in"),
            0.0);
  ASSERT_GT(machine.metrics().GaugeValue("tier.disk.landings") +
                machine.metrics().GaugeValue("tier.disk.demotions_in"),
            0.0);

  machine.ResetStats();
  for (const std::string& name : names) {
    EXPECT_EQ(machine.metrics().GaugeValue(name), 0.0) << name << " survived ResetStats";
  }
  for (const std::string& name : machine.metrics().HistogramNames()) {
    EXPECT_EQ(machine.metrics().FindHistogram(name)->count(), 0u)
        << name << " survived ResetStats";
  }

  // Still a working machine whose tier conservation audits (re-baselined by
  // the reset) stay clean.
  Thrash(heap, 200, /*seed=*/10);
  EXPECT_GT(machine.pager().stats().accesses, 0u);
  EXPECT_EQ(machine.RunAudit(), 0u);
}

TEST(AuditTest, ResetStatsPreservesStateGauges) {
  Machine machine(SmallConfig(true));
  Heap heap = machine.NewHeap(3 * kMiB);
  Thrash(heap, 500);
  const double resident = machine.metrics().GaugeValue("vm.resident_pages");
  const double mapped = machine.metrics().GaugeValue("ccache.frames_mapped");
  const double now = machine.metrics().GaugeValue("clock.now_ns");
  ASSERT_GT(resident, 0.0);

  machine.ResetStats();
  EXPECT_EQ(machine.metrics().GaugeValue("vm.resident_pages"), resident);
  EXPECT_EQ(machine.metrics().GaugeValue("ccache.frames_mapped"), mapped);
  EXPECT_EQ(machine.metrics().GaugeValue("clock.now_ns"), now);
  // The peak re-baselines to the current mapping, not zero.
  EXPECT_EQ(machine.metrics().GaugeValue("ccache.frames_mapped_peak"), mapped);
}

}  // namespace
}  // namespace compcache
