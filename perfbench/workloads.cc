#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "apps/gold.h"
#include "apps/kv_server.h"
#include "apps/sort.h"
#include "apps/thrasher.h"
#include "apps/wordgen.h"
#include "apps/zipfian.h"
#include "compress/registry.h"
#include "core/machine.h"
#include "proc/scheduler.h"

namespace perfbench {
namespace {

using compcache::Clock;
using compcache::ContentClass;
using compcache::GoldApp;
using compcache::GoldOptions;
using compcache::kKiB;
using compcache::kMiB;
using compcache::kPageSize;
using compcache::KvServer;
using compcache::KvServerOptions;
using compcache::KvWorkload;
using compcache::LatencyHistogram;
using compcache::Machine;
using compcache::MachineConfig;
using compcache::Rng;
using compcache::Scheduler;
using compcache::SimDuration;
using compcache::SimTime;
using compcache::SortOptions;
using compcache::TextSort;
using compcache::Thrasher;
using compcache::ThrasherOptions;
using Steady = std::chrono::steady_clock;

double SecondsSince(Steady::time_point start) {
  return std::chrono::duration<double>(Steady::now() - start).count();
}

void Check(RepResult& r, bool ok, std::string what) {
  if (!ok) {
    ++r.failed;
    r.failures.push_back(std::move(what));
  }
}

// Counts `n` failed operations of one kind.
void CountFailures(RepResult& r, uint64_t n, const std::string& what) {
  if (n > 0) {
    r.failed += n;
    r.failures.push_back(what + " = " + std::to_string(n));
  }
}

double Gauge(const Machine& machine, const std::string& name) {
  double value = 0.0;
  return machine.metrics().Lookup(name, &value) ? value : 0.0;
}

// The clock's category totals are state gauges that ResetStats leaves alone;
// marking them at the start of the measured phase lets Finish report deltas.
const char* const kClockGauges[] = {"clock.now_ns",        "clock.cpu_ns", "clock.compress_ns",
                                    "clock.decompress_ns", "clock.copy_ns", "clock.io_ns"};

std::map<std::string, double> MarkClock(const Machine& machine) {
  std::map<std::string, double> mark;
  for (const char* name : kClockGauges) {
    mark[name] = Gauge(machine, name);
  }
  return mark;
}

// Requests at or above 2^26 ns (67.1 ms) miss the service-level objective.
// The limit is the lower edge of pow2 histogram bucket 27, which holds
// [2^26, 2^27), so the miss count is exact.
constexpr size_t kSloBucket = 27;
constexpr double kSloLimitMs = 67.108864;

// Reports the mean and the percentiles of the KV request histogram in
// milliseconds, with its sample count and the number at or above the SLO
// limit. The mean is exact. The histogram keeps power-of-two buckets and
// interpolates linearly inside the bucket that holds the rank, so the
// percentiles are estimates of 2x resolution: a shift that keeps every sample
// in its bucket does not move them.
void RecordHistogramLatency(const LatencyHistogram& hist, RepResult& r) {
  r.virt["req_mean_ms"] = hist.mean() / 1e6;
  r.virt["req_p50_ms"] = hist.Percentile(50) / 1e6;
  r.virt["req_p99_ms"] = hist.Percentile(99) / 1e6;
  r.virt["req_p999_ms"] = hist.Percentile(99.9) / 1e6;
  r.virt["req.samples"] = static_cast<double>(hist.count());
  uint64_t misses = 0;
  for (size_t i = kSloBucket; i < LatencyHistogram::kNumBuckets; ++i) {
    misses += hist.bucket_count(i);
  }
  r.virt["slo.misses"] = static_cast<double>(misses);
}

// Reports the mean and the percentiles of exact virtual-time samples in
// milliseconds, with their count and the number at or above the SLO limit.
void RecordSampleLatency(const std::vector<double>& ms, double mean_ms, RepResult& r) {
  r.virt["req_mean_ms"] = mean_ms;
  r.virt["req_p50_ms"] = SamplePercentile(ms, 50);
  r.virt["req_p99_ms"] = SamplePercentile(ms, 99);
  r.virt["req_p999_ms"] = SamplePercentile(ms, 99.9);
  r.virt["req.samples"] = static_cast<double>(ms.size());
  r.virt["slo.misses"] = static_cast<double>(
      std::count_if(ms.begin(), ms.end(), [](double v) { return v >= kSloLimitMs; }));
}

// Exact virtual samples of fault service time. Over one Step or quantum: the
// clock's advance outside CPU time (codec, copy and I/O) divided by the
// faults taken in it. A Step or quantum without a fault gives no sample.
class FaultServiceSamples {
 public:
  explicit FaultServiceSamples(Machine& machine) : machine_(machine) {}

  void Begin() {
    ns0_ = NonCpuNs();
    faults0_ = machine_.pager().stats().faults;
  }

  void End() {
    const uint64_t faults = machine_.pager().stats().faults - faults0_;
    if (faults > 0) {
      const int64_t ns = NonCpuNs() - ns0_;
      ms_.push_back(static_cast<double>(ns) / 1e6 / static_cast<double>(faults));
      total_ns_ += ns;
      total_faults_ += faults;
    }
  }

  const std::vector<double>& ms() const { return ms_; }
  // Fault service time per fault over every sample, weighted by faults.
  double mean_ms() const {
    return total_faults_ > 0
               ? static_cast<double>(total_ns_) / 1e6 / static_cast<double>(total_faults_)
               : 0.0;
  }

 private:
  int64_t NonCpuNs() {
    Clock& clock = machine_.clock();
    return clock.Now().nanos() - clock.TimeIn(compcache::TimeCategory::kCpu).nanos();
  }

  Machine& machine_;
  int64_t ns0_ = 0;
  uint64_t faults0_ = 0;
  std::vector<double> ms_;
  int64_t total_ns_ = 0;
  uint64_t total_faults_ = 0;
};

// After the measured phase: quiesce the pipeline, check its conservation
// equations, audit every invariant and snapshot the registry into r.virt.
void Finish(Machine& machine, const std::map<std::string, double>& clock_mark, SpanLog* spans,
            RepResult& r) {
  {
    ScopedSpan span(spans, "drain");
    machine.DrainPipeline();
  }
  if (machine.pipeline() != nullptr) {
    const double issued = Gauge(machine, "prefetch.issued");
    const double hits = Gauge(machine, "prefetch.hits");
    const double misses = Gauge(machine, "prefetch.misses");
    Check(r, issued == hits + misses, "prefetch.issued != hits + misses after drain");
    Check(r, Gauge(machine, "pipeline.inflight") == 0.0, "pipeline.inflight != 0 after drain");
  }
  machine.auditor().set_abort_on_violation(false);
  size_t violations = 0;
  {
    ScopedSpan span(spans, "audit");
    violations = machine.RunAudit();
  }
  r.failed += violations;
  for (const auto& v : machine.auditor().last_violations()) {
    r.failures.push_back("audit " + v.subsystem + "/" + v.invariant + ": " + v.detail);
  }
  std::vector<std::pair<std::string, double>> snapshot;
  {
    ScopedSpan span(spans, "snapshot");
    snapshot = machine.metrics().Snapshot();
  }
  for (auto& [name, value] : snapshot) {
    r.virt[name] = value;
  }
  for (const auto& [name, value] : clock_mark) {
    r.virt[name] -= value;
  }
  for (const char* name : {"vm.pages_lost", "vm.segments_aborted", "fault.checksum_mismatches"}) {
    CountFailures(r, static_cast<uint64_t>(r.virt[name]), name);
  }
}

// --- thrash_fit -------------------------------------------------------------
// The Thrasher, read-write, over a working set of 1.5x a 64 MiB machine. Its
// ~4:1 pages keep the whole compressed image in memory, so after the init pass
// every touch is a dirty-page fault served from the compression cache.

constexpr uint64_t kThrashMemory = 64 * kMiB;
constexpr uint64_t kThrashWorkingSet = 96 * kMiB;
constexpr int kThrashPasses = 1;

ThrasherOptions ThrashOptions(uint64_t seed) {
  ThrasherOptions o;
  o.address_space_bytes = kThrashWorkingSet;
  o.write = true;
  o.passes = kThrashPasses;
  o.content = ContentClass::kSparseNumeric;
  o.seed = seed;
  return o;
}

RepResult RunThrashFit(uint64_t seed, SpanLog* spans) {
  RepResult r;
  const auto setup_start = Steady::now();
  std::unique_ptr<Machine> machine;
  {
    ScopedSpan span(spans, "setup.machine");
    machine = std::make_unique<Machine>(MachineConfig::WithCompressionCache(kThrashMemory));
  }
  Thrasher app(ThrashOptions(seed));
  {
    // The init pass writes every page once; it ends when the app records
    // its set-up time.
    ScopedSpan span(spans, "setup.populate");
    while (app.result().setup_time.nanos() == 0 && !app.Step(*machine)) {
    }
  }
  r.setup_host_s = SecondsSince(setup_start);
  r.machine_traced = machine->tracer() != nullptr;

  const auto clock_mark = MarkClock(*machine);
  machine->ResetStats();
  FaultServiceSamples fault_service(*machine);
  const auto measure_start = Steady::now();
  {
    ScopedSpan span(spans, "measure");
    bool done = false;
    while (!done) {
      ScopedSpan step(spans, "step.thrasher");
      fault_service.Begin();
      done = app.Step(*machine);
      fault_service.End();
    }
  }
  r.measure_host_s = SecondsSince(measure_start);

  Finish(*machine, clock_mark, spans, r);
  RecordSampleLatency(fault_service.ms(), fault_service.mean_ms(), r);
  r.virt["virt_s"] = app.result().elapsed.seconds();
  const uint64_t touches = kThrashWorkingSet / kPageSize * kThrashPasses;
  Check(r, app.result().page_touches == touches, "thrasher touched the wrong number of pages");
  r.attempted = static_cast<uint64_t>(r.virt["vm.accesses"]);
  return r;
}

GeneratorReplay ReplayThrashGenerators(uint64_t seed) {
  GeneratorReplay g;
  const auto start = Steady::now();
  Rng rng(seed);
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t p = 0; p < kThrashWorkingSet / kPageSize; ++p) {
    FillPage(page, ContentClass::kSparseNumeric, rng);
  }
  g.setup_s = SecondsSince(start);
  return g;  // the measured passes make no generator calls
}

// --- kv_zipf ----------------------------------------------------------------
// KvServer with a 16 MiB heap on a 6 MiB machine, clustered swap and the async
// pipeline, serving open-loop Zipfian traffic below saturation.

constexpr uint64_t kKvMemory = 6 * kMiB;
constexpr uint64_t kKvRequests = 50000;

KvServerOptions KvOptions(uint64_t seed) {
  KvServerOptions o;
  o.workload.num_keys = 8192;
  o.slot_bytes = 2048;
  o.workload.max_value_bytes = o.slot_bytes - 16;  // the server's own clamp
  o.workload.zipf_s = 0.99;
  o.workload.get_fraction = 0.9;
  o.workload.mean_interarrival = SimDuration::Millis(5);
  o.num_requests = kKvRequests;
  o.workload.diurnal_period_requests = 10000;
  o.workload.diurnal_amplitude = 0.5;
  o.workload.flash_period_requests = 5000;
  o.workload.flash_len_requests = 500;
  o.workload.seed = seed;
  o.value_content = ContentClass::kText;
  return o;
}

MachineConfig KvConfig() {
  MachineConfig config = MachineConfig::WithCompressionCache(kKvMemory);
  config.compressed_swap = compcache::CompressedSwapKind::kClustered;
  config.pipeline.enabled = true;
  config.pipeline.write_behind_depth = 4;
  config.pipeline.prefetch = true;
  config.pipeline.prefetch_buffer_pages = 8;
  config.pipeline.prefetch_per_fault = 1;
  config.pipeline.fault_batch_window = 2;
  return config;
}

// Arrival offsets (ns from the start of the serve phase) of every request.
std::vector<uint64_t> KvArrivals(const KvServerOptions& options) {
  KvWorkload workload(options.workload);
  std::vector<uint64_t> arrivals(options.num_requests);
  for (uint64_t& a : arrivals) {
    a = workload.Next().arrival_ns;
  }
  return arrivals;
}

RepResult RunKvZipf(uint64_t seed, SpanLog* spans) {
  RepResult r;
  const KvServerOptions options = KvOptions(seed);
  const auto setup_start = Steady::now();
  std::unique_ptr<Machine> machine;
  {
    ScopedSpan span(spans, "setup.machine");
    machine = std::make_unique<Machine>(KvConfig());
  }
  KvServer server(options);
  {
    // The load phase stores every key once; it ends when the server records
    // its set-up time, and the serve phase starts at that instant.
    ScopedSpan span(spans, "setup.populate");
    while (server.result().setup_time.nanos() == 0 && !server.Step(*machine)) {
    }
  }
  r.setup_host_s = SecondsSince(setup_start);
  r.machine_traced = machine->tracer() != nullptr;

  const SimTime serve_start = machine->clock().Now();
  const auto clock_mark = MarkClock(*machine);
  machine->ResetStats();
  // (requests served, virtual ns since serve start) after every step.
  std::vector<std::pair<uint64_t, int64_t>> progress;
  progress.reserve(kKvRequests / 32);
  const auto measure_start = Steady::now();
  {
    ScopedSpan span(spans, "measure");
    bool done = false;
    while (!done) {
      ScopedSpan step(spans, "step.kv_server");
      done = server.Step(*machine);
      progress.emplace_back(server.result().requests,
                            (machine->clock().Now() - serve_start).nanos());
    }
  }
  r.measure_host_s = SecondsSince(measure_start);

  Finish(*machine, clock_mark, spans, r);
  const compcache::KvServerResult& result = server.result();
  RecordHistogramLatency(result.latency, r);
  r.virt["virt_s"] = result.elapsed.seconds();
  r.attempted = result.requests;
  CountFailures(r, result.validation_failures, "kv.validation_failures");
  Check(r, result.requests == kKvRequests, "kv server did not serve every request");

  // Backlog: how late the last request of each step completed relative to
  // its arrival. Below saturation the queue drains between bursts, so the
  // lateness of the second half of the run stays near that of the first
  // half; above it, lateness grows without bound.
  const std::vector<uint64_t> arrivals = KvArrivals(options);
  std::vector<double> lateness_ms;
  for (const auto& [served, now_ns] : progress) {
    if (served > 0) {
      lateness_ms.push_back(static_cast<double>(now_ns - static_cast<int64_t>(arrivals[served - 1])) /
                            1e6);
    }
  }
  double first_half = 0.0;
  double second_half = 0.0;
  const size_t half = lateness_ms.size() / 2;
  for (size_t i = 0; i < lateness_ms.size(); ++i) {
    (i < half ? first_half : second_half) += lateness_ms[i];
  }
  first_half /= static_cast<double>(std::max<size_t>(half, 1));
  second_half /= static_cast<double>(std::max<size_t>(lateness_ms.size() - half, 1));
  r.virt["kv.lateness_first_half_ms"] = first_half;
  r.virt["kv.lateness_second_half_ms"] = second_half;
  r.virt["kv.serve_overrun_ms"] =
      (static_cast<double>(result.elapsed.nanos()) - static_cast<double>(arrivals.back())) / 1e6;
  Check(r, second_half <= first_half + kSloLimitMs,
        "kv backlog grows: mean step lateness " + std::to_string(first_half) + " ms -> " +
            std::to_string(second_half) + " ms");
  return r;
}

GeneratorReplay ReplayKvGenerators(uint64_t seed) {
  GeneratorReplay g;
  const KvServerOptions options = KvOptions(seed);
  std::vector<uint8_t> value(options.slot_bytes);
  // The server's payload stream (seeded as in KvServer) fills the load
  // phase's values, then the serve phase's sets.
  Rng content_rng(options.workload.seed ^ 0xc0ffee);
  auto start = Steady::now();
  for (uint64_t key = 0; key < options.workload.num_keys; ++key) {
    const uint32_t bytes = compcache::DrawLogNormalBytes(content_rng, options.workload);
    FillPage(std::span<uint8_t>(value.data(), bytes), options.value_content, content_rng);
  }
  g.setup_s = SecondsSince(start);
  start = Steady::now();
  KvWorkload workload(options.workload);
  for (uint64_t i = 0; i < options.num_requests; ++i) {
    const compcache::KvRequest req = workload.Next();
    if (!req.is_get) {
      FillPage(std::span<uint8_t>(value.data(), req.value_bytes), options.value_content,
               content_rng);
    }
  }
  g.measure_s = SecondsSince(start);
  return g;
}

// --- apps_tiered ------------------------------------------------------------
// fig5's three-way mix (gold + sort partial + thrasher) under the round-robin
// scheduler on a 4 MiB machine whose compression cache sits over a
// compressed-RAM tier and an SSD tier, with LFS as the disk layout.

constexpr uint64_t kAppsMemory = 4 * kMiB;

GoldOptions MixGoldOptions(uint64_t seed) {
  GoldOptions o;
  o.num_messages = 1024;
  o.message_bytes = 1024;
  o.dictionary_words = 8 * 1024;
  o.term_table_slots = 1 << 14;
  o.postings_bytes = 4 * kMiB;
  o.num_queries = 512;
  o.seed = seed;
  return o;
}

SortOptions MixSortOptions(uint64_t seed) {
  SortOptions o;
  o.variant = compcache::SortVariant::kPartial;
  o.text_bytes = 1 * kMiB;
  o.dictionary_words = 8 * 1024;
  o.seed = seed;
  return o;
}

ThrasherOptions MixThrasherOptions(uint64_t seed) {
  ThrasherOptions o;
  o.address_space_bytes = 4 * kMiB;
  o.write = true;
  o.passes = 2;
  o.content = ContentClass::kSparseNumeric;
  o.seed = seed;
  return o;
}

MachineConfig TieredConfig() {
  MachineConfig config = MachineConfig::WithCompressionCache(kAppsMemory);
  config.compressed_swap = compcache::CompressedSwapKind::kLfs;
  config.tiers.enabled = true;
  compcache::TierSpec ram;
  ram.name = "ram";
  ram.medium = compcache::TierMedium::kCompressedRam;
  ram.capacity_bytes = 256 * kKiB;
  compcache::TierSpec ssd;
  ssd.name = "ssd";
  ssd.medium = compcache::TierMedium::kSsd;
  ssd.capacity_bytes = 16 * kMiB;
  ssd.ssd_latency = SimDuration::Micros(500);
  ssd.ssd_bandwidth_bytes_per_sec = 100e6;
  config.tiers.tiers = {ram, ssd};
  // As in the tier ablation: fault service takes tens of milliseconds of
  // virtual time, so the hot window must outlive it for anything to be hot.
  config.tiers.classifier.hot_window = SimDuration::Seconds(120);
  config.ccache_max_frames = kAppsMemory / kPageSize / 8;
  return config;
}

RepResult RunAppsTiered(uint64_t seed, SpanLog* spans) {
  RepResult r;
  const auto setup_start = Steady::now();
  std::unique_ptr<Machine> machine;
  {
    ScopedSpan span(spans, "setup.machine");
    machine = std::make_unique<Machine>(TieredConfig());
  }
  compcache::SchedulerOptions sched_options;
  sched_options.quantum = SimDuration::Millis(1);
  std::unique_ptr<Scheduler> sched;
  auto gold = std::make_unique<GoldApp>(MixGoldOptions(seed));
  auto sorter = std::make_unique<TextSort>(MixSortOptions(seed));
  auto thrash = std::make_unique<Thrasher>(MixThrasherOptions(seed));
  const GoldApp& gold_app = *gold;
  const TextSort& sort_app = *sorter;
  const Thrasher& thrash_app = *thrash;
  {
    ScopedSpan span(spans, "setup.populate");
    sched = std::make_unique<Scheduler>(*machine, sched_options);
    sched->Spawn("gold", std::move(gold));
    sched->Spawn("sorter", std::move(sorter));
    sched->Spawn("thrash", std::move(thrash));
  }
  r.setup_host_s = SecondsSince(setup_start);
  r.machine_traced = machine->tracer() != nullptr;

  const SimTime start = machine->clock().Now();
  const auto clock_mark = MarkClock(*machine);
  FaultServiceSamples fault_service(*machine);
  const auto measure_start = Steady::now();
  {
    ScopedSpan span(spans, "measure");
    std::vector<uint64_t> quanta(sched->num_processes());
    for (;;) {
      const size_t index = spans != nullptr ? spans->Open("quantum") : 0;
      fault_service.Begin();
      const bool ran = sched->RunQuantum();
      fault_service.End();
      if (spans != nullptr) {
        spans->Close(index);
        // Name the span after the process whose quantum count moved.
        for (uint32_t pid = 1; pid <= sched->num_processes(); ++pid) {
          const uint64_t q = sched->process(pid).stats().quanta;
          if (q != quanta[pid - 1]) {
            quanta[pid - 1] = q;
            spans->Rename(index, "quantum." + sched->process(pid).name());
          }
        }
      }
      if (!ran) {
        break;
      }
    }
  }
  r.measure_host_s = SecondsSince(measure_start);
  const SimDuration makespan = machine->clock().Now() - start;

  Finish(*machine, clock_mark, spans, r);
  RecordSampleLatency(fault_service.ms(), fault_service.mean_ms(), r);
  r.virt["virt_s"] = makespan.seconds();
  r.attempted = static_cast<uint64_t>(r.virt["vm.accesses"]);
  Check(r, sort_app.result().verified_sorted, "sort output is not sorted");
  Check(r, gold_app.result().cold.query_hits == gold_app.result().warm.query_hits,
        "gold cold and warm query hits differ");
  Check(r, thrash_app.result().page_touches == 4 * kMiB / kPageSize * 2,
        "thrasher touched the wrong number of pages");
  return r;
}

GeneratorReplay ReplayAppsGenerators(uint64_t seed) {
  GeneratorReplay g;
  const auto start = Steady::now();
  const GoldOptions gold = MixGoldOptions(seed);
  const auto gold_dictionary = compcache::MakeDictionary(gold.dictionary_words, gold.seed);
  Rng gold_rng(gold.seed + 100);
  for (size_t m = 0; m < gold.num_messages; ++m) {
    compcache::MakeMessage(gold_dictionary, gold.message_bytes, gold_rng);
  }
  const SortOptions sort = MixSortOptions(seed);
  const auto sort_dictionary = compcache::MakeDictionary(sort.dictionary_words, sort.seed);
  compcache::JoinWords(compcache::MakeNearlySortedCopies(
      sort_dictionary, sort.text_bytes, sort.partial_displacement, sort.seed + 1));
  const ThrasherOptions thrash = MixThrasherOptions(seed);
  Rng thrash_rng(thrash.seed);
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t p = 0; p < thrash.address_space_bytes / kPageSize; ++p) {
    FillPage(page, thrash.content, thrash_rng);
  }
  // The mix has no separate population phase: every app generates its input
  // inside its first quanta.
  g.measure_s = SecondsSince(start);
  return g;
}

const Workload kWorkloads[] = {
    {"thrash_fit", 1, ContentClass::kSparseNumeric, RunThrashFit, ReplayThrashGenerators},
    {"kv_zipf", 16, ContentClass::kText, RunKvZipf, ReplayKvGenerators},
    {"apps_tiered", 12, ContentClass::kText, RunAppsTiered, ReplayAppsGenerators},
};

}  // namespace

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

double SamplePercentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

CodecReplay ReplayCodec(ContentClass content, uint64_t seed) {
  constexpr size_t kPages = 256;
  constexpr int kRounds = 8;
  const MachineConfig defaults;
  auto codec = compcache::MakeCodec(defaults.codec, defaults.codec_hash_bits);
  Rng rng(seed);
  std::vector<std::vector<uint8_t>> pages(kPages, std::vector<uint8_t>(kPageSize));
  for (auto& page : pages) {
    FillPage(page, content, rng);
  }
  std::vector<std::vector<uint8_t>> images(kPages,
                                           std::vector<uint8_t>(codec->MaxCompressedSize(kPageSize)));
  std::vector<size_t> sizes(kPages);
  CodecReplay out;
  auto start = Steady::now();
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < kPages; ++i) {
      sizes[i] = codec->Compress(pages[i], images[i]);
    }
  }
  out.compress_ns_per_page = SecondsSince(start) * 1e9 / (kPages * kRounds);
  std::vector<uint8_t> back(kPageSize);
  start = Steady::now();
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < kPages; ++i) {
      out.round_trip_ok &= codec->TryDecompress(
          std::span<const uint8_t>(images[i].data(), sizes[i]), back);
      out.round_trip_ok &= back == pages[i];
    }
  }
  out.decompress_ns_per_page = SecondsSince(start) * 1e9 / (kPages * kRounds);
  return out;
}

}  // namespace perfbench
