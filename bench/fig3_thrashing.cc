// Figure 3: "Compression Cache Performance Under Thrashing."
//
// Reproduces both panels on the paper's configuration: a machine with ~6 MB
// available to user processes paging to an RZ57-class local disk, thrasher
// sweeping address spaces from 2 to 40 MB with ~4:1-compressible pages.
//
//   (a) average page access time (ms) for std_rw, cc_rw, std_ro, cc_ro;
//   (b) speedup of cc relative to std for the ro and rw variants.
//
// Expected shape (paper): with the unmodified system every fault costs disk
// operations; with the compression cache, access time stays low while the
// compressed working set fits in memory (up to ~3-4x the physical memory), then
// rises once the backing store is needed — but stays below the unmodified system
// thanks to clustered compressed transfers.
//
// --faults=<rate> enables deterministic fault injection (transient disk read and
// write errors at the given per-operation probability) on every machine in the
// sweep. The expected shape is *graceful* degradation: access times creep up
// with the retry/backoff cost, retries are counted, and no pages are lost —
// there is no cliff and no wrong result as the rate rises 0 -> 1e-3.
//
// --codec-faults=<rate> enables codec corruption injection at the given
// per-decompression probability: a bit of the transient copy of a payload is
// flipped before its CRC-32C check, so each hit takes the integrity ladder's
// checksum-mismatch rung (re-fetch a clean backing copy, else zero-fill and
// abort the owning segment). Independent of --faults; both may be given.
//
// --mix=none|gold|sort time-shares every machine between the thrasher and a
// partner process (round-robin, 1 ms quantum) — the paper's multiprogramming
// regime on the thrashing sweep. Access times are still the thrasher's; the
// partner's competition for frames shifts them, and mix.* metrics in the JSON
// report attribute the machine's faults between the two processes.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/gold.h"
#include "apps/sort.h"
#include "apps/thrasher.h"
#include "bench_json.h"
#include "core/machine.h"
#include "proc/scheduler.h"
#include "sweep_runner.h"

using namespace compcache;

namespace {

constexpr uint64_t kUserMemory = 6 * kMiB;

enum class MixPartner { kNone, kGold, kSort };

struct RunResult {
  double avg_access_ms = 0.0;
  uint64_t disk_retries = 0;
  uint64_t pages_lost = 0;
  // Full metric snapshot, taken for one representative run only (the machine
  // is gone by the time the report is assembled). When a mix partner runs,
  // hand-built mix.* metrics ride along.
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, double>> mix_metrics;
};

std::unique_ptr<App> MakePartner(MixPartner partner) {
  if (partner == MixPartner::kGold) {
    GoldOptions gold;
    gold.num_messages = 512;
    gold.message_bytes = 1024;
    gold.dictionary_words = 8 * 1024;
    gold.term_table_slots = 1 << 13;
    gold.postings_bytes = 2 * kMiB;
    gold.num_queries = 256;
    return std::make_unique<GoldApp>(gold);
  }
  SortOptions sort;
  sort.variant = SortVariant::kPartial;
  sort.text_bytes = 512 * kKiB;
  sort.dictionary_words = 8 * 1024;
  return std::make_unique<TextSort>(sort);
}

RunResult RunOne(uint64_t address_space, bool use_ccache, bool write, double fault_rate,
                 double codec_fault_rate, MixPartner partner, bool snapshot_metrics) {
  MachineConfig config = use_ccache ? MachineConfig::WithCompressionCache(kUserMemory)
                                    : MachineConfig::Unmodified(kUserMemory);
  if (fault_rate > 0.0 || codec_fault_rate > 0.0) {
    config.fault_injection.enabled = true;
    config.fault_injection.seed = 1993;
    config.fault_injection.disk_read_error_rate = fault_rate;
    config.fault_injection.disk_write_error_rate = fault_rate;
    config.fault_injection.codec_corruption_rate = codec_fault_rate;
  }
  Machine machine(config);

  ThrasherOptions options;
  options.address_space_bytes = address_space;
  options.write = write;
  options.passes = 2;
  options.content = ContentClass::kSparseNumeric;  // ~4:1 under LZRW1, like the paper

  RunResult result;
  if (partner == MixPartner::kNone) {
    // Single-process path, identical to the pre-scheduler bench.
    Thrasher app(options);
    app.Run(machine);
    result.avg_access_ms = app.result().AvgAccessMillis();
  } else {
    Scheduler sched(machine);
    const SimTime start = machine.clock().Now();
    sched.Spawn("thrash", std::make_unique<Thrasher>(options));
    sched.Spawn(partner == MixPartner::kGold ? "gold" : "sorter", MakePartner(partner));
    sched.RunToCompletion();
    const auto& app = static_cast<const Thrasher&>(sched.process(1).app());
    result.avg_access_ms = app.result().AvgAccessMillis();
    if (snapshot_metrics) {
      const SimDuration elapsed = machine.clock().Now() - start;
      result.mix_metrics.emplace_back("mix.elapsed_ns", static_cast<double>(elapsed.nanos()));
      result.mix_metrics.emplace_back("mix.processes", 2.0);
      for (uint32_t pid = 1; pid <= 2; ++pid) {
        const Process& proc = sched.process(pid);
        result.mix_metrics.emplace_back("mix." + proc.name() + ".run_ns",
                                        static_cast<double>(proc.stats().run_time.nanos()));
        result.mix_metrics.emplace_back("mix." + proc.name() + ".faults",
                                        static_cast<double>(proc.stats().faults));
      }
    }
  }
  result.disk_retries = machine.disk().stats().read_retries + machine.disk().stats().write_retries;
  result.pages_lost = machine.pager().stats().pages_lost;
  if (snapshot_metrics) {
    result.metrics = machine.metrics().Snapshot();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: two sizes instead of twelve, for CI smoke runs.
  // --faults=<rate>: per-operation transient disk error probability (default 0).
  // --codec-faults=<rate>: per-decompression codec corruption probability (default 0).
  // --mix=none|gold|sort: time-share each machine with a partner process.
  bool quick = false;
  double fault_rate = 0.0;
  double codec_fault_rate = 0.0;
  MixPartner partner = MixPartner::kNone;
  std::string mix_name = "none";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      fault_rate = std::strtod(argv[i] + 9, nullptr);
    } else if (std::strncmp(argv[i], "--codec-faults=", 15) == 0) {
      codec_fault_rate = std::strtod(argv[i] + 15, nullptr);
    } else if (std::strncmp(argv[i], "--mix=", 6) == 0) {
      mix_name = argv[i] + 6;
      if (mix_name == "gold") {
        partner = MixPartner::kGold;
      } else if (mix_name == "sort") {
        partner = MixPartner::kSort;
      } else if (mix_name != "none") {
        std::fprintf(stderr, "unknown --mix=%s (expected none|gold|sort)\n", mix_name.c_str());
        return 1;
      }
    }
  }
  const std::vector<uint64_t> sizes_mb = quick
                                             ? std::vector<uint64_t>{2, 8}
                                             : std::vector<uint64_t>{2,  4,  5,  6,  8,  10,
                                                                     12, 15, 20, 25, 30, 40};

  BenchReport report("fig3_thrashing", argc, argv);
  report.Config("user_memory_mb", kUserMemory / kMiB);
  report.Config("content", std::string("sparse_numeric"));
  report.Config("passes", uint64_t{2});
  report.Config("quick", quick);
  report.Config("fault_rate", fault_rate);
  if (codec_fault_rate > 0.0) {
    // Only when set, so reports without the flag keep their earlier config.
    report.Config("codec_fault_rate", codec_fault_rate);
  }
  report.Config("mix", mix_name);

  std::printf("Figure 3: thrasher on a %llu MB machine (RZ57-class disk, LZRW1, 4 KB pages)\n",
              static_cast<unsigned long long>(kUserMemory / kMiB));
  if (fault_rate > 0.0) {
    std::printf("fault injection: transient disk error rate %g per op\n", fault_rate);
  }
  if (codec_fault_rate > 0.0) {
    std::printf("fault injection: codec corruption rate %g per decompression\n",
                codec_fault_rate);
  }
  if (partner != MixPartner::kNone) {
    std::printf("mix: thrasher time-shared with %s (round-robin, 1 ms quantum)\n",
                mix_name.c_str());
  }
  std::printf("\n(a) average page access time (ms) and (b) speedup vs unmodified\n\n");
  std::printf("%8s %10s %10s %10s %10s %11s %11s %9s %6s\n", "size(MB)", "std_rw", "cc_rw",
              "std_ro", "cc_ro", "speedup_rw", "speedup_ro", "retries", "lost");

  // Fan the whole sweep (four machines per size) across the pool; the table is
  // formatted afterwards in sweep order, so stdout and JSON are byte-identical
  // to a single-threaded run.
  std::vector<std::function<RunResult()>> jobs;
  for (const uint64_t mb : sizes_mb) {
    const uint64_t bytes = mb * kMiB;
    // The last size's cc_rw machine contributes the metric snapshot: the most
    // memory-pressured configuration, so every subsystem has non-zero counters.
    const bool snapshot = mb == sizes_mb.back() && report.enabled();
    jobs.push_back([bytes, fault_rate, codec_fault_rate, partner] {
      return RunOne(bytes, false, true, fault_rate, codec_fault_rate, partner, false);
    });
    jobs.push_back([bytes, fault_rate, codec_fault_rate, partner, snapshot] {
      return RunOne(bytes, true, true, fault_rate, codec_fault_rate, partner, snapshot);
    });
    jobs.push_back([bytes, fault_rate, codec_fault_rate, partner] {
      return RunOne(bytes, false, false, fault_rate, codec_fault_rate, partner, false);
    });
    jobs.push_back([bytes, fault_rate, codec_fault_rate, partner] {
      return RunOne(bytes, true, false, fault_rate, codec_fault_rate, partner, false);
    });
  }
  const std::vector<RunResult> results = RunSweep(jobs, SweepThreadsFromArgs(argc, argv));

  std::string csv = "size_mb,std_rw_ms,cc_rw_ms,std_ro_ms,cc_ro_ms,retries,pages_lost\n";
  for (size_t s = 0; s < sizes_mb.size(); ++s) {
    const uint64_t mb = sizes_mb[s];
    const RunResult& std_rw = results[s * 4 + 0];
    const RunResult& cc_rw = results[s * 4 + 1];
    const RunResult& std_ro = results[s * 4 + 2];
    const RunResult& cc_ro = results[s * 4 + 3];
    if (!cc_rw.metrics.empty()) {
      report.MergeMetrics(cc_rw.metrics);
      report.MergeMetrics(cc_rw.mix_metrics);
    }
    const uint64_t retries = std_rw.disk_retries + cc_rw.disk_retries + std_ro.disk_retries +
                             cc_ro.disk_retries;
    const uint64_t lost =
        std_rw.pages_lost + cc_rw.pages_lost + std_ro.pages_lost + cc_ro.pages_lost;
    std::printf("%8llu %10.3f %10.3f %10.3f %10.3f %11.2f %11.2f %9llu %6llu\n",
                static_cast<unsigned long long>(mb), std_rw.avg_access_ms, cc_rw.avg_access_ms,
                std_ro.avg_access_ms, cc_ro.avg_access_ms,
                cc_rw.avg_access_ms > 0 ? std_rw.avg_access_ms / cc_rw.avg_access_ms : 0.0,
                cc_ro.avg_access_ms > 0 ? std_ro.avg_access_ms / cc_ro.avg_access_ms : 0.0,
                static_cast<unsigned long long>(retries), static_cast<unsigned long long>(lost));
    std::fflush(stdout);
    char line[200];
    std::snprintf(line, sizeof(line), "%llu,%.3f,%.3f,%.3f,%.3f,%llu,%llu\n",
                  static_cast<unsigned long long>(mb), std_rw.avg_access_ms,
                  cc_rw.avg_access_ms, std_ro.avg_access_ms, cc_ro.avg_access_ms,
                  static_cast<unsigned long long>(retries),
                  static_cast<unsigned long long>(lost));
    csv += line;
    report.AddRow()
        .Set("size_mb", mb)
        .Set("std_rw_ms", std_rw.avg_access_ms)
        .Set("cc_rw_ms", cc_rw.avg_access_ms)
        .Set("std_ro_ms", std_ro.avg_access_ms)
        .Set("cc_ro_ms", cc_ro.avg_access_ms)
        .Set("speedup_rw",
             cc_rw.avg_access_ms > 0 ? std_rw.avg_access_ms / cc_rw.avg_access_ms : 0.0)
        .Set("speedup_ro",
             cc_ro.avg_access_ms > 0 ? std_ro.avg_access_ms / cc_ro.avg_access_ms : 0.0)
        .Set("disk_retries", retries)
        .Set("pages_lost", lost);
  }

  std::printf("\nCSV:\n%s", csv.c_str());
  return report.WriteIfEnabled() ? 0 : 1;
}
