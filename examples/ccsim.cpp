// ccsim — command-line driver for the compression-cache simulator.
//
// Run any workload on any machine configuration and get the full stats report:
//
//   ./examples/ccsim --workload=thrasher --memory-mb=6 --space-mb=12 --ccache
//   ./examples/ccsim --workload=sort-random --memory-mb=8 --no-ccache
//   ./examples/ccsim --workload=gold --memory-mb=8 --codec=wk --bias-s=30
//   ./examples/ccsim --workload=compare --backing=wireless --compress-file-cache
//
// Flags (defaults in brackets):
//   --workload=NAME        thrasher | thrasher-ro | compare | isca | sort-random |
//                          sort-partial | gold  [thrasher]
//   --memory-mb=N          user memory [8]
//   --space-mb=N           thrasher address space [1.5x memory]
//   --ccache / --no-ccache compression cache on/off [on]
//   --codec=NAME           lzrw1 | lzrw1a | rle | wk | store | bdi | fpc | dict |
//                          zero | adaptive (per-page picker) [lzrw1]
//   --threshold=N:D        keep-compressed threshold [4:3]
//   --bias-s=N             compression-cache age bias, seconds [10]
//   --swap=KIND            clustered | fixed | lfs [clustered]
//   --backing=KIND         disk | wireless [disk]
//   --compress-file-cache  compressed file buffer cache [off]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "apps/compare.h"
#include "apps/gold.h"
#include "apps/isca.h"
#include "apps/sort.h"
#include "apps/thrasher.h"
#include "core/machine.h"

using namespace compcache;

namespace {

struct CliOptions {
  std::string workload = "thrasher";
  uint64_t memory_mb = 8;
  uint64_t space_mb = 0;  // 0 = 1.5x memory
  bool use_ccache = true;
  std::string codec = "lzrw1";
  uint32_t threshold_num = 4;
  uint32_t threshold_den = 3;
  double bias_s = 10;
  std::string swap = "clustered";
  std::string backing = "disk";
  bool compress_file_cache = false;
};

bool StartsWith(const char* arg, const char* prefix, const char** value) {
  const size_t len = std::strlen(prefix);
  if (std::strncmp(arg, prefix, len) == 0) {
    *value = arg + len;
    return true;
  }
  return false;
}

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "ccsim: %s (see the header comment in examples/ccsim.cpp)\n", msg);
  std::exit(2);
}

CliOptions Parse(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (StartsWith(arg, "--workload=", &value)) {
      options.workload = value;
    } else if (StartsWith(arg, "--memory-mb=", &value)) {
      options.memory_mb = std::strtoull(value, nullptr, 10);
    } else if (StartsWith(arg, "--space-mb=", &value)) {
      options.space_mb = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(arg, "--ccache") == 0) {
      options.use_ccache = true;
    } else if (std::strcmp(arg, "--no-ccache") == 0) {
      options.use_ccache = false;
    } else if (StartsWith(arg, "--codec=", &value)) {
      options.codec = value;
    } else if (StartsWith(arg, "--threshold=", &value)) {
      if (std::sscanf(value, "%u:%u", &options.threshold_num, &options.threshold_den) != 2) {
        Usage("bad --threshold, expected N:D");
      }
    } else if (StartsWith(arg, "--bias-s=", &value)) {
      options.bias_s = std::strtod(value, nullptr);
    } else if (StartsWith(arg, "--swap=", &value)) {
      options.swap = value;
    } else if (StartsWith(arg, "--backing=", &value)) {
      options.backing = value;
    } else if (std::strcmp(arg, "--compress-file-cache") == 0) {
      options.compress_file_cache = true;
    } else {
      Usage((std::string("unknown flag ") + arg).c_str());
    }
  }
  if (options.memory_mb < 1) {
    Usage("--memory-mb must be >= 1");
  }
  return options;
}

MachineConfig ToConfig(const CliOptions& options) {
  MachineConfig config = options.use_ccache
                             ? MachineConfig::WithCompressionCache(options.memory_mb * kMiB)
                             : MachineConfig::Unmodified(options.memory_mb * kMiB);
  config.codec = options.codec;
  config.threshold = CompressionThreshold(options.threshold_num, options.threshold_den);
  config.biases.ccache = SimDuration::Seconds(options.bias_s);
  if (options.swap == "fixed") {
    config.compressed_swap = CompressedSwapKind::kFixedOffset;
  } else if (options.swap == "lfs") {
    config.compressed_swap = CompressedSwapKind::kLfs;
  } else if (options.swap != "clustered") {
    Usage("bad --swap");
  }
  if (options.backing == "wireless") {
    config.backing = BackingKind::kNetworkLink;
  } else if (options.backing != "disk") {
    Usage("bad --backing");
  }
  config.compress_file_cache = options.compress_file_cache;
  return config;
}

SimDuration RunWorkload(Machine& machine, const CliOptions& options) {
  const uint64_t space_mb =
      options.space_mb != 0 ? options.space_mb : options.memory_mb * 3 / 2;
  const SimTime start = machine.clock().Now();
  if (options.workload == "thrasher" || options.workload == "thrasher-ro") {
    ThrasherOptions thrash;
    thrash.address_space_bytes = space_mb * kMiB;
    thrash.write = options.workload == "thrasher";
    Thrasher app(thrash);
    app.Run(machine);
    std::printf("thrasher: %.3f ms per page access (measured passes)\n",
                app.result().AvgAccessMillis());
  } else if (options.workload == "compare") {
    CompareOptions compare;
    compare.rows = static_cast<size_t>(space_mb * 4) * 1024;
    compare.band_width = 256;
    Compare app(compare);
    app.Run(machine);
    std::printf("compare: edit distance %lld over %llu cells\n",
                static_cast<long long>(app.result().edit_distance),
                static_cast<unsigned long long>(app.result().cells_computed));
  } else if (options.workload == "isca") {
    IscaOptions isca;
    isca.simulated_blocks = space_mb * kMiB * 10 / 80;  // ~10/8 of space in entries
    isca.references = 400'000;
    IscaCacheSim app(isca);
    app.Run(machine);
    std::printf("isca: %llu hits / %llu misses\n",
                static_cast<unsigned long long>(app.result().cache_hits),
                static_cast<unsigned long long>(app.result().cache_misses));
  } else if (options.workload == "sort-random" || options.workload == "sort-partial") {
    SortOptions sort;
    sort.variant = options.workload == "sort-random" ? SortVariant::kRandom
                                                     : SortVariant::kPartial;
    sort.text_bytes = space_mb * kMiB * 3 / 5;
    TextSort app(sort);
    app.Run(machine);
    std::printf("sort: %llu words, sorted=%s\n",
                static_cast<unsigned long long>(app.result().words),
                app.result().verified_sorted ? "yes" : "NO");
  } else if (options.workload == "gold") {
    GoldOptions gold;
    gold.num_messages = space_mb * 512;
    gold.postings_bytes = space_mb * kMiB;
    const GoldRunResult result = RunGoldBenchmarks(machine, gold);
    std::printf("gold: create %s, cold %s, warm %s\n",
                result.create.elapsed.ToMinSec().c_str(),
                result.cold.elapsed.ToMinSec().c_str(),
                result.warm.elapsed.ToMinSec().c_str());
  } else {
    Usage("unknown --workload");
  }
  return machine.clock().Now() - start;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions options = Parse(argc, argv);
  Machine machine(ToConfig(options));
  const SimDuration elapsed = RunWorkload(machine, options);
  std::printf("\nvirtual time: %s (%.3f s)\n\n%s", elapsed.ToMinSec().c_str(),
              elapsed.seconds(), machine.Report().c_str());
  return 0;
}
