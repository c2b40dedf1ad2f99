// Real (host) wall-clock throughput of the simulator's hot paths.
//
// Unlike every other bench, which reports *virtual* time from the simulated
// clock, this one times the simulator itself with std::chrono::steady_clock.
// It exists to keep the hot-path optimizations honest: the zero-page fast
// path, the scratch-arena compress/decompress path, the O(1) eviction
// bookkeeping, and the parallel sweep runner all claim real-time wins, and
// this bench turns each claim into a number CI can check
// (bench/check_bench_json.py requires every wall_clock.* metric to be
// positive, zero_speedup_vs_codec and decode_speedup_vs_encode to beat 1, and
// us_per_fault_64mb to stay within 1.5x of us_per_fault_4mb).
//
// Reported metrics (all under "metrics" in the JSON report):
//   wall_clock.zero_pages_per_sec    CompressPage on all-zero pages
//   wall_clock.codec_pages_per_sec   CompressPage through the codec (text)
//   wall_clock.zero_speedup_vs_codec ratio of the two
//   wall_clock.decode_pages_per_sec  DecompressImage (the fault path's decode)
//                                    of the text page's compressed image
//   wall_clock.decode_speedup_vs_encode  decode over codec-path rate; the
//                                    paper's decompression-faster-than-
//                                    compression property
//   wall_clock.faults_per_sec        end-to-end thrashing faults serviced
//   wall_clock.us_per_fault_{4,16,64}mb  host time per fault of a thrasher at
//                                    2x the working set on a 4/16/64 MB
//                                    machine; flat when per-fault bookkeeping
//                                    does not grow with memory
//   wall_clock.sweep_speedup         parallel sweep vs the same sweep serial
//   wall_clock.sweep_threads         worker count the parallel sweep used
//   wall_clock.crc32c_mbps           Crc32 over one 4 KiB buffer, MiB/s, on
//                                    the path named by config.crc32c_path
//                                    ("sse4.2" or "table")
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/thrasher.h"
#include "bench_json.h"
#include "core/machine.h"
#include "sweep_runner.h"
#include "util/checksum.h"
#include "util/rng.h"

using namespace compcache;

namespace {

constexpr uint64_t kUserMemory = 4 * kMiB;

using WallClock = std::chrono::steady_clock;

double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

// Wall-clock rate of CompressPage over `iters` repetitions of one page image.
double CompressRate(Machine& machine, std::span<const uint8_t> page, int iters) {
  CompressionCache* cc = machine.ccache();
  // Warm up so one-time arena growth is not on the clock.
  for (int i = 0; i < 64; ++i) {
    ScratchArena::Scope scope(cc->arena());
    (void)cc->CompressPage(page);
  }
  const WallClock::time_point start = WallClock::now();
  for (int i = 0; i < iters; ++i) {
    ScratchArena::Scope scope(cc->arena());
    (void)cc->CompressPage(page);
  }
  return iters / SecondsSince(start);
}

// Wall-clock rate of DecompressImage, the fault path's decode, over `iters`
// repetitions of `page`'s compressed image. Returns 0 if the image does not
// decode, which the validator rejects.
double DecompressRate(Machine& machine, std::span<const uint8_t> page, int iters) {
  CompressionCache* cc = machine.ccache();
  std::vector<uint8_t> image;
  {
    ScratchArena::Scope scope(cc->arena());
    const CompressionCache::CompressOutcome outcome = cc->CompressPage(page);
    image.assign(outcome.bytes.begin(), outcome.bytes.end());
  }
  std::vector<uint8_t> out(page.size());
  for (int i = 0; i < 64; ++i) {
    if (!cc->DecompressImage(image, out)) {
      return 0;
    }
  }
  const WallClock::time_point start = WallClock::now();
  for (int i = 0; i < iters; ++i) {
    if (!cc->DecompressImage(image, out)) {
      return 0;
    }
  }
  return iters / SecondsSince(start);
}

// Wall-clock rate of Crc32 in MiB/s over one 4 KiB buffer, on whichever path
// this CPU takes. One byte changes per call, so no call can be hoisted.
double Crc32Mbps(int iters) {
  std::vector<uint8_t> buf(kPageSize);
  Rng rng(11);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Below(256));
  }
  uint32_t sink = 0;
  for (int i = 0; i < 1000; ++i) {
    sink ^= Crc32(buf);
  }
  const WallClock::time_point start = WallClock::now();
  for (int i = 0; i < iters; ++i) {
    buf[static_cast<size_t>(i) % buf.size()] ^= static_cast<uint8_t>(sink);
    sink ^= Crc32(buf);
  }
  const double seconds = SecondsSince(start);
  if (sink == 0) {
    std::printf("(unreachable sink)\n");
  }
  const double bytes = static_cast<double>(iters) * static_cast<double>(buf.size());
  return bytes / (1024.0 * 1024.0) / seconds;
}

// Host microseconds per fault of a read-write thrasher over twice `memory`,
// timed after the untimed init pass. Every machine size runs about the same
// number of measured faults (smaller machines make more passes), so the rows
// differ only in how much memory the bookkeeping has to cover.
double UsPerFault(uint64_t memory) {
  constexpr uint64_t kLargestMemory = 64 * kMiB;
  Machine machine(MachineConfig::WithCompressionCache(memory));
  ThrasherOptions options;
  options.address_space_bytes = 2 * memory;
  options.write = true;
  options.passes = static_cast<int>(kLargestMemory / memory);
  options.content = ContentClass::kSparseNumeric;
  Thrasher app(options);
  while (app.result().setup_time.nanos() == 0 && !app.Step(machine)) {
  }
  const uint64_t faults_before = machine.pager().stats().faults;
  const WallClock::time_point start = WallClock::now();
  while (!app.Step(machine)) {
  }
  const double seconds = SecondsSince(start);
  const uint64_t faults = machine.pager().stats().faults - faults_before;
  return seconds * 1e6 / static_cast<double>(faults);
}

// One small thrashing machine; the unit of the sweep-speedup measurement.
SimDuration SweepJob() {
  Machine machine(MachineConfig::WithCompressionCache(2 * kMiB));
  ThrasherOptions options;
  options.address_space_bytes = 4 * kMiB;
  options.write = true;
  options.passes = 1;
  options.content = ContentClass::kSparseNumeric;
  Thrasher app(options);
  app.Run(machine);
  return app.result().elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("perf_hotpath", argc, argv);
  report.Config("user_memory_mb", kUserMemory / kMiB);
  const char* const crc32c_path = Crc32HardwarePath() ? "sse4.2" : "table";
  report.Config("crc32c_path", std::string(crc32c_path));

  std::printf("perf_hotpath: host wall-clock throughput of the simulator hot paths\n\n");

  // --- compress-path throughput: zero fast path vs codec path ---
  Machine machine(MachineConfig::WithCompressionCache(kUserMemory));
  std::vector<uint8_t> zero_page(kPageSize, 0);
  std::vector<uint8_t> text_page(kPageSize);
  Rng rng(7);
  FillPage(text_page, ContentClass::kText, rng);

  constexpr int kZeroIters = 200'000;
  constexpr int kCodecIters = 50'000;
  const double zero_rate = CompressRate(machine, zero_page, kZeroIters);
  const double codec_rate = CompressRate(machine, text_page, kCodecIters);
  const double zero_speedup = zero_rate / codec_rate;
  const double decode_rate = DecompressRate(machine, text_page, kCodecIters);
  const double decode_speedup = decode_rate / codec_rate;
  std::printf("compress throughput (one 4 KB page, %s codec):\n",
              machine.config().codec.c_str());
  std::printf("  zero-page fast path: %12.0f pages/s\n", zero_rate);
  std::printf("  codec path (text):   %12.0f pages/s\n", codec_rate);
  std::printf("  zero-path speedup:   %12.2fx\n", zero_speedup);
  std::printf("  decode (text):       %12.0f pages/s\n", decode_rate);
  std::printf("  decode vs encode:    %12.2fx\n\n", decode_speedup);

  // --- payload verification: every ccache hit checks a CRC-32C first ---
  const double crc32c_mbps = Crc32Mbps(100'000);
  std::printf("CRC-32C (4 KiB buffer, %s path): %10.0f MiB/s\n\n", crc32c_path, crc32c_mbps);

  // --- end-to-end fault throughput under thrashing ---
  const WallClock::time_point fault_start = WallClock::now();
  Machine thrash_machine(MachineConfig::WithCompressionCache(kUserMemory));
  ThrasherOptions options;
  options.address_space_bytes = 2 * kUserMemory;
  options.write = true;
  options.passes = 2;
  options.content = ContentClass::kSparseNumeric;
  Thrasher app(options);
  app.Run(thrash_machine);
  const double fault_seconds = SecondsSince(fault_start);
  const uint64_t faults = thrash_machine.pager().stats().faults;
  const double faults_per_sec = static_cast<double>(faults) / fault_seconds;
  std::printf("end-to-end thrashing (8 MB rw working set, 4 MB machine):\n");
  std::printf("  %llu faults in %.2f s host time: %12.0f faults/s\n\n",
              static_cast<unsigned long long>(faults), fault_seconds, faults_per_sec);

  // --- per-fault host cost as memory grows ---
  const double us_per_fault_4mb = UsPerFault(4 * kMiB);
  const double us_per_fault_16mb = UsPerFault(16 * kMiB);
  const double us_per_fault_64mb = UsPerFault(64 * kMiB);
  std::printf("per-fault host cost (rw thrasher at 2x the working set):\n");
  std::printf("   4 MB machine: %8.1f us/fault\n", us_per_fault_4mb);
  std::printf("  16 MB machine: %8.1f us/fault\n", us_per_fault_16mb);
  std::printf("  64 MB machine: %8.1f us/fault\n", us_per_fault_64mb);
  std::printf("  64 MB / 4 MB:  %8.2fx\n\n", us_per_fault_64mb / us_per_fault_4mb);

  // --- parallel sweep speedup, byte-identical results required ---
  constexpr size_t kSweepJobs = 8;
  const std::vector<std::function<SimDuration()>> jobs(kSweepJobs, SweepJob);
  const WallClock::time_point serial_start = WallClock::now();
  const std::vector<SimDuration> serial = RunSweep(jobs, /*threads=*/1);
  const double serial_seconds = SecondsSince(serial_start);

  unsigned threads = SweepThreadsFromArgs(argc, argv);
  if (threads <= 1) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  const WallClock::time_point parallel_start = WallClock::now();
  const std::vector<SimDuration> parallel = RunSweep(jobs, threads);
  const double parallel_seconds = SecondsSince(parallel_start);

  bool identical = true;
  for (size_t i = 0; i < kSweepJobs; ++i) {
    identical = identical && serial[i].nanos() == parallel[i].nanos();
  }
  const double sweep_speedup = serial_seconds / parallel_seconds;
  std::printf("sweep runner (%zu thrashing machines, %u threads):\n", kSweepJobs, threads);
  std::printf("  serial:   %.2f s\n  parallel: %.2f s\n  speedup:  %.2fx\n  results: %s\n",
              serial_seconds, parallel_seconds, sweep_speedup,
              identical ? "byte-identical" : "MISMATCH");
  if (!identical) {
    std::fprintf(stderr, "perf_hotpath: parallel sweep results differ from serial\n");
    return 1;
  }

  report.AddRow()
      .Set("zero_pages_per_sec", zero_rate)
      .Set("codec_pages_per_sec", codec_rate)
      .Set("zero_speedup_vs_codec", zero_speedup)
      .Set("decode_pages_per_sec", decode_rate)
      .Set("decode_speedup_vs_encode", decode_speedup)
      .Set("faults_per_sec", faults_per_sec)
      .Set("us_per_fault_4mb", us_per_fault_4mb)
      .Set("us_per_fault_16mb", us_per_fault_16mb)
      .Set("us_per_fault_64mb", us_per_fault_64mb)
      .Set("sweep_speedup", sweep_speedup)
      .Set("sweep_threads", static_cast<uint64_t>(threads))
      .Set("crc32c_mbps", crc32c_mbps);
  const std::vector<std::pair<std::string, double>> wall = {
      {"wall_clock.zero_pages_per_sec", zero_rate},
      {"wall_clock.codec_pages_per_sec", codec_rate},
      {"wall_clock.zero_speedup_vs_codec", zero_speedup},
      {"wall_clock.decode_pages_per_sec", decode_rate},
      {"wall_clock.decode_speedup_vs_encode", decode_speedup},
      {"wall_clock.faults_per_sec", faults_per_sec},
      {"wall_clock.us_per_fault_4mb", us_per_fault_4mb},
      {"wall_clock.us_per_fault_16mb", us_per_fault_16mb},
      {"wall_clock.us_per_fault_64mb", us_per_fault_64mb},
      {"wall_clock.sweep_speedup", sweep_speedup},
      {"wall_clock.sweep_threads", static_cast<double>(threads)},
      {"wall_clock.crc32c_mbps", crc32c_mbps},
  };
  report.MergeMetrics(wall);
  report.MergeMetrics(thrash_machine.metrics(), "thrash.");
  return report.WriteIfEnabled() ? 0 : 1;
}
