// The benchmark workloads. One repetition builds a fresh machine from the
// seed, populates it, runs the measured phase through App::Step or
// Scheduler::RunQuantum, then drains, audits and snapshots the machine. Host
// time is taken around those calls only; virtual time and every count come
// from the machine's Clock and MetricRegistry.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "compress/pagegen.h"
#include "spans.h"

namespace perfbench {

struct RepResult {
  double setup_host_s = 0.0;    // machine construction + population
  double measure_host_s = 0.0;  // the measured phase
  // Deterministic outputs: virtual-time results, app outputs and every value
  // of the machine's metric registry over the measured phase. Two repetitions
  // with the same seed must agree bit for bit.
  std::map<std::string, double> virt;
  bool machine_traced = false;  // the machine's event tracer was on
  uint64_t attempted = 0;       // operations the workload issued
  uint64_t failed = 0;          // failed operations and failed checks
  std::vector<std::string> failures;
};

// Host time of the workload's generator calls, replayed outside the machine
// with the run's seed, split by the phase that makes them.
struct GeneratorReplay {
  double setup_s = 0.0;
  double measure_s = 0.0;
};

struct Workload {
  std::string_view name;
  // Independent instances per run. Instance j of run seed n draws its inputs
  // from InstanceSeed(n, j); the run reports the interquartile mean of their
  // virtual-time results, so a result does not hinge on one draw of key
  // layout or arrivals.
  int instances;
  // Dominant page content, for replaying the configured codec.
  compcache::ContentClass content;
  // `spans` is null in the untraced run.
  RepResult (*run)(uint64_t seed, SpanLog* spans);
  GeneratorReplay (*replay_generators)(uint64_t seed);
};

inline uint64_t InstanceSeed(uint64_t seed, int instance) {
  return seed * 1000 + static_cast<uint64_t>(instance);
}

// Null when `name` is not a workload.
const Workload* FindWorkload(std::string_view name);

// Percentile p in [0, 100] of `v`, interpolated linearly between the two
// nearest ranks, so it always lies between two of the samples. 0 when empty.
double SamplePercentile(std::vector<double> v, double p);

// Host nanoseconds per page to compress and to decompress pages of `content`
// with the machines' codec (LZRW1, 12-bit hash), pages drawn from `seed`.
struct CodecReplay {
  double compress_ns_per_page = 0.0;
  double decompress_ns_per_page = 0.0;
  bool round_trip_ok = true;
};
CodecReplay ReplayCodec(compcache::ContentClass content, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
