// Repository benchmark: runs one workload in this single-threaded process
// for a time budget and prints its metrics as one JSON object on the last
// line of standard output.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Every repetition builds a fresh machine from the seed (see workloads.h).
// --trace 0 times untraced repetitions and reports the end-to-end metrics.
// --trace 1 alternates untraced and traced repetitions, records host spans
// around the calls into the simulator, replays the workload's generators and
// codec, and reports every per-layer value plus the tracing overhead. In
// both modes every virtual-time result and registry value must agree bit for
// bit across all repetitions, traced or not; a difference means host state
// leaked into the simulation and fails the run.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "util/json.h"
#include "workloads.h"

namespace {

using perfbench::RepResult;
using perfbench::SpanLog;
using Steady = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      have_seconds = *value != '\0' && *end == '\0' && a.seconds > 0 && a.seconds <= 60;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      a.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (perfbench::FindWorkload(a.workload) == nullptr) {
    Usage("unknown or missing --workload");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds (0 < S <= 60) and --trace 0|1 are required");
  }
  return a;
}

// Timed numbers from a build or environment that distorts them are refused.
void GuardRunConditions() {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "perfbench: refusing to time an unoptimized build\n");
  std::exit(2);
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 &&
      std::strcmp(PERFBENCH_BUILD_TYPE, "RelWithDebInfo") != 0) {
    std::fprintf(stderr, "perfbench: refusing to time build type '%s'\n", PERFBENCH_BUILD_TYPE);
    std::exit(2);
  }
  if (const char* env = std::getenv("CC_AUDIT_INTERVAL"); env != nullptr && *env != '\0') {
    std::fprintf(stderr, "perfbench: refusing to time with CC_AUDIT_INTERVAL=%s set\n", env);
    std::exit(2);
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) {
    s += x;
  }
  return s;
}

double Get(const std::map<std::string, double>& m, const std::string& name) {
  const auto it = m.find(name);
  return it != m.end() ? it->second : 0.0;
}

// The mean of the middle half of `v`: robust to a few values far out, and
// smoother than the median when the values sit on a few discrete levels.
double InterquartileMean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4;
  const size_t hi = v.size() - v.size() / 4;
  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) {
    sum += v[i];
  }
  return hi > lo ? sum / static_cast<double>(hi - lo) : 0.0;
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Appends one failure per value that differs from the first repetition's.
void CompareVirtual(const RepResult& base, const RepResult& rep, size_t index,
                    std::vector<std::string>& failures) {
  std::vector<std::string> diffs;
  for (const auto& [name, value] : base.virt) {
    const auto it = rep.virt.find(name);
    if (it == rep.virt.end()) {
      diffs.push_back(name + " missing");
    } else if (std::bit_cast<uint64_t>(it->second) != std::bit_cast<uint64_t>(value)) {
      diffs.push_back(name + " " + Num(value) + " -> " + Num(it->second));
    }
  }
  for (const auto& [name, value] : rep.virt) {
    if (!base.virt.contains(name)) {
      diffs.push_back(name + " added");
    }
  }
  for (const std::string& d : diffs) {
    failures.push_back("nondeterministic in repetition " + std::to_string(index) + ": " + d);
  }
}

void AppendObject(std::string& out, const std::map<std::string, double>& m) {
  out += '{';
  bool first = true;
  for (const auto& [name, value] : m) {
    out += first ? "" : ",";
    first = false;
    out += '"' + compcache::JsonWriter::Escape(name) + "\":" + Num(value);
  }
  out += '}';
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  GuardRunConditions();
  const perfbench::Workload& workload = *perfbench::FindWorkload(args.workload);

  // Untraced runs cycle through the workload's instances until the time is
  // up, running the first instance at least twice and taking at least three
  // repetitions for a median. Traced runs alternate untraced and traced
  // repetitions of the first instance.
  const int instances = args.trace ? 1 : workload.instances;
  const size_t min_reps = std::max<size_t>(args.trace ? 2 : 3, instances + 1);
  SpanLog spans;
  std::vector<RepResult> reps;
  std::vector<bool> traced;
  const auto start = Steady::now();
  for (uint32_t i = 0;; ++i) {
    const bool t = args.trace && i % 2 == 1;
    spans.set_rep(i);
    const uint64_t seed = perfbench::InstanceSeed(args.seed, static_cast<int>(i % instances));
    reps.push_back(workload.run(seed, t ? &spans : nullptr));
    traced.push_back(t);
    std::fprintf(stderr, "perfbench: repetition %u seed %llu%s: setup %.6f s, measured %.6f s\n", i,
                 static_cast<unsigned long long>(seed), t ? " traced" : "",
                 reps.back().setup_host_s, reps.back().measure_host_s);
    if (!t && reps.back().machine_traced) {
      std::fprintf(stderr, "perfbench: refusing: trace_capacity > 0 in an untraced repetition\n");
      return 2;
    }
    const double elapsed = std::chrono::duration<double>(Steady::now() - start).count();
    if (reps.size() >= min_reps && elapsed >= args.seconds) {
      break;
    }
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  for (size_t i = 0; i < reps.size(); ++i) {
    attempted += reps[i].attempted;
    failed += reps[i].failed;
    for (const std::string& f : reps[i].failures) {
      failures.push_back("repetition " + std::to_string(i) + ": " + f);
    }
    const size_t before = failures.size();
    CompareVirtual(reps[i % instances], reps[i], i, failures);
    failed += failures.size() - before;
  }
  const std::map<std::string, double>& virt = reps[0].virt;

  std::vector<double> setup_s;
  std::vector<double> untraced_measure_s;
  std::vector<double> traced_measure_s;
  std::vector<double> accesses_per_s;
  for (size_t i = 0; i < reps.size(); ++i) {
    setup_s.push_back(reps[i].setup_host_s);
    (traced[i] ? traced_measure_s : untraced_measure_s).push_back(reps[i].measure_host_s);
    if (!traced[i]) {
      accesses_per_s.push_back(Get(reps[i].virt, "vm.accesses") / reps[i].measure_host_s);
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  double req_samples = 0.0;
  for (int j = 0; j < instances; ++j) {
    req_samples += Get(reps[j].virt, "req.samples");
  }
  std::map<std::string, double> metrics;
  if (!args.trace) {
    metrics["accesses_per_host_s"] = Median(accesses_per_s);
    metrics["setup_s"] = Median(setup_s);
    metrics["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
    // Virtual results are the interquartile mean over instances, so one
    // instance whose tail sits far out (a burst of disk reads queued behind
    // each other) does not move the run's result.
    for (const char* name : {"virt_s", "req_mean_ms", "req_p99_ms", "req_p999_ms"}) {
      std::vector<double> values;
      for (int j = 0; j < instances; ++j) {
        values.push_back(Get(reps[j].virt, name));
      }
      metrics[name] = InterquartileMean(values);
    }
  } else {
    metrics = virt;
    const double faults = Get(virt, "vm.faults");
    metrics["ccache.hit_share"] =
        Ratio(Get(virt, "vm.faults_from_ccache"), faults - Get(virt, "vm.faults_zero_fill"));
    metrics["prefetch.hit_share"] = Ratio(Get(virt, "prefetch.hits"), Get(virt, "prefetch.issued"));
    metrics["bcache.hit_share"] =
        Ratio(Get(virt, "bcache.hits"), Get(virt, "bcache.hits") + Get(virt, "bcache.misses"));
    metrics["slo_miss_pct"] = 100.0 * Ratio(Get(virt, "slo.misses"), Get(virt, "req.samples"));

    // Host time per layer, from the spans of the traced repetitions.
    std::vector<double> drain_s, audit_s, snapshot_s, steps_s;
    for (uint32_t i = 0; i < reps.size(); ++i) {
      if (traced[i]) {
        drain_s.push_back(Sum(spans.Durations(i, "drain")));
        audit_s.push_back(Sum(spans.Durations(i, "audit")));
        snapshot_s.push_back(Sum(spans.Durations(i, "snapshot")));
        for (const char* prefix : {"step.", "quantum."}) {
          const std::vector<double> d = spans.Durations(i, prefix);
          steps_s.insert(steps_s.end(), d.begin(), d.end());
        }
      }
    }
    const double traced_measure = Median(traced_measure_s);
    const double untraced_measure = Median(untraced_measure_s);
    metrics["host.us_per_fault"] = Ratio(untraced_measure * 1e6, faults);
    metrics["host.drain_s"] = Median(drain_s);
    metrics["host.audit_s"] = Median(audit_s);
    metrics["host.snapshot_s"] = Median(snapshot_s);
    metrics["host.step_us.p50"] = perfbench::SamplePercentile(steps_s, 50) * 1e6;
    metrics["host.step_us.p99"] = perfbench::SamplePercentile(steps_s, 99) * 1e6;
    metrics["trace.overhead_pct"] = 100.0 * Ratio(traced_measure - untraced_measure, untraced_measure);

    // Replays of the first instance's generator calls and of its codec.
    const uint64_t seed = perfbench::InstanceSeed(args.seed, 0);
    spans.set_rep(static_cast<uint32_t>(reps.size()));
    perfbench::GeneratorReplay gen;
    {
      perfbench::ScopedSpan span(&spans, "replay.gen");
      gen = workload.replay_generators(seed);
    }
    metrics["apps.gen_replay_s"] = gen.setup_s + gen.measure_s;
    metrics["apps.gen_host_share"] = Ratio(gen.measure_s, untraced_measure);
    metrics["apps.gen_setup_share"] = Ratio(gen.setup_s, Median(setup_s));
    perfbench::CodecReplay codec;
    {
      perfbench::ScopedSpan span(&spans, "replay.codec");
      codec = perfbench::ReplayCodec(workload.content, seed);
    }
    metrics["compress.replay_ns_per_page"] = codec.compress_ns_per_page;
    metrics["decompress.replay_ns_per_page"] = codec.decompress_ns_per_page;
    if (!codec.round_trip_ok) {
      ++failed;
      failures.push_back("codec replay: a page did not round-trip");
    }
    if (!args.spans_path.empty() && !spans.WriteJsonl(args.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.spans_path.c_str());
      return 1;
    }
  }

  std::string out = "{\"workload\":\"" + args.workload + "\",\"seed\":" +
                    std::to_string(args.seed) + ",\"trace\":" + (args.trace ? "1" : "0") +
                    ",\"reps\":" + std::to_string(reps.size()) +
                    ",\"req_samples\":" + Num(req_samples) +
                    ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                    ",\"compiler\":\"" + compcache::JsonWriter::Escape(PERFBENCH_COMPILER) +
                    "\",\"build_type\":\"" + PERFBENCH_BUILD_TYPE +
                    "\",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"failures\":[";
  for (size_t i = 0; i < failures.size(); ++i) {
    out += (i > 0 ? ",\"" : "\"") + compcache::JsonWriter::Escape(failures[i]) + "\"";
  }
  out += "],\"metrics\":";
  AppendObject(out, metrics);
  out += ",\"virtual\":{";
  for (int j = 0; j < instances; ++j) {
    out += (j > 0 ? ",\"" : "\"") +
           std::to_string(perfbench::InstanceSeed(args.seed, j)) + "\":";
    AppendObject(out, reps[j].virt);
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  return failed == 0 ? 0 : 1;
}
