// Host-time spans recorded by the benchmark around its own calls into the
// simulator (machine construction, population, App::Step, Scheduler quanta,
// drain, audit, snapshot, replays). Spans stay in memory and are written out
// as JSON lines when the traced run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    uint32_t name = 0;      // index into names_
    int32_t parent = -1;    // index of the enclosing span, -1 at top level
    uint32_t rep = 0;       // repetition the span belongs to
    int64_t start_ns = 0;   // steady_clock, relative to the log's creation
    int64_t end_ns = 0;
  };

  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  // Opens a span under the innermost open one and returns its index.
  size_t Open(std::string_view name) {
    spans_.push_back({Intern(name), open_.empty() ? -1 : static_cast<int32_t>(open_.back()),
                      rep_, Now(), 0});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  // Closes the innermost open span, which must be `index`.
  void Close(size_t index) {
    spans_[index].end_ns = Now();
    open_.pop_back();
  }

  void Rename(size_t index, std::string_view name) { spans_[index].name = Intern(name); }

  void set_rep(uint32_t rep) { rep_ = rep; }

  // Durations in seconds of every span of `rep` whose name is `name` or, when
  // `name` ends in '.', starts with it.
  std::vector<double> Durations(uint32_t rep, std::string_view name) const;

  // One JSON object per line: name, id, parent, rep, start_ns, end_ns.
  bool WriteJsonl(const std::string& path) const;

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  uint32_t Intern(std::string_view name);

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  std::vector<std::string> names_;
  uint32_t rep_ = 0;
};

// Opens a span for the lifetime of the scope; does nothing when `log` is null
// (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string_view name)
      : log_(log), index_(log != nullptr ? log->Open(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->Close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
