#include "spans.h"

#include <cstdio>

namespace perfbench {

uint32_t SpanLog::Intern(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<uint32_t>(i);
    }
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

std::vector<double> SpanLog::Durations(uint32_t rep, std::string_view name) const {
  const bool prefix = !name.empty() && name.back() == '.';
  std::vector<double> out;
  for (const Span& s : spans_) {
    const std::string& n = names_[s.name];
    if (s.rep == rep && (prefix ? n.starts_with(name) : n == name)) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%d,\"rep\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 i, s.parent, s.rep, names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
