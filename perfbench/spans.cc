#include <cstdio>

#include "bench.h"

namespace strg::perfbench {

int64_t SpanLog::Add(std::string name, Clock::time_point start,
                     Clock::time_point end, int64_t parent, int64_t request) {
  if (!enabled_) return -1;
  Span s{std::move(name), (start - origin_).count(), (end - origin_).count(),
         parent, request};
  MutexLock lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int64_t>(spans_.size()) - 1;
}

size_t SpanLog::size() const {
  MutexLock lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  MutexLock lock(mu_);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"request\": %lld}",
                 i == 0 ? "" : ",\n", i, s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  std::fprintf(f, "\n]\n");
  return std::fclose(f) == 0;
}

}  // namespace strg::perfbench
