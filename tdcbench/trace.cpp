#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

namespace tdcbench {

namespace {

thread_local std::int64_t tl_open_span = -1;

std::int64_t thread_index() {
  static std::atomic<std::int64_t> next{0};
  thread_local const std::int64_t id = next.fetch_add(1);
  return id;
}

}  // namespace

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer.enabled_ ? &tracer : nullptr), name_(name) {
  if (tracer_ == nullptr) {
    return;
  }
  parent_ = tl_open_span;
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    id_ = static_cast<std::int64_t>(tracer_->spans_.size());
    tracer_->spans_.push_back({name_, parent_, thread_index(), 0.0, 0.0});
  }
  tl_open_span = id_;
  start_ = std::chrono::steady_clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) {
    return;
  }
  const auto end = std::chrono::steady_clock::now();
  const auto us = [&](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - tracer_->origin_)
        .count();
  };
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  Span& s = tracer_->spans_[static_cast<std::size_t>(id_)];
  s.start_us = us(start_);
  s.end_us = us(end);
  tl_open_span = parent_;
}

std::int64_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(spans_.size());
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"tdcbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %lld}}",
                 i == 0 ? "" : ",\n", s.name, static_cast<long long>(s.tid),
                 s.start_us, s.end_us - s.start_us, i,
                 static_cast<long long>(s.parent));
  }
  std::fprintf(f, "\n], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(f) == 0;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                                s.end_us);
    }
  }
  std::map<std::string, double> self_s;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start_us;  // end of the union covered so far
    for (const auto& [b, e] : kids) {
      const double lo = std::max(b, reach);
      const double hi = std::min(e, s.end_us);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    const std::string name(s.name);
    self_s[name.substr(0, name.find('.'))] +=
        (s.end_us - s.start_us - covered) * 1e-6;
  }
  return self_s;
}

}  // namespace tdcbench
