// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around each call into a
// library layer (name "<layer>.<what>", e.g. "exec.op.conv"), kept in
// memory with their parent span, and written once at the end in Chrome
// trace-event JSON (chrome://tracing, Perfetto). A layer's self time is
// the duration of its spans minus the part covered by their child spans.
// A disabled tracer records nothing and its scopes cost one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace tdcbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Records one span from construction to destruction; the innermost open
  /// scope of the same thread is its parent.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t id_ = -1;
    std::int64_t parent_ = -1;
    const char* name_;
    std::chrono::steady_clock::time_point start_;
  };

  std::int64_t span_count() const;

  /// Writes every span as a Chrome "X" (complete) event; returns false when
  /// the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

  /// Self time per layer (the span-name prefix before the first '.'), in
  /// seconds.
  std::map<std::string, double> self_seconds_by_layer() const;

 private:
  struct Span {
    const char* name;
    std::int64_t parent;
    std::int64_t tid;
    double start_us;
    double end_us;
  };

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace tdcbench
