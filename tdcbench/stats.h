// Summary statistics and the result printer of the end-to-end benchmark.
//
// A timing is reported as its median and its tail: the highest named
// percentile (p90, p99, p99.9) that has at least kMinBeyond samples beyond
// it. A percentile backed by fewer samples than that is no tail, so
// tail_percentile() refuses to produce it instead of reporting a number
// that one stray sample decides.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tdcbench {

/// Samples a reported percentile must have strictly above it.
inline constexpr std::int64_t kMinBeyond = 10;

/// Median (mean of the two middle values for an even count). Requires a
/// non-empty sample.
double median(std::vector<double> xs);

/// Nearest-rank percentile: the ceil(p·n)-th smallest sample, p in (0, 1).
/// Requires a non-empty sample.
double percentile(std::vector<double> xs, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::int64_t samples_beyond(std::int64_t n, double p);

/// The p-th percentile when at least kMinBeyond samples lie beyond it;
/// throws std::runtime_error otherwise.
double tail_percentile(const std::vector<double>& xs, double p);

/// Median plus the highest supported named percentile, with sample count.
struct Summary {
  std::int64_t n = 0;
  double p50 = 0.0;
  double tail_p = 0.0;  ///< 0 when no named percentile is supported
  double tail = 0.0;
};
Summary summarize(const std::vector<double>& xs);

/// Named metrics in insertion order, printed as the benchmark's result.
class Metrics {
 public:
  /// Adds one metric; throws on a duplicate name or a non-finite value
  /// (JSON has no spelling for NaN or infinity).
  void add(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  friend std::string result_line(bool, std::int64_t, std::int64_t,
                                 const Metrics&);
  std::vector<Item> items_;
};

/// The one-line JSON result:
/// {"correct": true, "attempted": N, "failed": F, "metrics": {name:
/// {"value": v, "unit": u}, ...}}
std::string result_line(bool correct, std::int64_t attempted,
                        std::int64_t failed, const Metrics& metrics);

/// Checks the helpers above on known vectors; returns the failures (empty
/// when all hold).
std::vector<std::string> self_check();

}  // namespace tdcbench
