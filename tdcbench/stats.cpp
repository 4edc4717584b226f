#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace tdcbench {

namespace {

std::size_t nearest_rank_index(std::size_t n, double p) {
  // The epsilon keeps p·n that should be whole (0.9·100) from rounding up
  // past its rank.
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return std::min(idx, n - 1);
}

bool valid_token(const std::string& s, const char* extra) {
  if (s.empty() || s.size() > 64) {
    return false;
  }
  for (const char ch : s) {
    const bool alnum = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                       (ch >= '0' && ch <= '9');
    if (!alnum && std::string(extra).find(ch) == std::string::npos) {
      return false;
    }
  }
  return true;
}

std::string format_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

double median(std::vector<double> xs) {
  if (xs.empty()) {
    throw std::runtime_error("median of an empty sample");
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) {
    throw std::runtime_error("percentile of an empty sample");
  }
  std::sort(xs.begin(), xs.end());
  return xs[nearest_rank_index(xs.size(), p)];
}

std::int64_t samples_beyond(std::int64_t n, double p) {
  if (n <= 0) {
    return 0;
  }
  return n - 1 -
         static_cast<std::int64_t>(
             nearest_rank_index(static_cast<std::size_t>(n), p));
}

double tail_percentile(const std::vector<double>& xs, double p) {
  const std::int64_t n = static_cast<std::int64_t>(xs.size());
  if (samples_beyond(n, p) < kMinBeyond) {
    throw std::runtime_error(
        "percentile " + format_number(p * 100.0) + " of " + std::to_string(n) +
        " samples has fewer than " + std::to_string(kMinBeyond) +
        " samples beyond it");
  }
  return percentile(xs, p);
}

Summary summarize(const std::vector<double>& xs) {
  Summary s;
  s.n = static_cast<std::int64_t>(xs.size());
  s.p50 = median(xs);
  for (const double p : {0.9, 0.99, 0.999}) {
    if (samples_beyond(s.n, p) >= kMinBeyond) {
      s.tail_p = p;
      s.tail = percentile(xs, p);
    }
  }
  return s;
}

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  if (!valid_token(name, "_.-")) {
    throw std::runtime_error("invalid metric name '" + name + "'");
  }
  if (!valid_token(unit, "_/%.-") || unit.size() > 16) {
    throw std::runtime_error("invalid unit '" + unit + "' of " + name);
  }
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  if (has(name)) {
    throw std::runtime_error("metric " + name + " reported twice");
  }
  items_.push_back({name, value, unit});
}

bool Metrics::has(const std::string& name) const {
  return std::any_of(items_.begin(), items_.end(),
                     [&](const Item& i) { return i.name == name; });
}

std::string result_line(bool correct, std::int64_t attempted,
                        std::int64_t failed, const Metrics& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const Metrics::Item& i : metrics.items_) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + i.name + "\": {\"value\": " + format_number(i.value) +
           ", \"unit\": \"" + i.unit + "\"}";
  }
  return out + "}}";
}

std::vector<std::string> self_check() {
  std::vector<std::string> failures;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  };

  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd sample");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even sample");

  // 1..100: the nearest-rank p90 is the 90th value and 10 samples lie
  // beyond it; p99 is the 99th value with only 1 beyond.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(static_cast<double>(101 - i));  // unsorted on purpose
  }
  expect(percentile(hundred, 0.9) == 90.0, "nearest-rank p90 of 1..100");
  expect(percentile(hundred, 0.5) == 50.0, "nearest-rank p50 of 1..100");
  expect(samples_beyond(100, 0.9) == 10, "10 samples beyond p90 of 100");
  expect(samples_beyond(100, 0.99) == 1, "1 sample beyond p99 of 100");
  expect(samples_beyond(1000, 0.99) == 10, "10 samples beyond p99 of 1000");
  expect(samples_beyond(99, 0.9) == 9, "9 samples beyond p90 of 99");
  expect(tail_percentile(hundred, 0.9) == 90.0, "p90 of 100 is reportable");
  bool refused = false;
  try {
    (void)tail_percentile(hundred, 0.99);
  } catch (const std::runtime_error&) {
    refused = true;
  }
  expect(refused, "p99 of 100 samples must be refused");

  const Summary s = summarize(hundred);
  expect(s.n == 100 && s.p50 == 50.5 && s.tail_p == 0.9 && s.tail == 90.0,
         "summary of 1..100 is median 50.5, tail p90 = 90");
  const Summary small = summarize({5.0, 1.0});
  expect(small.tail_p == 0.0 && small.p50 == 3.0,
         "a two-sample summary has a median and no tail");

  Metrics m;
  m.add("latency_ms", 1.2034, "ms");
  m.add("setup_s", 0.8127, "s");
  expect(result_line(true, 1000, 0, m) ==
             "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
             "\"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": "
             "\"ms\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}",
         "result line of a known metric set");
  bool rejected_nan = false;
  try {
    m.add("bad", std::nan(""), "ms");
  } catch (const std::runtime_error&) {
    rejected_nan = true;
  }
  expect(rejected_nan, "a NaN metric must be rejected");
  bool rejected_dup = false;
  try {
    m.add("setup_s", 1.0, "s");
  } catch (const std::runtime_error&) {
    rejected_dup = true;
  }
  expect(rejected_dup, "a duplicate metric must be rejected");
  return failures;
}

}  // namespace tdcbench
