// Small helpers shared by the benchmark's load generator: clocks, a seeded
// generator, percentiles, a reader for kfs tables and a JSON writer.
#ifndef MLDS_PERFBENCH_UTIL_H_
#define MLDS_PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsSince(Clock::time_point start) {
  return MsBetween(start, Clock::now()) / 1000.0;
}

/// SplitMix64: every generated value is a pure function of the seed and
/// the value's coordinates, so two runs with one seed build identical
/// inputs and the checker can recompute any expected value.
uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b = 0);

/// A quarter-step value in [lo, hi): prints exactly under "%g".
double QuarterValue(uint64_t hash, int lo, int hi);

/// Sequential generator for choices that depend on run order.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Uniform() { return (Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
double Quantile(std::vector<double> values, double q);

/// The highest of p99/p95/p90/p75/p50 (at most `max_pct`) that has at
/// least ten samples beyond it.
struct Tail {
  double pct = 0;
  double value = 0;
  size_t samples = 0;
};
Tail TailOf(const std::vector<double>& values, double max_pct);

/// A kfs table read back from a result body: the header line, a rule
/// of '-', then one line per row, all of the rule's width.
struct Table {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  /// The cell of `column` in row `row`, or null when absent.
  const std::string* Cell(size_t row, std::string_view column) const;
};
Table ParseTable(std::string_view body);

/// Minimal ordered JSON object writer. Numbers keep every digit.
class Json {
 public:
  Json& Num(std::string_view key, double value);
  Json& Int(std::string_view key, int64_t value);
  Json& Str(std::string_view key, std::string_view value);
  Json& Bool(std::string_view key, bool value);
  Json& Obj(std::string_view key, const Json& value);
  Json& Raw(std::string_view key, std::string_view json);
  /// {"value": v, "unit": u}
  Json& Metric(std::string_view key, double value, std::string_view unit);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonString(std::string_view text);
std::string JsonNumber(double value);
std::string JsonArray(const std::vector<double>& values);

}  // namespace perfbench

#endif  // MLDS_PERFBENCH_UTIL_H_
