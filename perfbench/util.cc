#include "util.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace perfbench {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string_view TrimSpaces(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

std::vector<std::string> SplitCells(std::string_view line) {
  std::vector<std::string> cells;
  size_t start = 0;
  while (true) {
    const size_t bar = line.find(" | ", start);
    if (bar == std::string_view::npos) {
      cells.emplace_back(TrimSpaces(line.substr(start)));
      return cells;
    }
    cells.emplace_back(TrimSpaces(line.substr(start, bar - start)));
    start = bar + 3;
  }
}

}  // namespace

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  return SplitMix64(SplitMix64(SplitMix64(seed) ^ a) ^ b);
}

double QuarterValue(uint64_t hash, int lo, int hi) {
  const uint64_t steps = static_cast<uint64_t>(hi - lo) * 4;
  return lo + static_cast<double>(hash % steps) / 4.0;
}

uint64_t Rng::Next() {
  state_ = SplitMix64(state_);
  return state_;
}

Zipf::Zipf(size_t n, double s) {
  cdf_.resize(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * (values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

Tail TailOf(const std::vector<double>& values, double max_pct) {
  Tail tail;
  tail.samples = values.size();
  for (double pct : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (pct > max_pct) continue;
    if (values.size() * (100.0 - pct) / 100.0 >= 10.0 || pct == 50.0) {
      tail.pct = pct;
      tail.value = Quantile(values, pct / 100.0);
      return tail;
    }
  }
  return tail;
}

const std::string* Table::Cell(size_t row, std::string_view column) const {
  if (row >= rows.size()) return nullptr;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c] == column && c < rows[row].size()) return &rows[row][c];
  }
  return nullptr;
}

Table ParseTable(std::string_view body) {
  Table table;
  std::vector<std::string_view> lines;
  for (size_t start = 0; start < body.size();) {
    size_t end = body.find('\n', start);
    if (end == std::string_view::npos) end = body.size();
    lines.push_back(body.substr(start, end - start));
    start = end + 1;
  }
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    const std::string_view rule = lines[i + 1];
    if (rule.empty() || rule.find_first_not_of('-') != std::string_view::npos ||
        rule.size() != lines[i].size()) {
      continue;
    }
    table.columns = SplitCells(lines[i]);
    for (size_t r = i + 2; r < lines.size(); ++r) {
      if (lines[r].size() != rule.size()) break;
      std::vector<std::string> cells = SplitCells(lines[r]);
      if (cells.size() != table.columns.size()) break;
      table.rows.push_back(std::move(cells));
    }
    break;
  }
  return table;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

Json& Json::Num(std::string_view key, double value) {
  fields_.emplace_back(std::string(key), JsonNumber(value));
  return *this;
}
Json& Json::Int(std::string_view key, int64_t value) {
  fields_.emplace_back(std::string(key), std::to_string(value));
  return *this;
}
Json& Json::Str(std::string_view key, std::string_view value) {
  fields_.emplace_back(std::string(key), JsonString(value));
  return *this;
}
Json& Json::Bool(std::string_view key, bool value) {
  fields_.emplace_back(std::string(key), value ? "true" : "false");
  return *this;
}
Json& Json::Obj(std::string_view key, const Json& value) {
  fields_.emplace_back(std::string(key), value.str());
  return *this;
}
Json& Json::Raw(std::string_view key, std::string_view json) {
  fields_.emplace_back(std::string(key), std::string(json));
  return *this;
}
Json& Json::Metric(std::string_view key, double value, std::string_view unit) {
  return Obj(key, Json().Num("value", value).Str("unit", unit));
}

std::string Json::str() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(fields_[i].first);
    out += ": ";
    out += fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
