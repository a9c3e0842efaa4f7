#include "abdm/value.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <functional>

#include "common/strings.h"

namespace mlds::abdm {

std::string_view ValueKindToString(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kInteger:
      return "integer";
    case ValueKind::kFloat:
      return "float";
    case ValueKind::kString:
      return "string";
  }
  return "unknown";
}

Value Value::Parse(std::string_view text) {
  std::string_view s = Trim(text);
  if (s.empty()) return Value::String("");
  if (s.size() >= 2 && (s.front() == '\'' || s.front() == '"') &&
      s.back() == s.front()) {
    // Collapse doubled quotes of the delimiter kind: the inverse of
    // ToString's escaping, so quoted text round-trips.
    const char quote = s.front();
    std::string_view body = s.substr(1, s.size() - 2);
    std::string text;
    text.reserve(body.size());
    for (size_t i = 0; i < body.size(); ++i) {
      text.push_back(body[i]);
      if (body[i] == quote && i + 1 < body.size() && body[i + 1] == quote) {
        ++i;
      }
    }
    return Value::String(std::move(text));
  }
  if (EqualsIgnoreCase(s, "NULL")) return Value::Null();

  // Try integer.
  {
    int64_t v = 0;
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec == std::errc() && ptr == s.data() + s.size()) {
      return Value::Integer(v);
    }
  }
  // Try float.
  {
    double v = 0.0;
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec == std::errc() && ptr == s.data() + s.size()) {
      return Value::Float(v);
    }
  }
  return Value::String(std::string(s));
}

int Value::Compare(const Value& other) const {
  const bool a_null = is_null();
  const bool b_null = other.is_null();
  if (a_null || b_null) {
    if (a_null && b_null) return 0;
    return a_null ? -1 : 1;
  }
  if (is_numeric() && other.is_numeric()) {
    const double a = AsFloat();
    const double b = other.AsFloat();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (is_string() && other.is_string()) {
    return AsString().compare(other.AsString()) < 0
               ? -1
               : (AsString() == other.AsString() ? 0 : 1);
  }
  // Mixed string/numeric: numeric sorts first.
  return is_numeric() ? -1 : 1;
}

size_t Value::Hash() const {
  if (is_numeric()) return std::hash<double>{}(AsFloat());
  return is_string() ? std::hash<std::string>{}(AsString()) : 0;
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(out);
  return out;
}

void Value::AppendTo(std::string& out) const {
  switch (kind()) {
    case ValueKind::kNull:
      out += "NULL";
      return;
    case ValueKind::kInteger: {
      char buf[24];
      auto [ptr, ec] =
          std::to_chars(buf, buf + sizeof(buf), std::get<int64_t>(rep_));
      out.append(buf, ptr);
      return;
    }
    case ValueKind::kFloat: {
      char buf[64];
      const int n = std::snprintf(buf, sizeof(buf), "%g",
                                  std::get<double>(rep_));
      out.append(buf, buf + n);
      return;
    }
    case ValueKind::kString: {
      // Escape embedded quotes by doubling them (the SQL convention), so
      // printed values parse back losslessly — snapshot and WAL entries
      // are replayed through the parser and must round-trip.
      const std::string& text = std::get<std::string>(rep_);
      out.push_back('\'');
      for (char c : text) {
        if (c == '\'') out.push_back('\'');
        out.push_back(c);
      }
      out.push_back('\'');
      return;
    }
  }
  out += "NULL";
}

std::string Value::ToDisplayString() const {
  if (is_string()) return AsString();
  return ToString();
}

}  // namespace mlds::abdm
