#ifndef MLDS_COMMON_COUNTERS_H_
#define MLDS_COMMON_COUNTERS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mlds::common {

/// One row of a counter family's table: a counter's public name and the
/// field holding it. A family is a struct of uint64_t fields that names
/// them once, in its own header, as `static constexpr kCounters[]`;
/// AddCounters, AtomicCounters and CounterSnapshot::Of walk that table.
template <typename Family>
struct CounterField {
  std::string_view name;
  uint64_t Family::*member = nullptr;
};

/// Adds every counter of `from` into `into` — a family's operator+=.
template <typename Family>
Family& AddCounters(Family& into, const Family& from) {
  for (const CounterField<Family>& field : Family::kCounters) {
    into.*field.member += from.*field.member;
  }
  return into;
}

/// The lock-free form of a counter family, for layers that count while
/// requests run concurrently: one relaxed atomic per table row.
template <typename Family>
class AtomicCounters {
 public:
  /// Adds `n` to the counter held in `member`.
  void Add(uint64_t Family::*member, uint64_t n = 1) {
    slots_[IndexOf(member)].fetch_add(n, std::memory_order_relaxed);
  }

  Family Snapshot() const {
    Family family;
    for (size_t i = 0; i < kSize; ++i) {
      family.*Family::kCounters[i].member = slots_[i].load();
    }
    return family;
  }

 private:
  static constexpr size_t kSize = std::size(Family::kCounters);

  static constexpr size_t IndexOf(uint64_t Family::*member) {
    size_t i = 0;
    while (i < kSize && Family::kCounters[i].member != member) ++i;
    assert(i < kSize && "field missing from the family's kCounters table");
    return i;
  }

  std::array<std::atomic<uint64_t>, kSize> slots_{};
};

/// A point-in-time list of named counter values — what STATS carries and
/// `.stats` prints. A plain value: nothing registers into it.
class CounterSnapshot {
 public:
  struct Entry {
    std::string name;
    uint64_t value = 0;
  };

  /// Every counter of `family`, named and ordered by its table.
  template <typename Family>
  static CounterSnapshot Of(const Family& family) {
    CounterSnapshot snapshot;
    for (const CounterField<Family>& field : Family::kCounters) {
      snapshot.Add(field.name, family.*field.member);
    }
    return snapshot;
  }

  /// Appends one counter.
  void Add(std::string_view name, uint64_t value) {
    entries_.push_back(Entry{std::string(name), value});
  }

  /// Sums by name: a listed counter gains `other`'s value, a new name is
  /// appended — so disjoint families concatenate in table order.
  CounterSnapshot& operator+=(const CounterSnapshot& other) {
    for (const Entry& entry : other.entries_) {
      auto it = std::find_if(
          entries_.begin(), entries_.end(),
          [&](const Entry& mine) { return mine.name == entry.name; });
      if (it == entries_.end()) {
        entries_.push_back(entry);
      } else {
        it->value += entry.value;
      }
    }
    return *this;
  }

  /// The value of `name`, if listed.
  std::optional<uint64_t> Find(std::string_view name) const {
    for (const Entry& entry : entries_) {
      if (entry.name == name) return entry.value;
    }
    return std::nullopt;
  }

  const std::vector<Entry>& entries() const { return entries_; }

  /// One "name value" line per counter, in list order.
  std::string ToText() const {
    std::string out;
    for (const Entry& entry : entries_) {
      out += entry.name + ' ' + std::to_string(entry.value) + '\n';
    }
    return out;
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace mlds::common

#endif  // MLDS_COMMON_COUNTERS_H_
