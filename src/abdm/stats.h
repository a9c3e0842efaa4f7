#ifndef MLDS_ABDM_STATS_H_
#define MLDS_ABDM_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "abdm/query.h"

namespace mlds::abdm {

/// Where a cardinality estimate came from. The planner stamps the source
/// onto the plan node it produced so EXPLAIN can render estimate
/// provenance (`[directory]`, `[histogram]`, `[heuristic]`).
enum class EstimateSource {
  kNone = 0,    // no estimate attached (structural nodes)
  kDirectory,   // exact bucket count read off the keyword directory
  kHistogram,   // interpolated from an equi-depth histogram
  kHeuristic,   // fallback (live-record count, fixed selectivity)
};

std::string_view EstimateSourceToString(EstimateSource source);

/// A cardinality estimate together with its provenance.
struct CardinalityEstimate {
  size_t rows = 0;
  EstimateSource source = EstimateSource::kHeuristic;
};

/// Read-only statistics a keyword directory exposes to the query planner.
///
/// The attribute-based directory (Ch. II.C) clusters record ids under
/// (attribute, value) keywords, so the number of candidates an
/// index-assisted predicate would yield can be read off the bucket sizes
/// without materializing any id list. The KDS planner consumes only this
/// interface — not the FileStore itself — which keeps plan construction
/// unit-testable against synthetic statistics.
class DirectoryStats {
 public:
  virtual ~DirectoryStats() = default;

  /// Number of candidate ids the directory would yield for `pred`, or
  /// nullopt when the predicate is not index-assisted (a != comparison, a
  /// null operand, or a non-directory attribute). A value of 0 means the
  /// directory alone proves no record matches.
  virtual std::optional<size_t> EstimateMatches(
      const Predicate& pred) const = 0;

  /// Number of live records in the file.
  virtual size_t live_records() const = 0;

  /// Number of blocks currently allocated (including partially dead ones);
  /// the cost of a full scan.
  virtual uint64_t allocated_blocks() const = 0;

  /// Record slots per block; bounds how few blocks `n` candidate records
  /// can occupy (ceil(n / records_per_block)).
  virtual int records_per_block() const = 0;

  /// True when `attr` is served by a secondary index rather than the
  /// primary keyword directory. Purely descriptive: estimates and
  /// lookups behave identically; the planner uses it to label the
  /// access path in EXPLAIN output. Defaulted so synthetic statistics
  /// (tests) need not override it.
  virtual bool IsSecondaryIndex(std::string_view) const { return false; }

  /// EstimateMatches plus provenance. The default wraps EstimateMatches
  /// (an exact directory bucket count) and falls back to a heuristic
  /// live-record estimate, so existing implementations and synthetic
  /// test statistics get sensible sources for free. Implementations with
  /// histograms override this to answer from them when the directory
  /// cannot (e.g. stale buckets skipped, or range predicates estimated
  /// without walking value buckets).
  virtual std::optional<CardinalityEstimate> EstimateWithSource(
      const Predicate& pred) const {
    if (auto n = EstimateMatches(pred); n.has_value()) {
      return CardinalityEstimate{*n, EstimateSource::kDirectory};
    }
    return std::nullopt;
  }

  /// Number of distinct values of `attr` among live records, or nullopt
  /// when unknown (attribute not indexed / no statistics kept). Join
  /// cardinality estimation divides by it.
  virtual std::optional<size_t> DistinctValues(std::string_view) const {
    return std::nullopt;
  }
};

}  // namespace mlds::abdm

#endif  // MLDS_ABDM_STATS_H_
