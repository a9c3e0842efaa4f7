#include "kds/planner.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace mlds::kds {

namespace {

PlanNodeKind IndexKindFor(const abdm::Predicate& pred) {
  return pred.op == abdm::RelOp::kEq ? PlanNodeKind::kIndexEquality
                                     : PlanNodeKind::kIndexRange;
}

/// Worst-case block budget for fetching `candidates` records: each
/// candidate on its own block, capped at the whole file.
uint64_t BlockBudget(size_t candidates, const abdm::DirectoryStats& stats) {
  return std::min<uint64_t>(candidates, stats.allocated_blocks());
}

PlanNode IndexNode(const abdm::Predicate& pred,
                   const abdm::CardinalityEstimate& estimate,
                   const abdm::DirectoryStats& stats) {
  PlanNode node;
  node.kind = IndexKindFor(pred);
  node.predicate = pred;
  node.secondary = stats.IsSecondaryIndex(pred.attribute);
  node.est_rows = estimate.rows;
  node.est_blocks = BlockBudget(estimate.rows, stats);
  node.est_source = estimate.source;
  return node;
}

}  // namespace

bool WorthIntersecting(size_t next_estimate, size_t current_size) {
  return next_estimate <= 4 * current_size + 16;
}

PlanNode PlanConjunction(const abdm::Conjunction& conj,
                         const abdm::DirectoryStats& stats) {
  // Estimate every index-assisted predicate from the directory's bucket
  // sizes without materializing any candidate list (the FILE keyword's
  // bucket holds every record of the file, and copying it per query
  // would make point lookups O(n)).
  std::vector<std::pair<const abdm::Predicate*, abdm::CardinalityEstimate>>
      indexed;
  for (const abdm::Predicate& pred : conj.predicates) {
    std::optional<abdm::CardinalityEstimate> estimate =
        stats.EstimateWithSource(pred);
    if (!estimate.has_value()) continue;
    if (estimate->rows == 0 &&
        estimate->source == abdm::EstimateSource::kDirectory) {
      // The directory alone proves no record matches; the plan is a lone
      // probe of the proving predicate. (A histogram zero is only an
      // estimate — it does not prove emptiness.)
      return IndexNode(pred, *estimate, stats);
    }
    indexed.emplace_back(&pred, *estimate);
  }

  if (indexed.empty()) {
    PlanNode scan;
    scan.kind = PlanNodeKind::kFullScan;
    scan.est_rows = stats.live_records();
    scan.est_blocks = stats.allocated_blocks();
    scan.est_source = abdm::EstimateSource::kHeuristic;
    return scan;
  }

  std::stable_sort(indexed.begin(), indexed.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.rows < b.second.rows;
                   });

  // The cheapest estimate drives the fetch; later sets are intersected
  // cheapest-first. The survivor set only shrinks from the driver's
  // estimate, so a child failing the rule against the driver estimate
  // can never pass it at run time — prune it and (because the executor
  // stops at the first skip) everything after it.
  const size_t driver_estimate = indexed.front().second.rows;
  size_t kept = 1;
  while (kept < indexed.size() &&
         WorthIntersecting(indexed[kept].second.rows, driver_estimate)) {
    ++kept;
  }

  if (kept == 1) {
    return IndexNode(*indexed.front().first, indexed.front().second, stats);
  }

  PlanNode intersect;
  intersect.kind = PlanNodeKind::kIntersect;
  intersect.est_rows = driver_estimate;
  intersect.est_blocks = BlockBudget(driver_estimate, stats);
  intersect.est_source = indexed.front().second.source;
  intersect.children.reserve(kept);
  for (size_t k = 0; k < kept; ++k) {
    intersect.children.push_back(
        IndexNode(*indexed[k].first, indexed[k].second, stats));
  }
  return intersect;
}

PlanNode PlanQuery(const abdm::Query& query, const abdm::DirectoryStats& stats,
                   std::string_view file) {
  PlanNode root;
  root.kind = PlanNodeKind::kUnionOfConjunctions;
  root.label = file;
  root.children.reserve(query.disjuncts().size());
  for (const abdm::Conjunction& conj : query.disjuncts()) {
    root.children.push_back(PlanConjunction(conj, stats));
  }
  root.est_rows = root.SumChildren(&PlanNode::est_rows);
  root.est_blocks = root.SumChildren(&PlanNode::est_blocks);
  return root;
}

JoinStrategy ChooseJoinStrategy(uint64_t left_rows, uint64_t right_rows) {
  const uint64_t lo = std::min(left_rows, right_rows);
  const uint64_t hi = std::max(left_rows, right_rows);
  if (lo >= 64 && hi < 4 * lo) return JoinStrategy::kMerge;
  return JoinStrategy::kHash;
}

uint64_t EstimateJoinRows(uint64_t left_rows, uint64_t right_rows,
                          std::optional<size_t> left_distinct,
                          std::optional<size_t> right_distinct) {
  if (left_rows == 0 || right_rows == 0) return 0;
  const uint64_t denom = std::max<uint64_t>(
      1, std::max<uint64_t>(left_distinct.value_or(1),
                            right_distinct.value_or(1)));
  // double keeps the product from overflowing; the result is an estimate.
  const double rows =
      double(left_rows) * double(right_rows) / double(denom);
  if (rows < 1.0) return 1;
  return uint64_t(rows);
}

bool EstimateMissed(uint64_t estimate, uint64_t actual) {
  const uint64_t lo = std::min(estimate, actual);
  const uint64_t hi = std::max(estimate, actual);
  return hi >= 10 && hi >= 10 * lo;
}

}  // namespace mlds::kds
