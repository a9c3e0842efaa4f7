#ifndef MLDS_KDS_JOIN_H_
#define MLDS_KDS_JOIN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "abdm/record.h"
#include "kds/plan.h"

namespace mlds::kds {

/// Inputs of one equi-join execution over two materialized record sets.
/// `est_left` / `est_right` are the planner's pre-execution side
/// estimates; the distinct counts (of the join attribute) feed the
/// output-cardinality estimate. Both sides' record vectors must outlive
/// the call.
struct JoinInputs {
  const std::vector<abdm::Record>* left = nullptr;
  const std::vector<abdm::Record>* right = nullptr;
  std::string left_attribute;
  std::string right_attribute;
  /// Projection target attributes; empty keeps the merged record.
  std::vector<std::string> targets;
  uint64_t est_left = 0;
  uint64_t est_right = 0;
  std::optional<size_t> left_distinct;
  std::optional<size_t> right_distinct;
};

/// Result of ExecuteJoin: the joined records plus the strategy decisions
/// the caller stamps onto its kJoin plan node and counts in stats.*.
struct JoinOutcome {
  std::vector<abdm::Record> records;
  /// Strategy chosen from the pre-execution estimates.
  JoinStrategy planned = JoinStrategy::kHash;
  /// Strategy actually executed (differs from planned after a re-plan).
  JoinStrategy strategy = JoinStrategy::kHash;
  /// True when a side's actual cardinality missed its estimate by >= 10x
  /// and the strategy choice was redone against the actual sizes — the
  /// adaptive re-plan (counted in StatisticsCounters::replans).
  bool replanned = false;
};

/// Executes the equi-join `left x right on (left_attribute =
/// right_attribute)`, projecting each merged record to `targets` (the
/// left record's keywords win on collision, as in the original
/// RETRIEVE-COMMON nested loop). Null join values never match.
///
/// Strategy: ChooseJoinStrategy on the estimates picks hash or merge;
/// once the materialized sizes are known, an estimate miss of >= 10x on
/// either side re-plans against the actuals. Both strategies emit output
/// pairs in (left index, right index) order — byte-identical to the
/// historical nested-loop output, so wire results do not depend on the
/// strategy chosen.
JoinOutcome ExecuteJoin(const JoinInputs& in);

}  // namespace mlds::kds

#endif  // MLDS_KDS_JOIN_H_
