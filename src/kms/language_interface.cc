#include "kms/language_interface.h"

#include <algorithm>
#include <unordered_set>

#include "common/strings.h"
#include "transform/abdm_mapping.h"

namespace mlds::kms {

namespace {

constexpr std::string_view kPreparedInsert = "prepared INSERT";

/// The arity error for batch row `row`. Prepared INSERT templates keep
/// the wording abdl::PreparedRequest::Bind uses for the same mistake.
Status RowArityError(std::string_view what, size_t row, size_t got,
                     size_t want) {
  if (what == kPreparedInsert) {
    return Status::InvalidArgument(
        "prepared INSERT takes " + std::to_string(want) +
        " parameters, got " + std::to_string(got));
  }
  return Status::InvalidArgument(
      std::string(what) + " batch row " + std::to_string(row) + " carries " +
      std::to_string(got) + " value(s); the template has " +
      std::to_string(want) + " parameter(s)");
}

}  // namespace

Result<Language> ParseLanguage(std::string_view name) {
  if (EqualsIgnoreCase(name, "codasyl") || EqualsIgnoreCase(name, "dml")) {
    return Language::kCodasyl;
  }
  if (EqualsIgnoreCase(name, "daplex")) return Language::kDaplex;
  if (EqualsIgnoreCase(name, "sql")) return Language::kSql;
  if (EqualsIgnoreCase(name, "dli")) return Language::kDli;
  if (EqualsIgnoreCase(name, "abdl")) return Language::kAbdl;
  return Status::InvalidArgument(
      "unknown language '" + std::string(name) +
      "' (expected codasyl, daplex, sql, dli, or abdl)");
}

std::string_view LanguageName(Language language) {
  switch (language) {
    case Language::kNone: return "none";
    case Language::kCodasyl: return "codasyl";
    case Language::kDaplex: return "daplex";
    case Language::kSql: return "sql";
    case Language::kDli: return "dli";
    case Language::kAbdl: return "abdl";
  }
  return "none";
}

Reply TextReply(std::string body,
                std::vector<kds::PartialResultWarning> warnings) {
  return Reply{std::make_unique<kfs::StringChunkSource>(std::move(body)),
               std::move(warnings)};
}

std::string SessionStats::ToString() const {
  std::string out = "statements: " + std::to_string(total_statements) +
                    ", ABDL requests: " + std::to_string(total_requests) +
                    "\n";
  for (const auto& [kind, count] : statements) {
    out += "  " + kind + ": " + std::to_string(count) + "\n";
  }
  for (const auto& [op, count] : abdl_requests) {
    out += "  ABDL " + op + ": " + std::to_string(count) + "\n";
  }
  return out;
}

void LanguageInterface::Note(abdl::Request& request) {
  if (explain_) abdl::SetExplain(request, true);
  trace_.push_back(abdl::ToString(request));
  stats_.abdl_requests[std::string(abdl::RequestOperation(request))] += 1;
  stats_.total_requests += 1;
}

Result<kds::Response> LanguageInterface::Issue(abdl::Request request) {
  Note(request);
  Result<kds::Response> response = executor_->Execute(request);
  if (explain_ && response.ok() && response->plan != nullptr) {
    explain_plans_.push_back(response->plan);
  }
  return response;
}

Result<kds::Response> LanguageInterface::IssueTransaction(
    abdl::Transaction txn) {
  for (abdl::Request& request : txn) Note(request);
  return executor_->ExecuteTransaction(txn);
}

void LanguageInterface::BeginExplain() {
  explain_ = true;
  explain_plans_.clear();
}

std::shared_ptr<const kds::PlanNode> LanguageInterface::EndExplain() {
  explain_ = false;
  return kds::SequencePlans(std::move(explain_plans_));
}

Result<std::vector<std::string>> LanguageInterface::AllocateKeys(
    std::string_view file, size_t count) {
  const std::string key_attribute = transform::KeyAttribute(file);
  std::vector<std::string> keys;
  keys.reserve(count);
  while (keys.size() < count) {
    const size_t wanted = count - keys.size();
    const uint64_t first = executor_->ReserveKeys(file, wanted);
    std::vector<std::string> candidates;
    candidates.reserve(wanted);
    for (uint64_t n = first; n < first + wanted; ++n) {
      candidates.push_back(transform::MakeDbKey(file, n));
    }
    // One probe for the round: the candidates some record already holds.
    abdl::RetrieveRequest probe;
    probe.query = KeyQuery(file, candidates);
    probe.targets = {abdl::TargetItem{key_attribute}};
    MLDS_ASSIGN_OR_RETURN(kds::Response held, Issue(std::move(probe)));
    std::unordered_set<std::string> taken;
    for (const abdm::Record& record : held.records) {
      taken.insert(record.GetOrNull(key_attribute).ToDisplayString());
    }
    for (std::string& candidate : candidates) {
      if (!taken.contains(candidate)) keys.push_back(std::move(candidate));
    }
  }
  return keys;
}

Result<std::string> LanguageInterface::AllocateKey(std::string_view file) {
  MLDS_ASSIGN_OR_RETURN(std::vector<std::string> keys, AllocateKeys(file, 1));
  return std::move(keys.front());
}

Result<bool> LanguageInterface::RecordExists(std::string_view file,
                                             std::string_view dbkey) {
  abdl::RetrieveRequest probe;
  probe.query = KeyQuery(file, {std::string(dbkey)});
  probe.targets = {abdl::TargetItem{transform::KeyAttribute(file)}};
  MLDS_ASSIGN_OR_RETURN(kds::Response response, Issue(std::move(probe)));
  return !response.records.empty();
}

abdm::Query LanguageInterface::KeyQuery(std::string_view file,
                                        const std::vector<std::string>& keys) {
  const std::string key_attribute = transform::KeyAttribute(file);
  std::vector<abdm::Conjunction> disjuncts;
  disjuncts.reserve(keys.size());
  for (const std::string& key : keys) {
    disjuncts.push_back(abdm::Conjunction{
        {abdm::Predicate{std::string(abdm::kFileAttribute), abdm::RelOp::kEq,
                         abdm::Value::String(std::string(file))},
         abdm::Predicate{key_attribute, abdm::RelOp::kEq,
                         abdm::Value::String(key)}}});
  }
  return abdm::Query(std::move(disjuncts));
}

Status LanguageInterface::ForEachChunk(
    std::string_view what, const ParameterRows& rows,
    const abdl::BatchLimits& limits,
    const std::function<Result<size_t>()>& prepare,
    const std::function<Status(size_t, size_t)>& run) {
  if (rows.empty()) {
    return Status::InvalidArgument(std::string(what) +
                                   " batch carries no rows");
  }
  MLDS_ASSIGN_OR_RETURN(const size_t params_per_row, prepare());
  const size_t chunk = abdl::EffectiveBatchSize(limits, params_per_row);
  for (size_t begin = 0; begin < rows.size(); begin += chunk) {
    const size_t end = std::min(begin + chunk, rows.size());
    for (size_t i = begin; i < end; ++i) {
      if (rows[i].size() != params_per_row) {
        return RowArityError(what, i, rows[i].size(), params_per_row);
      }
    }
    MLDS_RETURN_IF_ERROR(run(begin, end));
  }
  return Status::OK();
}

abdl::RetrieveRequest LanguageInterface::RetrieveAll(abdm::Query query) {
  abdl::RetrieveRequest request;
  request.query = std::move(query);
  request.all_attributes = true;
  return request;
}

std::string LanguageInterface::WithExplainPrefix(std::string_view text,
                                                 bool explain) {
  const bool prefixed =
      StartsWithIgnoreCase(text, "EXPLAIN") &&
      (text.size() == 7 || text[7] == ' ' || text[7] == '\t');
  if (!explain || prefixed) return std::string(text);
  return "EXPLAIN " + std::string(text);
}

Reply LanguageInterface::Rendered(std::string body) const {
  return TextReply(std::move(body), DegradedWarnings());
}

std::vector<kds::PartialResultWarning> LanguageInterface::DegradedWarnings()
    const {
  std::vector<kds::PartialResultWarning> warnings;
  const kc::KernelHealth health = executor_->Health();
  if (!health.degraded) return warnings;
  for (const kc::BackendHealthStatus& backend : health.backends) {
    if (backend.state == "healthy") continue;
    warnings.push_back(kds::PartialResultWarning{
        backend.id, backend.state, backend.last_fault});
  }
  return warnings;
}

}  // namespace mlds::kms
