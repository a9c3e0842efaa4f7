#include "kms/abdl_machine.h"

#include <memory>
#include <utility>

#include "abdl/parser.h"
#include "abdl/prepared.h"
#include "common/strings.h"
#include "kfs/formatter.h"

namespace mlds::kms {

AbdlMachine::AbdlMachine(kc::KernelExecutor* executor)
    : LanguageInterface(executor) {}

Result<Reply> AbdlMachine::Run(std::string_view text, bool explain) {
  trace_.clear();
  // BEGIN, ABORT and buffered requests reply without warnings: they do
  // not touch the kernel.
  if (EqualsIgnoreCase(text, "BEGIN")) {
    if (in_transaction_) {
      return Status::InvalidArgument("transaction already in flight");
    }
    in_transaction_ = true;
    pending_.clear();
    return TextReply("transaction started\n");
  }
  if (EqualsIgnoreCase(text, "ABORT")) {
    if (!in_transaction_) {
      return Status::InvalidArgument("no transaction in flight");
    }
    const size_t dropped = pending_.size();
    in_transaction_ = false;
    pending_.clear();
    return TextReply("transaction aborted (" + std::to_string(dropped) +
                     " buffered)\n");
  }
  if (EqualsIgnoreCase(text, "COMMIT")) return Commit();

  if (explain) {
    MLDS_ASSIGN_OR_RETURN(std::string plan, Explain(text));
    return Rendered(std::move(plan));
  }

  MLDS_ASSIGN_OR_RETURN(abdl::Request request, abdl::ParseRequest(text));
  if (in_transaction_) {
    pending_.push_back(std::move(request));
    return TextReply("buffered (" + std::to_string(pending_.size()) +
                     " in transaction)\n");
  }
  MLDS_ASSIGN_OR_RETURN(kds::Response response, Issue(std::move(request)));
  std::vector<kds::PartialResultWarning> warnings =
      response.warnings.empty() ? DegradedWarnings()
                                : std::move(response.warnings);
  if (response.records.empty()) {
    return TextReply(std::to_string(response.affected) + " records affected\n",
                     std::move(warnings));
  }
  // The kernel's own RETRIEVE renders incrementally: the record set moves
  // into a TableChunkSource, which knows its exact rendered size up front,
  // so the session can stream a large table without ever holding its
  // rendering.
  return Reply{
      std::make_unique<kfs::TableChunkSource>(std::move(response.records)),
      std::move(warnings)};
}

Result<Reply> AbdlMachine::Commit() {
  if (!in_transaction_) {
    return Status::InvalidArgument("no transaction in flight");
  }
  abdl::Transaction txn = std::move(pending_);
  in_transaction_ = false;
  pending_.clear();
  const size_t requests = txn.size();
  MLDS_ASSIGN_OR_RETURN(kds::Response response,
                        IssueTransaction(std::move(txn)));
  return TextReply("transaction committed: " + std::to_string(requests) +
                       " requests, " + std::to_string(response.affected) +
                       " records affected\n",
                   std::move(response.warnings));
}

Result<Reply> AbdlMachine::RunBatch(std::string_view text,
                                    const ParameterRows& rows) {
  trace_.clear();
  abdl::PreparedRequest prepared;
  auto prepare = [&]() -> Result<size_t> {
    MLDS_ASSIGN_OR_RETURN(prepared, abdl::ParsePreparedInsert(text));
    return prepared.params_per_row();
  };
  size_t affected = 0;
  auto run = [&](size_t begin, size_t end) -> Status {
    MLDS_ASSIGN_OR_RETURN(abdl::BatchInsertRequest batch,
                          prepared.BindBatch(rows, begin, end));
    if (in_transaction_) {
      affected += batch.records.size();
      pending_.emplace_back(std::move(batch));
      return Status::OK();
    }
    MLDS_ASSIGN_OR_RETURN(kds::Response response, Issue(std::move(batch)));
    affected += response.affected;
    return Status::OK();
  };
  MLDS_RETURN_IF_ERROR(ForEachChunk("prepared INSERT", rows,
                                    abdl::BatchLimits{}, prepare, run));
  return Rendered(in_transaction_
                      ? "buffered " + std::to_string(affected) +
                            " records (" + std::to_string(pending_.size()) +
                            " in transaction)\n"
                      : std::to_string(affected) + " records affected\n");
}

Result<std::string> AbdlMachine::Explain(std::string_view text) {
  MLDS_ASSIGN_OR_RETURN(abdl::Request request, abdl::ParseRequest(text));
  BeginExplain();
  Result<kds::Response> response = Issue(std::move(request));
  std::shared_ptr<const kds::PlanNode> plan = EndExplain();
  MLDS_RETURN_IF_ERROR(response.status());
  if (plan == nullptr) {
    return Status::InvalidArgument(
        "request produced no plan (INSERT chooses no access path)");
  }
  kfs::PlanFormatOptions options;
  options.header = "ABDL PLAN";
  return kfs::FormatPlan(*plan, options);
}

}  // namespace mlds::kms
