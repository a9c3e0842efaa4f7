#include "server/session.h"

#include <chrono>
#include <limits>
#include <utility>

#include "common/strings.h"

namespace mlds::server {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The one streaming rule: a reply body longer than `stream_threshold`
/// stays a ChunkSource for the server to stream; anything shorter drains
/// into the inline body.
ExecuteOutcome Deliver(kms::Reply reply, Clock::time_point start,
                       size_t stream_threshold) {
  ExecuteOutcome outcome;
  if (reply.body->total_bytes() > stream_threshold) {
    outcome.stream = std::move(reply.body);
  } else {
    outcome.meta.body = reply.body->Drain();
  }
  outcome.meta.elapsed_ms = MsSince(start);
  outcome.meta.warnings = std::move(reply.warnings);
  return outcome;
}

Status Unbound() {
  return Status::InvalidArgument(
      "no language bound — send USE <language> <database> first");
}

}  // namespace

Session::Session(uint32_t id, MldsSystem* system)
    : id_(id), system_(system) {}

Status Session::Use(const wire::UseRequest& request) {
  MLDS_ASSIGN_OR_RETURN(kms::Language language,
                        kms::ParseLanguage(request.language));
  // Build the new interface before tearing down the old binding, so a
  // failed USE leaves the session as it was.
  MLDS_ASSIGN_OR_RETURN(std::unique_ptr<kms::LanguageInterface> bound,
                        system_->OpenInterface(language, request.database));
  language_ = language;
  interface_ = std::move(bound);
  return Status::OK();
}

Result<wire::ExecuteResult> Session::Execute(std::string_view statement,
                                             bool explain) {
  MLDS_ASSIGN_OR_RETURN(
      ExecuteOutcome outcome,
      ExecuteStreamed(statement, explain,
                      std::numeric_limits<size_t>::max()));
  return std::move(outcome.meta);
}

Result<ExecuteOutcome> Session::ExecuteStreamed(std::string_view statement,
                                                bool explain,
                                                size_t stream_threshold) {
  const std::string_view trimmed = Trim(statement);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty statement");
  }
  if (interface_ == nullptr) return Unbound();
  const Clock::time_point start = Clock::now();
  MLDS_ASSIGN_OR_RETURN(kms::Reply reply, interface_->Run(trimmed, explain));
  return Deliver(std::move(reply), start, stream_threshold);
}

Result<wire::ExecuteResult> Session::ExecuteBatch(
    const wire::BatchRequest& request) {
  const std::string_view trimmed = Trim(request.statement);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty batch statement");
  }
  if (interface_ == nullptr) return Unbound();
  const Clock::time_point start = Clock::now();
  MLDS_ASSIGN_OR_RETURN(kms::Reply reply,
                        interface_->RunBatch(trimmed, request.rows));
  return Deliver(std::move(reply), start, std::numeric_limits<size_t>::max())
      .meta;
}

}  // namespace mlds::server
