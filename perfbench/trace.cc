#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <variant>

#include "abdl/parser.h"
#include "abdl/prepared.h"
#include "kfs/formatter.h"

namespace perfbench {

using mlds::Result;
using mlds::Status;

int32_t Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.start_ns = Ns(Clock::now());
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  spans_.push_back(span);
  open_.push_back(static_cast<int32_t>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int32_t span) {
  spans_[span].end_ns = Ns(Clock::now());
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::Add(const char* name, Clock::time_point start,
                 Clock::time_point end) {
  Span span;
  span.name = name;
  span.start_ns = Ns(start);
  span.end_ns = Ns(end);
  span.request = request_;
  spans_.push_back(span);
}

std::vector<double> Tracer::SelfUs() const {
  // Spans are recorded on one thread, so siblings never overlap and a
  // span's children cover exactly the sum of their durations.
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = DurationUs(spans_[i]);
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[span.parent] -= DurationUs(span);
  }
  return self;
}

bool Tracer::Write(const std::string& path, size_t limit) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "name,start_us,end_us,parent,request\n");
  const size_t n = std::min(limit, spans_.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(file, "%s,%.3f,%.3f,%d,%u\n", s.name, s.start_ns / 1000.0,
                 s.end_ns / 1000.0, s.parent, s.request);
  }
  return std::fclose(file) == 0;
}

Result<mlds::kds::Response> TracingExecutor::Execute(
    const mlds::abdl::Request& request) {
  ++tally_.calls;
  if (std::holds_alternative<mlds::abdl::RetrieveRequest>(request) ||
      std::holds_alternative<mlds::abdl::RetrieveCommonRequest>(request)) {
    ++tally_.retrieves;
  } else if (std::holds_alternative<mlds::abdl::InsertRequest>(request)) {
    ++tally_.inserted_rows;
  } else if (const auto* batch =
                 std::get_if<mlds::abdl::BatchInsertRequest>(&request)) {
    tally_.inserted_rows += batch->records.size();
  }

  const int32_t span = tracer_->Begin("kc");
  mlds::kds::Response response;
  if (mlds::mbds::Controller* controller = system_->controller()) {
    Result<mlds::mbds::ExecutionReport> report = controller->Execute(request);
    tracer_->End(span);
    if (!report.ok()) return report.status();
    // backend_times_ms are the cost model's simulated times, so they give
    // the balance of work across backends; the real time splits into
    // the concurrent fan-out (the engines) and the controller's own
    // dispatch, logging and merge around it.
    double slowest = 0;
    double sum = 0;
    for (double ms : report->backend_times_ms) {
      slowest = std::max(slowest, ms);
      sum += ms;
    }
    const double mean =
        report->backend_times_ms.empty() ? 0 : sum / report->backend_times_ms.size();
    const double wall = report->wall_time_ms * 1000.0;
    const double outside =
        std::max(0.0, Tracer::DurationUs(tracer_->spans()[span]) - wall);
    tally_.fanout_us.push_back(wall);
    tally_.merge_us.push_back(outside);
    tally_.skew.push_back(mean > 0 ? slowest / mean : 1.0);
    tally_.kds_us += wall;
    tally_.mbds_us += outside;
    response = std::move(report->response);
  } else {
    // A single engine is one backend and no controller: the whole call
    // is the engine's.
    Result<mlds::kds::Response> result = inner_->Execute(request);
    tracer_->End(span);
    if (!result.ok()) return result.status();
    const double call = Tracer::DurationUs(tracer_->spans()[span]);
    tally_.fanout_us.push_back(call);
    tally_.skew.push_back(1.0);
    tally_.kds_us += call;
    response = std::move(*result);
  }
  tally_.execute_us.push_back(Tracer::DurationUs(tracer_->spans()[span]));
  tally_.io += response.io;
  return response;
}

KernelTally TracingExecutor::Take() { return std::exchange(tally_, {}); }

namespace {

/// Times one language call as a "kms" span and its rendering as a "kfs"
/// span.
template <typename Run, typename Format>
Result<std::string> Layered(Tracer* tracer, Run run, Format format) {
  const int32_t kms = tracer->Begin("kms");
  auto outcome = run();
  tracer->End(kms);
  if (!outcome.ok()) return outcome.status();
  const int32_t kfs = tracer->Begin("kfs");
  std::string body = format(*outcome);
  tracer->End(kfs);
  return body;
}

}  // namespace

Status LayeredSession::Bind(const std::string& language,
                            const std::string& database) {
  if (language == language_ && database == database_) return Status::OK();
  dml_.reset();
  daplex_.reset();
  sql_.reset();
  dli_.reset();
  // The same wiring as server::Session::Use, over the tracing executor.
  if (language == "codasyl") {
    const mlds::network::Schema* view = system_->NetworkViewOf(database);
    if (view == nullptr) return Status::NotFound("no network view " + database);
    dml_ = std::make_unique<mlds::kms::DmlMachine>(
        view, system_->MappingOf(database), executor_);
    dml_->set_translation_cache(&system_->translation_cache());
  } else if (language == "daplex") {
    const mlds::daplex::FunctionalSchema* functional =
        system_->FindFunctionalSchema(database);
    const mlds::transform::FunNetMapping* mapping = system_->MappingOf(database);
    if (functional == nullptr || mapping == nullptr) {
      return Status::NotFound("no functional database " + database);
    }
    daplex_ = std::make_unique<mlds::kms::DaplexMachine>(
        functional, &mapping->schema, mapping, executor_);
    daplex_->set_translation_cache(&system_->translation_cache());
  } else if (language == "sql") {
    const mlds::relational::Schema* schema =
        system_->FindRelationalSchema(database);
    if (schema == nullptr) return Status::NotFound("no relational " + database);
    sql_ = std::make_unique<mlds::kms::SqlMachine>(schema, executor_);
    sql_->set_translation_cache(&system_->translation_cache());
  } else if (language == "dli") {
    const mlds::hierarchical::Schema* schema =
        system_->FindHierarchicalSchema(database);
    if (schema == nullptr) return Status::NotFound("no hierarchical " + database);
    dli_ = std::make_unique<mlds::kms::DliMachine>(schema, executor_);
    dli_->set_translation_cache(&system_->translation_cache());
  } else if (language != "abdl") {
    return Status::InvalidArgument("unknown language " + language);
  }
  language_ = language;
  database_ = database;
  return Status::OK();
}

Result<std::string> LayeredSession::Execute(const Stmt& stmt) {
  MLDS_RETURN_IF_ERROR(Bind(stmt.language, stmt.database));
  const bool batch = !stmt.batch.empty();
  if (dml_ != nullptr) {
    return Layered(
        tracer_,
        [&] {
          return batch ? dml_->ExecuteBatch(stmt.text, stmt.batch)
                       : dml_->ExecuteText(stmt.text);
        },
        [](const mlds::kms::DmlResult& r) { return mlds::kfs::FormatDmlResult(r); });
  }
  if (daplex_ != nullptr) {
    return Layered(
        tracer_,
        [&] {
          return batch ? daplex_->ExecuteBatch(stmt.text, stmt.batch)
                       : daplex_->ExecuteStatement(stmt.text);
        },
        [](const mlds::kms::DaplexMachine::Outcome& o) {
          return mlds::kfs::FormatDaplexOutcome(o);
        });
  }
  if (sql_ != nullptr) {
    return Layered(
        tracer_,
        [&] {
          return batch ? sql_->ExecuteBatch(stmt.text, stmt.batch)
                       : sql_->ExecuteText(stmt.text);
        },
        [](const mlds::kms::SqlMachine::Outcome& o) {
          return mlds::kfs::FormatSqlOutcome(o);
        });
  }
  if (dli_ != nullptr) {
    return Layered(
        tracer_,
        [&] {
          return batch ? dli_->ExecuteBatch(stmt.text, stmt.batch)
                       : dli_->ExecuteText(stmt.text);
        },
        [](const mlds::kms::DliMachine::Outcome& o) {
          return mlds::kfs::FormatDliOutcome(o);
        });
  }
  return ExecuteAbdl(stmt);
}

Result<std::string> LayeredSession::ExecuteAbdl(const Stmt& stmt) {
  // ABDL has no language machine: its "kms" span is the parse (and, for
  // batches, the parameter binding) around the kernel calls, as in
  // server::Session.
  if (!stmt.batch.empty()) {
    return Layered(
        tracer_,
        [&]() -> Result<size_t> {
          MLDS_ASSIGN_OR_RETURN(mlds::abdl::PreparedRequest prepared,
                                mlds::abdl::ParsePreparedInsert(stmt.text));
          const size_t chunk = mlds::abdl::EffectiveBatchSize(
              mlds::abdl::BatchLimits{}, prepared.params_per_row());
          size_t affected = 0;
          for (size_t begin = 0; begin < stmt.batch.size(); begin += chunk) {
            const size_t end = std::min(begin + chunk, stmt.batch.size());
            MLDS_ASSIGN_OR_RETURN(mlds::abdl::BatchInsertRequest bound,
                                  prepared.BindBatch(stmt.batch, begin, end));
            MLDS_ASSIGN_OR_RETURN(
                mlds::kds::Response response,
                executor_->Execute(mlds::abdl::Request(std::move(bound))));
            affected += response.affected;
          }
          return affected;
        },
        [](size_t affected) {
          return std::to_string(affected) + " records affected\n";
        });
  }
  return Layered(
      tracer_,
      [&]() -> Result<mlds::kds::Response> {
        MLDS_ASSIGN_OR_RETURN(mlds::abdl::Request request,
                              mlds::abdl::ParseRequest(stmt.text));
        return executor_->Execute(request);
      },
      [](const mlds::kds::Response& response) {
        if (response.records.empty()) {
          return std::to_string(response.affected) + " records affected\n";
        }
        return mlds::kfs::FormatTable(response.records);
      });
}

}  // namespace perfbench
