// Outside-in tracing: a span recorder kept in memory, a KernelExecutor
// decorator that times and tallies every kernel request, and the layers
// under server::Session rebuilt over that decorator so each layer's
// public entry point can be timed from the benchmark's own code.
#ifndef MLDS_PERFBENCH_TRACE_H_
#define MLDS_PERFBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kc/executor.h"
#include "kms/daplex_machine.h"
#include "kms/dli_machine.h"
#include "kms/dml_machine.h"
#include "kms/sql_machine.h"
#include "mlds/mlds.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {

/// One timed call. Spans of one statement share `request`; `parent` is
/// the index of the enclosing span, -1 at the top.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t request = 0;
};

/// Records spans in memory; written out once, when the run ends. Not
/// thread-safe: every span is opened and closed on the load generator's thread.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  void set_request(uint32_t request) { request_ = request; }
  /// Opens a span under the innermost open one.
  int32_t Begin(const char* name);
  void End(int32_t span);
  /// Records an already-finished top-level span.
  void Add(const char* name, Clock::time_point start, Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }
  static double DurationUs(const Span& span) {
    return (span.end_ns - span.start_ns) / 1000.0;
  }
  /// Each span's duration minus the time its children cover, in us.
  std::vector<double> SelfUs() const;

  /// Writes the spans as CSV (name, start_us, end_us, parent, request),
  /// at most `limit` of them. Returns false when the file cannot be
  /// written.
  bool Write(const std::string& path, size_t limit) const;

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint32_t request_ = 0;
};

/// Kernel work seen by the decorator, summed since the last Take().
struct KernelTally {
  uint64_t calls = 0;
  uint64_t retrieves = 0;
  uint64_t inserted_rows = 0;
  mlds::kds::IoStats io;
  double kds_us = 0;   ///< engines: the fan-out's wall time (or the call)
  double mbds_us = 0;  ///< controller time outside the fan-out
  std::vector<double> execute_us;  ///< whole kc call, per call
  std::vector<double> fanout_us;   ///< concurrent fan-out wall time, per call
  std::vector<double> merge_us;    ///< controller time outside it, per call
  /// Max / mean of the cost model's per-backend times, per call.
  std::vector<double> skew;
};

/// A KernelExecutor that forwards to the system's kernel and times each
/// request as a "kc" span. Over MBDS it calls the controller itself so
/// it can read the ExecutionReport's per-backend times.
class TracingExecutor : public mlds::kc::KernelExecutor {
 public:
  TracingExecutor(mlds::MldsSystem* system, Tracer* tracer)
      : system_(system), inner_(system->executor()), tracer_(tracer) {}

  mlds::Status DefineDatabase(const mlds::abdm::DatabaseDescriptor& db) override {
    return inner_->DefineDatabase(db);
  }
  bool HasFile(std::string_view file) const override {
    return inner_->HasFile(file);
  }
  size_t FileSize(std::string_view file) const override {
    return inner_->FileSize(file);
  }
  mlds::Status CreateIndex(std::string_view file,
                           std::string_view attr) override {
    return inner_->CreateIndex(file, attr);
  }
  mlds::kc::KernelHealth Health() const override { return inner_->Health(); }
  mlds::kds::PoolCounters PoolStats() const override {
    return inner_->PoolStats();
  }

  mlds::Result<mlds::kds::Response> Execute(
      const mlds::abdl::Request& request) override;

  /// Returns the tally since the previous call and starts a new one.
  KernelTally Take();

 private:
  mlds::MldsSystem* system_;
  mlds::kc::KernelExecutor* inner_;
  Tracer* tracer_;
  KernelTally tally_;
};

/// The layers under server::Session, rebuilt over the tracing executor:
/// the KMS language machines ("kms" spans), the kernel through the
/// decorator ("kc" spans) and the kfs formatters ("kfs" spans). It
/// renders the same bodies as server::Session.
class LayeredSession {
 public:
  LayeredSession(mlds::MldsSystem* system, TracingExecutor* executor,
                 Tracer* tracer)
      : system_(system), executor_(executor), tracer_(tracer) {}

  mlds::Result<std::string> Execute(const Stmt& stmt);

 private:
  mlds::Status Bind(const std::string& language, const std::string& database);
  mlds::Result<std::string> ExecuteAbdl(const Stmt& stmt);

  mlds::MldsSystem* system_;
  TracingExecutor* executor_;
  Tracer* tracer_;
  std::string language_;
  std::string database_;
  std::unique_ptr<mlds::kms::DmlMachine> dml_;
  std::unique_ptr<mlds::kms::DaplexMachine> daplex_;
  std::unique_ptr<mlds::kms::SqlMachine> sql_;
  std::unique_ptr<mlds::kms::DliMachine> dli_;
};

}  // namespace perfbench

#endif  // MLDS_PERFBENCH_TRACE_H_
