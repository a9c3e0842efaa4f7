// The benchmark's three workloads: their seeded data, the statement
// streams their sessions send, and the checks on every reply.
#ifndef MLDS_PERFBENCH_WORKLOADS_H_
#define MLDS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "abdm/value.h"
#include "client/client.h"
#include "common/result.h"
#include "mlds/mlds.h"
#include "util.h"

namespace perfbench {

/// What a statement is, for latency and throughput accounting. kUse is a
/// language rebinding the wire loop sends when a session switches language;
/// it is checked and counted as attempted but is not a timed class.
enum class StmtClass { kPoint, kWrite, kScan, kUse };
const char* ClassName(StmtClass cls);

/// What a reply must hold. Every field that is set is checked.
struct Expect {
  int64_t rows = -1;  ///< exact number of table rows, -1: not checked
  /// Column -> value pairs the first table row must carry.
  std::vector<std::pair<std::string, std::string>> cells;
  std::string contains;  ///< substring of the body
};

/// One statement of a session's stream.
struct Stmt {
  StmtClass cls = StmtClass::kPoint;
  std::string language;  ///< binding it runs under (sql, daplex, ...)
  std::string database;
  std::string text;
  /// Parameter rows: sent as one prepared batch (ExecuteBatch) when set.
  std::vector<std::vector<mlds::abdm::Value>> batch;
  Expect expect;
  uint64_t rows = 0;  ///< rows read or written, for rows_per_s
  uint64_t op = 0;    ///< which op of its session it belongs to
  /// The key a write sets and the value it establishes, applied to the
  /// script's expected state only once the reply verified.
  uint64_t key = 0;
  std::string value;
};

/// Empty when `body` meets `stmt.expect`, else what is wrong.
std::string Verify(const Stmt& stmt, std::string_view body);

/// One session's generated stream. Ops are short statement sequences
/// (a CODASYL lookup is MOVE then FIND ANY); the next op is generated
/// only when the previous one has finished, so it can depend on replies.
class Script {
 public:
  virtual ~Script() = default;
  virtual void NextOp(std::vector<Stmt>* out) = 0;
  /// Called for every statement whose reply verified.
  virtual void OnSuccess(const Stmt& stmt) { (void)stmt; }
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  /// MBDS with two backends over page files, instead of the default
  /// single in-memory engine.
  virtual bool mbds() const { return false; }
  /// Per-backend pool size as a multiple of the backend's partition
  /// pages (0: no pool).
  virtual double pool_fraction() const { return 0; }
  virtual size_t sessions() const = 0;
  virtual size_t connections() const = 0;

  /// Builds and loads a fresh system from the seed.
  virtual mlds::Result<std::unique_ptr<mlds::MldsSystem>> Build(
      const std::string& data_dir, size_t pool_pages) const = 0;

  /// Fresh session scripts, one per session, starting from the seed.
  virtual std::vector<std::unique_ptr<Script>> MakeScripts() = 0;

  /// ABDL requests that stand for the workload's point lookups and scans;
  /// they are EXPLAINed to count the rows their plans touch.
  virtual std::vector<std::string> PointProbes() const = 0;
  virtual std::vector<std::string> ScanProbes() const { return {}; }

  /// Checks run over the wire after the timed phase; each problem found
  /// is appended to `problems`.
  virtual void Audit(mlds::client::MldsClient& client,
                     std::vector<std::string>* problems) {
    (void)client;
    (void)problems;
  }

  /// The workload's parameters, for the run metadata.
  virtual Json Params() const = 0;
};

/// oltp_point, scan_report or ingest_mixed; null for another name.
/// `tiny` shrinks every size for the self-test.
std::unique_ptr<Workload> MakeWorkload(std::string_view name, uint64_t seed,
                                       bool tiny);

}  // namespace perfbench

#endif  // MLDS_PERFBENCH_WORKLOADS_H_
