// The MLDS benchmark's load generator.
//
//   mlds_perfbench --workload <oltp_point|scan_report|ingest_mixed>
//                  --seed N --seconds S --trace 0|1
//                  [--data-dir DIR] [--out-dir DIR] [--tiny]
//                  [--source-digest HEX]
//
// It builds the workload's data from the seed, serves it with
// server::MldsServer and drives it over the wire from one thread through
// a client::ClientPool: every session keeps exactly one statement in
// flight (a closed loop). Every reply is checked against the value the
// generator expects. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the line before it
// holds the run's metadata and the full per-class and per-layer detail.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the wire loop
// with client-side spans (alternating with untraced stretches to price
// the tracing), then replays the same statement stream in process on a
// fresh system through server::Session and through the KMS machines,
// kernel and kfs formatters under it, timing each layer's public entry
// point from this file. The program itself is not instrumented.

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "abdl/parser.h"
#include "client/pool.h"
#include "kds/plan.h"
#include "server/server.h"
#include "server/session.h"
#include "server/wire.h"
#include "trace.h"
#include "util.h"
#include "workloads.h"

#ifndef MLDS_PERFBENCH_BUILD_TYPE
#define MLDS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using mlds::MldsSystem;
using mlds::Result;
using mlds::Status;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string data_dir = ".bench_data";
  std::string out_dir = ".bench_out";
  std::string source_digest = "unknown";
};

constexpr size_t kTimedClasses = 3;  // point, write, scan
size_t ClassIndex(StmtClass cls) { return static_cast<size_t>(cls); }

/// Setups per untraced run; setup_s reports their median.
constexpr int kSetupRepeats = 3;
/// Slices of the timed phase whose median rate and latency are reported.
constexpr size_t kSlices = 10;
/// Statements recorded for the in-process replay, at most.
constexpr size_t kReplayRecordLimit = 150000;
/// Spans written to the trace file, at most.
constexpr size_t kSpanWriteLimit = 200000;

// ---------------------------------------------------------------------
// Set-up

/// Sum of the actual rows of a plan's leaves: the records its access
/// paths touched.
uint64_t LeafRows(const mlds::kds::PlanNode& node) {
  if (node.children.empty()) return node.executed ? node.actual_rows : 0;
  uint64_t rows = 0;
  for (const mlds::kds::PlanNode& child : node.children) rows += LeafRows(child);
  return rows;
}

/// EXPLAINs each request through the kernel's explain path. The mean of
/// their leaf rows lands in `*mean`; each probe's count is listed in the
/// returned JSON.
Result<Json> ExplainProbes(MldsSystem* system,
                           const std::vector<std::string>& probes,
                           double* mean) {
  Json listing;
  double total = 0;
  for (const std::string& text : probes) {
    MLDS_ASSIGN_OR_RETURN(mlds::abdl::Request request,
                          mlds::abdl::ParseRequest(text));
    MLDS_ASSIGN_OR_RETURN(mlds::kds::Response response,
                          system->executor()->ExecuteExplain(request));
    if (response.plan == nullptr) {
      return Status::Internal("no plan for '" + text + "'");
    }
    const uint64_t rows = LeafRows(*response.plan);
    total += static_cast<double>(rows);
    listing.Int(text, static_cast<int64_t>(rows));
  }
  *mean = probes.empty() ? 0 : total / probes.size();
  return listing;
}

struct Setup {
  std::unique_ptr<MldsSystem> system;
  size_t pool_pages = 0;
  uint64_t partition_pages = 0;
  std::vector<double> seconds;
  double plan_rows_per_point = 0;
  double plan_rows_per_scan = 0;
  Json point_plans;
  Json scan_plans;
};

void Wipe(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

/// Pages of the largest backend partition, measured on a throwaway
/// in-memory build (memory-mode files lay out and count their pages as
/// page files do), so sizing the pool costs no disk writes.
Result<uint64_t> PartitionPages(const Workload& workload) {
  MLDS_ASSIGN_OR_RETURN(std::unique_ptr<MldsSystem> system,
                        workload.Build("", 0));
  std::map<std::string, uint64_t> per_backend;
  for (const auto& file : system->executor()->VerifyIntegrity().files) {
    per_backend[file.file.substr(0, file.file.find('/'))] += file.pages;
  }
  uint64_t pages = 0;
  for (const auto& [backend, count] : per_backend) {
    pages = std::max(pages, count);
  }
  return pages;
}

/// Builds the system `repeats` times (keeping the last) and warms each
/// build by EXPLAINing the workload's probe requests, which also fills
/// the pool with the files' hot pages.
Result<Setup> SetUp(const Workload& workload, const std::string& dir,
                    int repeats) {
  Setup setup;
  if (workload.pool_fraction() > 0) {
    MLDS_ASSIGN_OR_RETURN(setup.partition_pages, PartitionPages(workload));
    setup.pool_pages = std::max<size_t>(
        16, static_cast<size_t>(std::llround(setup.partition_pages *
                                             workload.pool_fraction())));
  }
  for (int i = 0; i < repeats; ++i) {
    setup.system.reset();
    if (workload.mbds()) Wipe(dir);
    const Clock::time_point start = Clock::now();
    MLDS_ASSIGN_OR_RETURN(setup.system, workload.Build(dir, setup.pool_pages));
    MLDS_ASSIGN_OR_RETURN(
        setup.point_plans,
        ExplainProbes(setup.system.get(), workload.PointProbes(),
                      &setup.plan_rows_per_point));
    MLDS_ASSIGN_OR_RETURN(
        setup.scan_plans,
        ExplainProbes(setup.system.get(), workload.ScanProbes(),
                      &setup.plan_rows_per_scan));
    setup.seconds.push_back(SecondsSince(start));
  }
  return setup;
}

// ---------------------------------------------------------------------
// The wire loop

struct ClassStats {
  std::vector<double> ms;
  std::vector<double> at_s;  ///< when each reply came, from phase start
  std::vector<double> first_chunk_ms;
  uint64_t rows = 0;
  uint64_t bytes = 0;
};

/// The q-quantile of a class's latencies as the median over `slices`
/// equal slices of the phase, so a stall of the shared host in a few
/// slices moves it little. Falls back to the whole phase's quantile when
/// a slice holds fewer than ten samples beyond q.
double SliceQuantile(const ClassStats& stats, double seconds, double q,
                     size_t slices) {
  std::vector<std::vector<double>> by_slice(slices);
  const double width = seconds / slices;
  for (size_t i = 0; i < stats.ms.size(); ++i) {
    const size_t s = std::min(slices - 1, static_cast<size_t>(stats.at_s[i] / width));
    by_slice[s].push_back(stats.ms[i]);
  }
  std::vector<double> per_slice;
  for (std::vector<double>& slice : by_slice) {
    if (slice.size() * (1 - q) < 10) return Quantile(stats.ms, q);
    per_slice.push_back(Quantile(std::move(slice), q));
  }
  return Quantile(per_slice, 0.5);
}

/// What one stretch of the closed loop measured.
struct Phase {
  bool traced = false;
  Clock::time_point start;
  double seconds = 0;
  uint64_t statements = 0;  ///< verified replies, USE excluded
  std::array<ClassStats, kTimedClasses> cls;
  /// Each verified reply: seconds since `start`, rows it moved.
  std::vector<std::pair<double, uint64_t>> done;
};

/// Statement and row rates in each of `windows` equal slices of the
/// phase. Their medians are reported, so a stall of the shared host in
/// one slice moves neither.
struct WindowRates {
  std::vector<double> statements;
  std::vector<double> rows;
};
WindowRates RatesBySlice(const Phase& phase, size_t windows) {
  WindowRates rates{std::vector<double>(windows, 0),
                    std::vector<double>(windows, 0)};
  const double width = phase.seconds / windows;
  for (const auto& [at, n] : phase.done) {
    const size_t w = std::min(windows - 1, static_cast<size_t>(at / width));
    rates.statements[w] += 1 / width;
    rates.rows[w] += n / width;
  }
  return rates;
}

/// Outcome counts over the whole run, every reply included.
struct Tally {
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t busy = 0;
  uint64_t wrong = 0;
  std::vector<std::string> problems;  ///< the first few, for the log

  uint64_t failed() const { return errors + busy + wrong; }
  void Problem(std::string what) {
    if (problems.size() < 10) problems.push_back(std::move(what));
  }
};

/// Drives the sessions of one ClientPool from this thread. Each session
/// has one statement in flight. The client's Await blocks, so the loop
/// waits first for the reply it expects soonest (send time plus the
/// running mean of the server-reported execution time of the
/// statement's class and language, which the waiting order cannot bias),
/// then sends that session its next statement. A reply that arrives while the
/// loop waits on another is stamped when it is collected; ordering by
/// expected completion keeps that delay short when fast point reads run
/// beside slow batches.
class WireLoop {
 public:
  WireLoop(mlds::client::ClientPool* pool,
             std::vector<std::unique_ptr<Script>>* scripts, Tally* tally)
      : pool_(pool), scripts_(scripts), tally_(tally),
        sessions_(scripts->size()) {
    for (size_t s = 0; s < pool_->session_count(); ++s) {
      mlds::client::MldsClient* connection = &pool_->connection_of(s);
      connection->set_chunk_observer(
          [this, connection](uint32_t request,
                             const mlds::wire::ResultChunk& chunk) {
            if (chunk.seq == 0) first_chunk_[{connection, request}] = Clock::now();
          });
    }
  }
  /// The observers capture `this`; the pool outlives the loop.
  ~WireLoop() {
    for (size_t s = 0; s < pool_->session_count(); ++s) {
      pool_->connection_of(s).set_chunk_observer(nullptr);
    }
  }
  WireLoop(const WireLoop&) = delete;
  WireLoop& operator=(const WireLoop&) = delete;

  /// Records every statement sent from now on (up to a limit), in send
  /// order, for the in-process replay.
  void set_recording(bool on) { recording_ = on; }
  std::vector<std::pair<size_t, Stmt>>& recorded() { return recorded_; }

  /// Runs the loop until `until`. Replies collected meanwhile count in
  /// `phase` (null: warm-up, counted only in the tally).
  void Run(Clock::time_point until, Phase* phase, Tracer* tracer) {
    if (outstanding_.empty()) {
      for (size_t s = 0; s < sessions_.size(); ++s) Send(s);
    }
    const Clock::time_point start = Clock::now();
    if (phase != nullptr) phase->start = start;
    while (!outstanding_.empty() && Clock::now() < until) {
      const size_t session = Collect(phase, tracer);
      Send(session);
    }
    if (phase != nullptr) phase->seconds = SecondsSince(start);
  }

  /// Collects every outstanding reply without sending more.
  void Drain() {
    while (!outstanding_.empty()) Collect(nullptr, nullptr);
  }

 private:
  struct Outstanding {
    size_t session = 0;
    Stmt stmt;
    uint32_t request = 0;
    Clock::time_point sent;
  };
  struct SessionState {
    std::deque<Stmt> queue;  ///< rest of the current op
    std::string language;
    std::string database;
  };

  void Send(size_t s) {
    SessionState& state = sessions_[s];
    if (state.queue.empty()) {
      std::vector<Stmt> op;
      (*scripts_)[s]->NextOp(&op);
      state.queue.assign(std::make_move_iterator(op.begin()),
                         std::make_move_iterator(op.end()));
    }
    mlds::client::MldsClient& connection = pool_->connection_of(s);
    const uint32_t session_id = pool_->session(s).session_id();
    Outstanding out;
    out.session = s;
    const Stmt& next = state.queue.front();
    Result<uint32_t> id = 0u;
    if (next.language != state.language || next.database != state.database) {
      out.stmt.cls = StmtClass::kUse;
      out.stmt.language = next.language;
      out.stmt.database = next.database;
      out.sent = Clock::now();
      id = connection.Submit(
          mlds::wire::FrameType::kUse,
          mlds::wire::EncodeUseRequest({next.language, next.database}),
          session_id);
    } else {
      out.stmt = std::move(state.queue.front());
      state.queue.pop_front();
      if (recording_ && recorded_.size() < kReplayRecordLimit) {
        recorded_.emplace_back(s, out.stmt);
      }
      out.sent = Clock::now();
      id = out.stmt.batch.empty()
               ? connection.SubmitExecute(out.stmt.text, session_id)
               : connection.SubmitBatch(out.stmt.text, out.stmt.batch,
                                        session_id);
    }
    ++tally_->attempted;
    if (!id.ok()) {
      // The connection is unusable; nothing more can be sent on it.
      ++tally_->errors;
      tally_->Problem("submit: " + id.status().ToString());
      return;
    }
    out.request = *id;
    outstanding_.push_back(std::move(out));
  }

  using Kind = std::pair<StmtClass, std::string>;
  static Kind KindOf(const Stmt& stmt) { return {stmt.cls, stmt.language}; }

  /// Awaits the reply expected soonest, checks and records it, and
  /// returns its session.
  size_t Collect(Phase* phase, Tracer* tracer) {
    size_t pick = 0;
    Clock::time_point soonest = Clock::time_point::max();
    for (size_t i = 0; i < outstanding_.size(); ++i) {
      const Outstanding& o = outstanding_[i];
      const Clock::time_point due =
          o.sent + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           expected_ms_[KindOf(o.stmt)]));
      if (due < soonest) {
        soonest = due;
        pick = i;
      }
    }
    Outstanding out = std::move(outstanding_[pick]);
    outstanding_.erase(outstanding_.begin() + pick);
    SessionState& state = sessions_[out.session];
    mlds::client::MldsClient& connection = pool_->connection_of(out.session);

    Status status;
    std::string body;
    double server_ms = 0;
    if (out.stmt.cls == StmtClass::kUse) {
      status = connection.Await(out.request).status();
    } else {
      Result<mlds::wire::ExecuteResult> result =
          connection.AwaitResult(out.request);
      status = result.status();
      if (result.ok()) {
        body = std::move(result->body);
        server_ms = result->elapsed_ms;
      }
    }
    const Clock::time_point done = Clock::now();
    const auto chunk = first_chunk_.find({&connection, out.request});
    std::optional<Clock::time_point> first_chunk;
    if (chunk != first_chunk_.end()) {
      first_chunk = chunk->second;
      first_chunk_.erase(chunk);
    }

    if (!status.ok()) {
      if (status.code() == mlds::StatusCode::kUnavailable) {
        ++tally_->busy;
      } else {
        ++tally_->errors;
      }
      tally_->Problem(out.stmt.text + ": " + status.ToString());
      state.queue.clear();  // the op's later statements depend on this one
      return out.session;
    }
    if (out.stmt.cls == StmtClass::kUse) {
      state.language = out.stmt.language;
      state.database = out.stmt.database;
      return out.session;
    }
    if (std::string wrong = Verify(out.stmt, body); !wrong.empty()) {
      ++tally_->wrong;
      tally_->Problem(out.stmt.text + ": " + wrong);
      state.queue.clear();
      return out.session;
    }
    (*scripts_)[out.session]->OnSuccess(out.stmt);
    double& expected = expected_ms_[KindOf(out.stmt)];
    expected += (server_ms - expected) * 0.1;
    const double ms = MsBetween(out.sent, done);
    if (phase == nullptr) return out.session;

    const double at_s = MsBetween(phase->start, done) / 1000.0;
    ClassStats& stats = phase->cls[ClassIndex(out.stmt.cls)];
    stats.ms.push_back(ms);
    stats.at_s.push_back(at_s);
    stats.rows += out.stmt.rows;
    stats.bytes += body.size();
    if (first_chunk) stats.first_chunk_ms.push_back(MsBetween(out.sent, *first_chunk));
    phase->done.emplace_back(at_s, out.stmt.rows);
    ++phase->statements;
    if (tracer != nullptr) {
      tracer->set_request(out.request);
      tracer->Add("wire", out.sent, done);
    }
    return out.session;
  }

  mlds::client::ClientPool* pool_;
  std::vector<std::unique_ptr<Script>>* scripts_;
  Tally* tally_;
  std::vector<SessionState> sessions_;
  std::vector<Outstanding> outstanding_;
  std::map<Kind, double> expected_ms_;  ///< running mean server time
  std::map<std::pair<const void*, uint32_t>, Clock::time_point> first_chunk_;
  bool recording_ = false;
  std::vector<std::pair<size_t, Stmt>> recorded_;
};

/// A running server over a set-up system, with a connected pool.
struct Served {
  std::unique_ptr<mlds::server::MldsServer> server;
  mlds::client::ClientPool pool;
};

Status Serve(MldsSystem* system, const Workload& workload, Served* served) {
  mlds::server::ServerOptions options;  // default two workers
  options.max_sessions = static_cast<int>(workload.sessions()) + 4;
  served->server = std::make_unique<mlds::server::MldsServer>(system, options);
  MLDS_RETURN_IF_ERROR(served->server->Start());
  return served->pool.Connect("127.0.0.1", served->server->port(),
                              workload.sessions(), workload.connections(),
                              "perfbench");
}

void Stop(Served* served) {
  (void)served->pool.Close();
  if (served->server != nullptr) served->server->Shutdown();
}

/// Runs the workload's post-run audit on a connection of its own.
void Audit(Workload& workload, uint16_t port, Tally* tally) {
  mlds::client::MldsClient client;
  if (Status status = client.Connect("127.0.0.1", port, "perfbench-audit");
      !status.ok()) {
    ++tally->errors;
    tally->Problem("audit connect: " + status.ToString());
    return;
  }
  std::vector<std::string> problems;
  workload.Audit(client, &problems);
  (void)client.Close();
  for (std::string& problem : problems) {
    ++tally->wrong;
    tally->Problem("audit: " + problem);
  }
}

// ---------------------------------------------------------------------
// Metrics

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

/// A fixed hash-map build and probe, timed: how fast the shared host ran
/// at the start and end of a run, for reading run-to-run drift. It is
/// metadata, not a metric.
double HostProbeMs() {
  const Clock::time_point start = Clock::now();
  std::unordered_map<uint64_t, uint64_t> map;
  constexpr uint64_t kKeys = 200000;
  for (uint64_t i = 0; i < kKeys; ++i) map[Mix(1, i)] = i;
  uint64_t sum = 0;
  for (uint64_t i = 0; i < kKeys; ++i) sum += map[Mix(1, i)];
  const double ms = MsBetween(start, Clock::now());
  return sum == kKeys * (kKeys - 1) / 2 ? ms : -ms;
}

Json HostJson(const Options& options) {
  return Json()
      .Int("nproc", std::thread::hardware_concurrency())
      .Str("compiler", __VERSION__)
      .Str("build_type", MLDS_PERFBENCH_BUILD_TYPE)
      .Str("source_digest", options.source_digest)
      .Str("data_dir_filesystem", FilesystemOf(options.data_dir));
}

/// Both sleep-based disk emulations must stay off. MBDS backends report
/// the latency_ms_per_block they were built with; the single engine is
/// built from default options. The controller's latency_scale has no
/// getter, so every MBDS build sets it to 0 explicitly (see Workload).
Json EmulationJson(MldsSystem* system) {
  double per_block = MldsSystem::Options{}.engine.latency_ms_per_block;
  if (mlds::mbds::Controller* controller = system->controller()) {
    for (int b = 0; b < controller->num_backends(); ++b) {
      per_block = std::max(
          per_block, controller->backend(b).engine_options().latency_ms_per_block);
    }
  }
  const double scale = 0;
  return Json()
      .Num("latency_ms_per_block", per_block)
      .Num("latency_scale", scale)
      .Bool("both_zero", per_block == 0 && scale == 0);
}

/// Merges the phases that match `traced`.
Phase Merge(const std::vector<Phase>& phases, bool traced) {
  Phase merged;
  merged.traced = traced;
  for (const Phase& phase : phases) {
    if (phase.traced != traced) continue;
    merged.seconds += phase.seconds;
    merged.statements += phase.statements;
    for (size_t c = 0; c < kTimedClasses; ++c) {
      ClassStats& to = merged.cls[c];
      const ClassStats& from = phase.cls[c];
      to.ms.insert(to.ms.end(), from.ms.begin(), from.ms.end());
      to.first_chunk_ms.insert(to.first_chunk_ms.end(),
                               from.first_chunk_ms.begin(),
                               from.first_chunk_ms.end());
      to.rows += from.rows;
      to.bytes += from.bytes;
    }
  }
  return merged;
}

double Rate(double count, double seconds) {
  return seconds > 0 ? count / seconds : 0;
}
double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// The per-class latencies, each with its unit and sample count, for the
/// classes this workload has.
Json ClassJson(const Phase& phase) {
  Json out;
  const double tails[] = {99, 99, 90};
  for (size_t c = 0; c < kTimedClasses; ++c) {
    const ClassStats& stats = phase.cls[c];
    if (stats.ms.empty()) continue;
    const Tail tail = TailOf(stats.ms, tails[c]);
    const std::string name = ClassName(static_cast<StmtClass>(c));
    const std::string tail_name =
        name + "_p" + std::to_string(static_cast<int>(tails[c])) + "_ms";
    out.Metric(name + "_p50_ms", Quantile(stats.ms, 0.5), "ms");
    out.Obj(tail_name, Json()
                           .Num("value", tail.value)
                           .Str("unit", "ms")
                           .Num("percentile_used", tail.pct)
                           .Int("samples", static_cast<int64_t>(tail.samples)));
    out.Metric(name + "_per_s", Rate(stats.ms.size(), phase.seconds), "1/s");
    if (!stats.first_chunk_ms.empty()) {
      out.Obj("first_chunk_p50_ms",
              Json()
                  .Num("value", Quantile(stats.first_chunk_ms, 0.5))
                  .Str("unit", "ms")
                  .Int("samples",
                       static_cast<int64_t>(stats.first_chunk_ms.size())));
    }
  }
  return out;
}

/// The statement class a workload's read latency comes from.
size_t ReadClass(const Phase& phase) {
  return phase.cls[ClassIndex(StmtClass::kScan)].ms.empty()
             ? ClassIndex(StmtClass::kPoint)
             : ClassIndex(StmtClass::kScan);
}

struct Cumulative {
  mlds::kms::TranslationCache::Stats cache;
  mlds::kds::PoolCounters pool;
  uint64_t wal_bytes = 0;
};

Cumulative Snapshot(MldsSystem* system) {
  Cumulative c;
  c.cache = system->translation_cache().stats();
  c.pool = system->executor()->PoolStats();
  if (mlds::mbds::Controller* controller = system->controller()) {
    for (int b = 0; b < controller->num_backends(); ++b) {
      c.wal_bytes += controller->backend(b).wal().bytes();
    }
  }
  return c;
}

// ---------------------------------------------------------------------
// Untraced run: the end-to-end metrics

struct Report {
  bool correct = false;
  Tally tally;
  Json metrics;
  Json detail;
  Json emulation;
};

Report RunPlain(const Options& options, Workload& workload,
                const std::string& dir) {
  Report report;
  Result<Setup> setup = SetUp(workload, dir + "/db", kSetupRepeats);
  if (!setup.ok()) {
    report.tally.Problem("setup: " + setup.status().ToString());
    ++report.tally.errors;
    return report;
  }
  // Memory the loaded, warmed system holds before any statement runs. The
  // whole run's peak is reported beside it in the detail; it is not the
  // gated figure because ingest_mixed's grows with every row ingested.
  const double setup_rss = PeakRssMb();
  MldsSystem* system = setup->system.get();
  report.emulation = EmulationJson(system);
  std::vector<std::unique_ptr<Script>> scripts = workload.MakeScripts();
  Served served;
  if (Status status = Serve(system, workload, &served); !status.ok()) {
    report.tally.Problem("serve: " + status.ToString());
    ++report.tally.errors;
    Stop(&served);
    return report;
  }

  WireLoop loop(&served.pool, &scripts, &report.tally);
  const double warmup = std::max(0.5, options.seconds * 0.1);
  loop.Run(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(warmup)),
             nullptr, nullptr);
  std::vector<Phase> phases(1);
  loop.Run(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(options.seconds)),
             &phases[0], nullptr);
  loop.Drain();
  Audit(workload, served.server->port(), &report.tally);
  double after_points = 0;
  double after_scans = 0;
  Result<Json> points_after =
      ExplainProbes(system, workload.PointProbes(), &after_points);
  Result<Json> scans_after =
      ExplainProbes(system, workload.ScanProbes(), &after_scans);
  if (!points_after.ok() || !scans_after.ok()) {
    ++report.tally.errors;
    report.tally.Problem("explain after run failed");
  }
  Stop(&served);

  const Phase& phase = phases[0];
  const ClassStats& read = phase.cls[ReadClass(phase)];
  const double setup_s = Quantile(setup->seconds, 0.5);
  const double peak_rss = PeakRssMb();
  const WindowRates slices = RatesBySlice(phase, kSlices);
  const double stmt_rate = Quantile(slices.statements, 0.5);
  const double row_rate = Quantile(slices.rows, 0.5);

  report.metrics.Metric("setup_s", setup_s, "s")
      .Metric("stmt_per_s", stmt_rate, "1/s")
      .Metric("read_p50_ms",
              SliceQuantile(read, phase.seconds, 0.5, kSlices), "ms")
      // p90, not the p99 the run detail reports per class: on a shared
      // host the p99 of a sub-millisecond read moves with every stall.
      .Metric("read_p90_ms",
              SliceQuantile(read, phase.seconds, 0.9, kSlices), "ms")
      .Metric("rows_per_s", row_rate, "rows/s")
      .Metric("setup_rss_mb", setup_rss, "MB");

  Json classes = ClassJson(phase);
  const ClassStats& scans = phase.cls[ClassIndex(StmtClass::kScan)];
  const ClassStats& writes = phase.cls[ClassIndex(StmtClass::kWrite)];
  if (!scans.ms.empty()) {
    classes.Metric("scan_rows_per_s", Rate(scans.rows, phase.seconds), "rows/s");
  }
  if (workload.name() == "ingest_mixed") {
    classes.Metric("ingest_rows_per_s", Rate(writes.rows, phase.seconds),
                 "rows/s");
  }
  classes.Metric("setup_s", setup_s, "s")
      .Metric("stmt_per_s", stmt_rate, "1/s")
      .Metric("error_rate",
              Ratio(report.tally.failed(), report.tally.attempted), "ratio")
      .Metric("peak_rss_mb", peak_rss, "MB");

  report.detail.Obj("class_metrics", classes)
      .Raw("setup_runs_s", JsonArray(setup->seconds))
      .Num("timed_seconds", phase.seconds)
      .Raw("stmt_per_s_by_slice", JsonArray(slices.statements))
      .Int("pool_pages_per_backend", static_cast<int64_t>(setup->pool_pages))
      .Int("partition_pages", static_cast<int64_t>(setup->partition_pages))
      .Obj("plan_rows_before_run", Json()
                                       .Num("point_mean", setup->plan_rows_per_point)
                                       .Obj("points", setup->point_plans)
                                       .Num("scan_mean", setup->plan_rows_per_scan)
                                       .Obj("scans", setup->scan_plans))
      .Obj("plan_rows_after_run",
           Json()
               .Num("point_mean", after_points)
               .Obj("points", points_after.ok() ? *points_after : Json())
               .Num("scan_mean", after_scans)
               .Obj("scans", scans_after.ok() ? *scans_after : Json()));
  report.correct = report.tally.failed() == 0;
  return report;
}

// ---------------------------------------------------------------------
// Traced run: the per-layer metrics

/// One replayed statement.
struct Replayed {
  StmtClass cls = StmtClass::kPoint;
  std::string language;
  bool layered = false;  ///< through LayeredSession, else server::Session
  uint32_t request = 0;
  uint64_t rows = 0;
  uint64_t bytes = 0;
  KernelTally kernel;
};

/// Replays `stream` in process on `system`: ops of even number through
/// server::Session, odd ones through LayeredSession, so each path keeps
/// whole ops (a CODASYL lookup's MOVE and FIND share one machine).
std::vector<Replayed> Replay(MldsSystem* system,
                             const std::vector<std::pair<size_t, Stmt>>& stream,
                             size_t sessions, double budget_s, Tracer* tracer,
                             Tally* tally) {
  TracingExecutor executor(system, tracer);
  std::vector<std::unique_ptr<mlds::server::Session>> plain;
  std::vector<std::unique_ptr<LayeredSession>> layered;
  std::vector<std::pair<std::string, std::string>> bound(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    plain.push_back(std::make_unique<mlds::server::Session>(
        static_cast<uint32_t>(s + 1), system));
    layered.push_back(
        std::make_unique<LayeredSession>(system, &executor, tracer));
  }
  std::vector<Replayed> out;
  const Clock::time_point start = Clock::now();
  uint32_t request = 0;
  for (const auto& [s, stmt] : stream) {
    if (SecondsSince(start) > budget_s) break;
    Replayed r;
    r.cls = stmt.cls;
    r.language = stmt.language;
    r.layered = stmt.op % 2 == 1;
    r.request = ++request;
    r.rows = stmt.rows;
    tracer->set_request(r.request);
    Result<std::string> body = std::string();
    if (r.layered) {
      executor.Take();
      body = layered[s]->Execute(stmt);
      r.kernel = executor.Take();
    } else {
      if (bound[s] != std::make_pair(stmt.language, stmt.database)) {
        if (Status use = plain[s]->Use({stmt.language, stmt.database});
            !use.ok()) {
          ++tally->attempted;
          ++tally->errors;
          tally->Problem("replay use: " + use.ToString());
          continue;
        }
        bound[s] = {stmt.language, stmt.database};
      }
      const int32_t span = tracer->Begin("session");
      Result<mlds::wire::ExecuteResult> result =
          stmt.batch.empty()
              ? plain[s]->Execute(stmt.text, false)
              : plain[s]->ExecuteBatch({stmt.text, stmt.batch});
      tracer->End(span);
      if (result.ok()) {
        body = std::move(result->body);
      } else {
        body = result.status();
      }
    }
    ++tally->attempted;
    if (!body.ok()) {
      ++tally->errors;
      tally->Problem("replay " + stmt.text + ": " + body.status().ToString());
      continue;
    }
    if (std::string wrong = Verify(stmt, *body); !wrong.empty()) {
      ++tally->wrong;
      tally->Problem("replay " + stmt.text + ": " + wrong);
      continue;
    }
    r.bytes = body->size();
    out.push_back(std::move(r));
  }
  return out;
}

/// Per-statement layer times of the replay, keyed by request.
struct LayerTimes {
  double session = 0;  ///< server::Session::Execute, whole
  double kms_total = 0;
  double kms_self = 0;
  double kc_total = 0;
  double kfs = 0;
};

std::map<uint32_t, LayerTimes> LayerTimesByRequest(const Tracer& tracer) {
  std::map<uint32_t, LayerTimes> times;
  const std::vector<double> self = tracer.SelfUs();
  const std::vector<Span>& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const std::string_view name = span.name;
    LayerTimes& t = times[span.request];
    const double duration = Tracer::DurationUs(span);
    if (name == "session") {
      t.session += duration;
    } else if (name == "kms") {
      t.kms_total += duration;
      t.kms_self += self[i];
    } else if (name == "kc") {
      t.kc_total += duration;
    } else if (name == "kfs") {
      t.kfs += duration;
    }
  }
  return times;
}

Report RunTraced(const Options& options, Workload& workload,
                 const std::string& dir) {
  Report report;
  Result<Setup> setup = SetUp(workload, dir + "/db", 1);
  if (!setup.ok()) {
    report.tally.Problem("setup: " + setup.status().ToString());
    ++report.tally.errors;
    return report;
  }
  MldsSystem* system = setup->system.get();
  report.emulation = EmulationJson(system);
  std::vector<std::unique_ptr<Script>> scripts = workload.MakeScripts();
  Served served;
  if (Status status = Serve(system, workload, &served); !status.ok()) {
    report.tally.Problem("serve: " + status.ToString());
    ++report.tally.errors;
    Stop(&served);
    return report;
  }

  // Phase 1: the wire loop in four stretches, traced / untraced /
  // untraced / traced, so drift in the data (ingest grows its files)
  // falls on both sides of the overhead comparison. The whole stream is
  // recorded from the first statement, so the replay starts from the
  // same state as the wire run did.
  Tracer wire_tracer;
  WireLoop loop(&served.pool, &scripts, &report.tally);
  loop.set_recording(true);
  const Cumulative before = Snapshot(system);
  const double stretch = std::max(0.25, options.seconds / 4);
  std::vector<Phase> phases(4);
  for (size_t p = 0; p < phases.size(); ++p) {
    phases[p].traced = p == 0 || p == 3;
    loop.Run(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(stretch)),
               &phases[p], phases[p].traced ? &wire_tracer : nullptr);
  }
  loop.Drain();
  const Cumulative after = Snapshot(system);
  const mlds::server::ServerStats server_stats = served.server->stats();
  Audit(workload, served.server->port(), &report.tally);
  Stop(&served);
  setup->system.reset();

  const Phase traced = Merge(phases, true);
  const Phase untraced = Merge(phases, false);
  const double traced_rate = Rate(traced.statements, traced.seconds);
  const double untraced_rate = Rate(untraced.statements, untraced.seconds);

  // Phase 2: replay on a fresh system built from the same seed.
  Tracer tracer;
  std::vector<Replayed> replayed;
  {
    std::unique_ptr<Workload> fresh =
        MakeWorkload(workload.name(), options.seed, options.tiny);
    Result<Setup> replay_setup = SetUp(*fresh, dir + "/replay", 1);
    if (!replay_setup.ok()) {
      ++report.tally.errors;
      report.tally.Problem("replay setup: " + replay_setup.status().ToString());
      return report;
    }
    replayed = Replay(replay_setup->system.get(), loop.recorded(),
                      workload.sessions(), std::max(0.5, options.seconds / 2),
                      &tracer, &report.tally);
  }
  std::filesystem::create_directories(options.out_dir);
  const std::string trace_path = options.out_dir + "/trace_" +
                                 workload.name() + "_" +
                                 std::to_string(options.seed) + ".csv";
  const bool written = tracer.Write(trace_path, kSpanWriteLimit) &&
                       wire_tracer.Write(options.out_dir + "/wire_" +
                                             workload.name() + "_" +
                                             std::to_string(options.seed) +
                                             ".csv",
                                         kSpanWriteLimit);

  // Per-class layer self times.
  const std::map<uint32_t, LayerTimes> times = LayerTimesByRequest(tracer);
  struct ClassLayers {
    std::vector<double> session, layered, kms_self, kc_glue, mbds, kds, kfs;
    uint64_t wire_n = 0;
  };
  std::array<ClassLayers, kTimedClasses> by_class;
  std::map<std::string, std::vector<double>> session_by_language;
  std::vector<double> kc_calls, fanout, merge, skew, kms_self_all;
  double calls = 0, retrieves_inserting = 0, inserted = 0, layered_stmts = 0;
  double blocks_read = 0, blocks_written = 0, examined = 0, probes = 0;
  double rows_written = 0, rows_layered = 0, kfs_us = 0, kfs_bytes = 0;
  for (const Replayed& r : replayed) {
    const LayerTimes& t = times.at(r.request);
    ClassLayers& layers = by_class[ClassIndex(r.cls)];
    if (!r.layered) {
      layers.session.push_back(t.session);
      session_by_language[r.language].push_back(t.session);
      continue;
    }
    const KernelTally& k = r.kernel;
    layers.layered.push_back(t.kms_total + t.kfs);
    layers.kms_self.push_back(t.kms_self);
    layers.kc_glue.push_back(std::max(0.0, t.kc_total - k.kds_us - k.mbds_us));
    layers.mbds.push_back(k.mbds_us);
    layers.kds.push_back(k.kds_us);
    layers.kfs.push_back(t.kfs);
    kms_self_all.push_back(t.kms_self);
    kc_calls.insert(kc_calls.end(), k.execute_us.begin(), k.execute_us.end());
    fanout.insert(fanout.end(), k.fanout_us.begin(), k.fanout_us.end());
    merge.insert(merge.end(), k.merge_us.begin(), k.merge_us.end());
    skew.insert(skew.end(), k.skew.begin(), k.skew.end());
    ++layered_stmts;
    calls += k.calls;
    if (k.inserted_rows > 0) {
      retrieves_inserting += k.retrieves;
      inserted += k.inserted_rows;
    }
    blocks_read += k.io.blocks_read;
    blocks_written += k.io.blocks_written;
    examined += k.io.records_examined;
    probes += k.io.index_probes;
    if (r.cls == StmtClass::kWrite) rows_written += r.rows;
    rows_layered += r.rows;
    kfs_us += t.kfs;
    kfs_bytes += r.bytes;
  }
  for (size_t c = 0; c < kTimedClasses; ++c) {
    by_class[c].wire_n = traced.cls[c].ms.size();
  }

  // Derived per-class self times: the wire's is the client round trip
  // minus in-process Session::Execute; the session's is Session::Execute
  // minus the layers under it, replayed on the other path.
  Json per_class;
  double tax_sum = 0, session_sum = 0, weight = 0;
  for (size_t c = 0; c < kTimedClasses; ++c) {
    const ClassLayers& l = by_class[c];
    if (l.session.empty() || l.layered.empty() || l.wire_n == 0) continue;
    const double session_p50 = Quantile(l.session, 0.5);
    const std::vector<std::pair<const char*, double>> self = {
        // Frames, sockets, the event loop and waiting for a worker.
        {"client_server",
         Quantile(traced.cls[c].ms, 0.5) * 1000.0 - session_p50},
        {"session", session_p50 - Quantile(l.layered, 0.5)},
        {"kms", Quantile(l.kms_self, 0.5)},
        {"kc", Quantile(l.kc_glue, 0.5)},
        {"mbds", Quantile(l.mbds, 0.5)},
        {"kds", Quantile(l.kds, 0.5)},
        {"kfs", Quantile(l.kfs, 0.5)},
    };
    Json layers;
    const char* dominant = self[0].first;
    double largest = self[0].second;
    for (const auto& [layer, us] : self) {
      layers.Num(layer, us);
      if (us > largest) {
        largest = us;
        dominant = layer;
      }
    }
    per_class.Obj(ClassName(static_cast<StmtClass>(c)), Json()
                                      .Obj("self_us_p50", layers)
                                      .Str("largest_self_time", dominant)
                                      .Int("wire_samples", l.wire_n)
                                      .Int("session_samples", l.session.size())
                                      .Int("layered_samples", l.layered.size()));
    tax_sum += self[0].second * l.wire_n;
    session_sum += self[1].second * l.wire_n;
    weight += l.wire_n;
  }

  uint64_t wire_bytes = 0, wire_rows_written = 0, wire_statements = 0;
  for (const Phase& phase : phases) {
    for (size_t c = 0; c < kTimedClasses; ++c) wire_bytes += phase.cls[c].bytes;
    wire_rows_written += phase.cls[ClassIndex(StmtClass::kWrite)].rows;
    wire_statements += phase.statements;
  }
  const uint64_t cache_hits = after.cache.hits - before.cache.hits;
  const uint64_t cache_misses = after.cache.misses - before.cache.misses;
  const uint64_t pool_hits = after.pool.hits - before.pool.hits;
  const uint64_t pool_misses = after.pool.misses - before.pool.misses;

  Json& m = report.metrics;
  m.Metric("wire.tax_us", Ratio(tax_sum, weight), "us")
      .Metric("wire.result_bytes_per_stmt", Ratio(wire_bytes, wire_statements),
              "bytes")
      .Metric("server.busy_rejects",
              server_stats.requests_rejected + server_stats.sessions_rejected,
              "count")
      .Metric("server.inflight_highwater", server_stats.inflight_highwater,
              "count")
      .Metric("server.chunks_per_result",
              Ratio(server_stats.chunks_streamed, server_stats.results_streamed),
              "count")
      .Metric("server.backpressure_stalls_per_result",
              Ratio(server_stats.backpressure_stalls,
                    server_stats.results_streamed),
              "count")
      .Metric("session.self_us", Ratio(session_sum, weight), "us")
      .Metric("kms.self_us", Quantile(kms_self_all, 0.5), "us")
      .Metric("kms.cache_hit_rate", Ratio(cache_hits, cache_hits + cache_misses),
              "ratio")
      .Metric("kms.abdl_per_stmt", Ratio(calls, layered_stmts), "count")
      .Metric("kms.retrieves_per_inserted_row",
              Ratio(retrieves_inserting, inserted), "count")
      .Metric("kc.execute_p50_us", Quantile(kc_calls, 0.5), "us")
      .Metric("kc.execute_p99_us", TailOf(kc_calls, 99).value, "us")
      .Metric("kds.blocks_read_per_req", Ratio(blocks_read, calls), "count")
      .Metric("kds.blocks_written_per_row", Ratio(blocks_written, rows_written),
              "count")
      .Metric("kds.records_examined_per_row", Ratio(examined, rows_layered),
              "count")
      .Metric("kds.index_probes_per_req", Ratio(probes, calls), "count")
      .Metric("kds.pool_hit_rate", Ratio(pool_hits, pool_hits + pool_misses),
              "ratio")
      .Metric("kds.pool_evictions_per_stmt",
              Ratio(after.pool.evictions - before.pool.evictions,
                    wire_statements),
              "count")
      .Metric("kds.dirty_writebacks_per_stmt",
              Ratio(after.pool.dirty_writebacks - before.pool.dirty_writebacks,
                    wire_statements),
              "count")
      .Metric("kds.plan_rows_per_point", setup->plan_rows_per_point, "rows")
      .Metric("mbds.fanout_p50_us", Quantile(fanout, 0.5), "us")
      .Metric("mbds.backend_skew",
              skew.empty() ? 0
                           : std::accumulate(skew.begin(), skew.end(), 0.0) /
                                 skew.size(),
              "ratio")
      .Metric("mbds.wal_bytes_per_row",
              Ratio(after.wal_bytes - before.wal_bytes, wire_rows_written),
              "bytes")
      .Metric("kfs.format_us_per_row", Ratio(kfs_us, rows_layered), "us")
      .Metric("kfs.bytes_per_row", Ratio(kfs_bytes, rows_layered), "bytes")
      .Metric("trace.overhead_pct",
              untraced_rate > 0 ? (untraced_rate - traced_rate) / untraced_rate * 100
                                : 0,
              "%");

  Json languages;
  for (const auto& [language, us] : session_by_language) {
    languages.Metric("session." + language + ".p50_us", Quantile(us, 0.5), "us");
  }
  report.detail.Obj("per_class", per_class)
      .Obj("session_by_language", languages)
      .Obj("mbds_merge_us",
           Json()
               .Num("p50", Quantile(merge, 0.5))
               .Bool("applies", !merge.empty()))
      .Num("traced_stmt_per_s", traced_rate)
      .Num("untraced_stmt_per_s", untraced_rate)
      .Int("replayed_statements", static_cast<int64_t>(replayed.size()))
      .Int("recorded_statements", static_cast<int64_t>(loop.recorded().size()))
      .Int("spans", static_cast<int64_t>(tracer.spans().size()))
      .Str("span_file", written ? trace_path : "not written")
      .Obj("plan_rows_before_run", Json()
                                       .Num("point_mean", setup->plan_rows_per_point)
                                       .Obj("points", setup->point_plans)
                                       .Num("scan_mean", setup->plan_rows_per_scan)
                                       .Obj("scans", setup->scan_plans));
  report.correct = report.tally.failed() == 0;
  return report;
}

// ---------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--tiny") {
      options->tiny = true;
    } else if (arg == "--workload") {
      if (!value(&options->workload)) return false;
    } else if (arg == "--seed") {
      if (!value(&v)) return false;
      options->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      if (!value(&v)) return false;
      options->seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      if (!value(&v)) return false;
      options->trace = v == "1";
    } else if (arg == "--data-dir") {
      if (!value(&options->data_dir)) return false;
    } else if (arg == "--out-dir") {
      if (!value(&options->out_dir)) return false;
    } else if (arg == "--source-digest") {
      if (!value(&options->source_digest)) return false;
    } else {
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: mlds_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--data-dir DIR] [--out-dir DIR] [--tiny] "
                 "[--source-digest HEX]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload =
      MakeWorkload(options.workload, options.seed, options.tiny);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  const std::string dir = options.data_dir + "/" + workload->name() + "-" +
                          std::to_string(::getpid());
  Wipe(dir);
  const Clock::time_point start = Clock::now();
  const double probe_before = HostProbeMs();
  Report report = options.trace ? RunTraced(options, *workload, dir)
                                : RunPlain(options, *workload, dir);
  std::filesystem::remove_all(dir);
  const double probe_after = HostProbeMs();

  for (const std::string& problem : report.tally.problems) {
    std::fprintf(stderr, "problem: %s\n", problem.c_str());
  }
  Json meta;
  meta.Str("workload", workload->name())
      .Int("seed", static_cast<int64_t>(options.seed))
      .Num("seconds", options.seconds)
      .Bool("trace", options.trace)
      .Bool("tiny", options.tiny)
      .Str("loop", "closed: one statement in flight per session, one client "
                   "thread, latency from submit to collected reply")
      .Obj("host", HostJson(options))
      .Obj("emulation", report.emulation)
      .Obj("params", workload->Params())
      .Int("errors", static_cast<int64_t>(report.tally.errors))
      .Int("busy", static_cast<int64_t>(report.tally.busy))
      .Int("wrong_outputs", static_cast<int64_t>(report.tally.wrong))
      .Num("run_wall_s", SecondsSince(start))
      .Raw("host_probe_ms", JsonArray({probe_before, probe_after}))
      .Obj("detail", report.detail);
  std::printf("%s\n", Json().Obj("run", meta).str().c_str());
  std::printf("%s\n",
              Json()
                  .Bool("correct", report.correct)
                  .Int("attempted", static_cast<int64_t>(report.tally.attempted))
                  .Int("failed", static_cast<int64_t>(report.tally.failed()))
                  .Obj("metrics", report.metrics)
                  .str()
                  .c_str());
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
}
