#ifndef MLDS_SERVER_WIRE_H_
#define MLDS_SERVER_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "abdm/value.h"
#include "common/counters.h"
#include "common/frame.h"
#include "common/result.h"
#include "common/status.h"
#include "kds/engine.h"

namespace mlds::wire {

/// Message types carried in the frame header's `type` byte. Requests
/// occupy the low half, responses the high half. Since protocol v2
/// clients may pipeline: several requests can be in flight on one
/// connection, responses carry the request_id they answer and may
/// arrive out of order across sessions (never within one session's
/// execution order), and a large result travels as a run of kResultChunk
/// frames closed by the kResult frame.
enum class FrameType : uint8_t {
  // --- requests ---
  kHello = 0x01,     ///< open connection + first session; payload: name.
  kUse = 0x02,       ///< bind a language + database; payload: UseRequest.
  kExecute = 0x03,   ///< run one statement; payload: statement text.
  kExplain = 0x04,   ///< run one statement in explain mode; same payload.
  kHealth = 0x05,    ///< kernel health; empty payload.
  kStats = 0x06,     ///< admin: cache/server stats; empty payload.
  kBye = 0x07,       ///< close the connection after draining; empty.
  kShutdown = 0x08,  ///< admin: drain and stop the whole server.
  kOpenSession = 0x09,   ///< open another session on this connection.
  kCloseSession = 0x0A,  ///< close the session named in the header.
  kBatch = 0x0B,         ///< bulk DML; payload: BatchRequest.
  kVerify = 0x0C,        ///< admin: scrub storage integrity; empty.

  // --- responses ---
  kOk = 0x81,           ///< payload: informational message.
  kResult = 0x82,       ///< payload: ExecuteResult (closes a chunk run).
  kError = 0x83,        ///< payload: WireError.
  kBusy = 0x84,         ///< payload: BusyReply (admission-control reject).
  kHealthReport = 0x85, ///< payload: kfs::SerializeHealth text.
  kStatsReport = 0x86,  ///< payload: StatsReply.
  kResultChunk = 0x87,  ///< payload: ResultChunk (one slice of a body).
  kVerifyReport = 0x88, ///< payload: IntegrityReport::ToText text.
};

/// True for types a client may send.
bool IsRequestType(uint8_t type);

/// A USE request: binds the session to one language interface over one
/// loaded database ("sql" over "payroll", "codasyl" over "university",
/// ...). Languages: codasyl | daplex | sql | dli | abdl.
struct UseRequest {
  std::string language;
  std::string database;
};

/// A BATCH request: one parameterized DML template (`?` markers) plus N
/// parameter rows, executed through the bound language's batch interface
/// in one round trip. Every row carries the same number of values — one
/// per `?` in the template.
struct BatchRequest {
  std::string statement;
  std::vector<std::vector<abdm::Value>> rows;
};

/// A successful EXECUTE / EXPLAIN outcome. `body` carries the result
/// rendered by the kfs formatters — byte-identical to what the same
/// statement produces in-process — so the client needs no knowledge of
/// the language's display conventions. The counters mirror the
/// availability layer's ExecutionReport: elapsed wall time plus one
/// partial-result warning per degraded backend.
struct ExecuteResult {
  std::string body;
  double elapsed_ms = 0.0;
  std::vector<kds::PartialResultWarning> warnings;
};

/// A failed request: the Status that in-process execution would return,
/// code preserved across the wire.
struct WireError {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

/// A structured admission-control rejection: the server is at its session
/// cap (`scope == "session"`) or the session's request queue is full
/// (`scope == "request"`). Clients back off instead of queueing
/// invisibly.
struct BusyReply {
  std::string scope;
  uint32_t active = 0;
  uint32_t limit = 0;
};

/// One slice of a streamed result body. A large EXECUTE reply arrives as
/// kResultChunk frames with consecutive `seq` (0, 1, ...) followed by a
/// kResult frame whose ExecuteResult carries the timing/warnings and an
/// empty body; the concatenated chunk bodies are byte-identical to the
/// buffered body. Chunk runs for different request_ids may interleave on
/// one connection — the request_id in the frame header keys reassembly.
struct ResultChunk {
  uint32_t seq = 0;
  std::string body;
};

/// The admin STATS reply: every counter the server serves, named, plus
/// the kernel health, so a remote operator needs no in-process access.
/// On the wire: a u32 count, that many (name, u64 value), the health.
struct StatsReply {
  common::CounterSnapshot counters;
  std::string health;  ///< kfs::SerializeHealth text.

  /// One "name value" line per counter, for shells.
  std::string ToText() const { return counters.ToText(); }

  /// The value of the counter named `name`, if listed.
  std::optional<uint64_t> Find(std::string_view name) const {
    return counters.Find(name);
  }
};

std::string EncodeUseRequest(const UseRequest& request);
Result<UseRequest> DecodeUseRequest(std::string_view payload);

std::string EncodeBatchRequest(const BatchRequest& request);
Result<BatchRequest> DecodeBatchRequest(std::string_view payload);

std::string EncodeExecuteResult(const ExecuteResult& result);
Result<ExecuteResult> DecodeExecuteResult(std::string_view payload);

std::string EncodeWireError(const WireError& error);
Result<WireError> DecodeWireError(std::string_view payload);
/// Rebuilds the in-process Status from a kError payload.
Status DecodeStatus(std::string_view payload);

std::string EncodeBusyReply(const BusyReply& busy);
Result<BusyReply> DecodeBusyReply(std::string_view payload);

std::string EncodeStatsReply(const StatsReply& stats);
Result<StatsReply> DecodeStatsReply(std::string_view payload);

std::string EncodeResultChunk(const ResultChunk& chunk);
Result<ResultChunk> DecodeResultChunk(std::string_view payload);

}  // namespace mlds::wire

#endif  // MLDS_SERVER_WIRE_H_
