#include "server/wire.h"

namespace mlds::wire {

namespace {

constexpr std::string_view kMalformed = "malformed wire payload";

Status Malformed(std::string_view what) {
  return Status::ParseError(std::string(kMalformed) + " (" +
                            std::string(what) + ")");
}

}  // namespace

bool IsRequestType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kVerify);
}

std::string EncodeUseRequest(const UseRequest& request) {
  common::PayloadWriter writer;
  writer.PutString(request.language);
  writer.PutString(request.database);
  return writer.Take();
}

Result<UseRequest> DecodeUseRequest(std::string_view payload) {
  common::PayloadReader reader(payload);
  UseRequest request;
  if (!reader.GetString(&request.language) ||
      !reader.GetString(&request.database) || !reader.exhausted()) {
    return Malformed("USE");
  }
  return request;
}

namespace {

// Value tag bytes of the BATCH row encoding.
constexpr uint8_t kValueNull = 0;
constexpr uint8_t kValueInteger = 1;
constexpr uint8_t kValueFloat = 2;
constexpr uint8_t kValueString = 3;

void PutValue(common::PayloadWriter* writer, const abdm::Value& value) {
  if (value.is_integer()) {
    writer->PutU8(kValueInteger);
    writer->PutU64(static_cast<uint64_t>(value.AsInteger()));
  } else if (value.is_float()) {
    writer->PutU8(kValueFloat);
    writer->PutDouble(value.AsFloat());
  } else if (value.is_string()) {
    writer->PutU8(kValueString);
    writer->PutString(value.AsString());
  } else {
    writer->PutU8(kValueNull);
  }
}

bool GetValue(common::PayloadReader* reader, abdm::Value* value) {
  uint8_t tag = 0;
  if (!reader->GetU8(&tag)) return false;
  switch (tag) {
    case kValueNull:
      *value = abdm::Value::Null();
      return true;
    case kValueInteger: {
      uint64_t v = 0;
      if (!reader->GetU64(&v)) return false;
      *value = abdm::Value::Integer(static_cast<int64_t>(v));
      return true;
    }
    case kValueFloat: {
      double v = 0.0;
      if (!reader->GetDouble(&v)) return false;
      *value = abdm::Value::Float(v);
      return true;
    }
    case kValueString: {
      std::string v;
      if (!reader->GetString(&v)) return false;
      *value = abdm::Value::String(std::move(v));
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

std::string EncodeBatchRequest(const BatchRequest& request) {
  common::PayloadWriter writer;
  writer.PutString(request.statement);
  writer.PutU32(static_cast<uint32_t>(request.rows.size()));
  for (const std::vector<abdm::Value>& row : request.rows) {
    writer.PutU32(static_cast<uint32_t>(row.size()));
    for (const abdm::Value& value : row) {
      PutValue(&writer, value);
    }
  }
  return writer.Take();
}

Result<BatchRequest> DecodeBatchRequest(std::string_view payload) {
  common::PayloadReader reader(payload);
  BatchRequest request;
  uint32_t row_count = 0;
  if (!reader.GetString(&request.statement) || !reader.GetU32(&row_count)) {
    return Malformed("BATCH");
  }
  // Each row needs >= 4 bytes (its value count); checked before reserving
  // so a hostile count cannot force a huge allocation.
  if (static_cast<uint64_t>(row_count) * 4 > reader.remaining()) {
    return Malformed("BATCH row count");
  }
  request.rows.reserve(row_count);
  for (uint32_t i = 0; i < row_count; ++i) {
    uint32_t value_count = 0;
    if (!reader.GetU32(&value_count)) return Malformed("BATCH row");
    // Each value needs >= 1 byte (its tag).
    if (static_cast<uint64_t>(value_count) > reader.remaining()) {
      return Malformed("BATCH value count");
    }
    std::vector<abdm::Value> row;
    row.reserve(value_count);
    for (uint32_t j = 0; j < value_count; ++j) {
      abdm::Value value;
      if (!GetValue(&reader, &value)) return Malformed("BATCH value");
      row.push_back(std::move(value));
    }
    request.rows.push_back(std::move(row));
  }
  if (!reader.exhausted()) return Malformed("BATCH trailer");
  return request;
}

std::string EncodeExecuteResult(const ExecuteResult& result) {
  common::PayloadWriter writer;
  writer.PutString(result.body);
  writer.PutDouble(result.elapsed_ms);
  writer.PutU32(static_cast<uint32_t>(result.warnings.size()));
  for (const kds::PartialResultWarning& warning : result.warnings) {
    writer.PutU32(static_cast<uint32_t>(warning.backend_id));
    writer.PutString(warning.state);
    writer.PutString(warning.detail);
  }
  return writer.Take();
}

Result<ExecuteResult> DecodeExecuteResult(std::string_view payload) {
  common::PayloadReader reader(payload);
  ExecuteResult result;
  uint32_t warning_count = 0;
  if (!reader.GetString(&result.body) || !reader.GetDouble(&result.elapsed_ms) ||
      !reader.GetU32(&warning_count)) {
    return Malformed("RESULT");
  }
  // Each warning needs >= 12 bytes; checked before reserving so a hostile
  // count cannot force a huge allocation.
  if (static_cast<uint64_t>(warning_count) * 12 > reader.remaining()) {
    return Malformed("RESULT warning count");
  }
  result.warnings.reserve(warning_count);
  for (uint32_t i = 0; i < warning_count; ++i) {
    kds::PartialResultWarning warning;
    uint32_t backend_id = 0;
    if (!reader.GetU32(&backend_id) || !reader.GetString(&warning.state) ||
        !reader.GetString(&warning.detail)) {
      return Malformed("RESULT warning");
    }
    warning.backend_id = static_cast<int>(backend_id);
    result.warnings.push_back(std::move(warning));
  }
  if (!reader.exhausted()) return Malformed("RESULT trailer");
  return result;
}

std::string EncodeWireError(const WireError& error) {
  common::PayloadWriter writer;
  writer.PutU8(static_cast<uint8_t>(error.code));
  writer.PutString(error.message);
  return writer.Take();
}

Result<WireError> DecodeWireError(std::string_view payload) {
  common::PayloadReader reader(payload);
  WireError error;
  uint8_t code = 0;
  if (!reader.GetU8(&code) || !reader.GetString(&error.message) ||
      !reader.exhausted()) {
    return Malformed("ERROR");
  }
  if (code > static_cast<uint8_t>(StatusCode::kCorruption) ||
      code == static_cast<uint8_t>(StatusCode::kOk)) {
    // An unknown or OK code in an error frame: keep the message but
    // classify it as internal rather than inventing a category.
    error.code = StatusCode::kInternal;
  } else {
    error.code = static_cast<StatusCode>(code);
  }
  return error;
}

Status DecodeStatus(std::string_view payload) {
  Result<WireError> error = DecodeWireError(payload);
  if (!error.ok()) return error.status();
  return Status(error->code, std::move(error->message));
}

std::string EncodeBusyReply(const BusyReply& busy) {
  common::PayloadWriter writer;
  writer.PutString(busy.scope);
  writer.PutU32(busy.active);
  writer.PutU32(busy.limit);
  return writer.Take();
}

Result<BusyReply> DecodeBusyReply(std::string_view payload) {
  common::PayloadReader reader(payload);
  BusyReply busy;
  if (!reader.GetString(&busy.scope) || !reader.GetU32(&busy.active) ||
      !reader.GetU32(&busy.limit) || !reader.exhausted()) {
    return Malformed("BUSY");
  }
  return busy;
}

std::string EncodeStatsReply(const StatsReply& stats) {
  common::PayloadWriter writer;
  const auto& entries = stats.counters.entries();
  writer.PutU32(static_cast<uint32_t>(entries.size()));
  for (const common::CounterSnapshot::Entry& entry : entries) {
    writer.PutString(entry.name);
    writer.PutU64(entry.value);
  }
  writer.PutString(stats.health);
  return writer.Take();
}

Result<StatsReply> DecodeStatsReply(std::string_view payload) {
  // The smallest entry: a u32 name length, a one-byte name, a u64 value.
  constexpr size_t kMinEntryBytes = 4 + 1 + 8;
  common::PayloadReader reader(payload);
  StatsReply stats;
  uint32_t count = 0;
  // A forged count is refused before anything is sized by it.
  if (!reader.GetU32(&count) || count > reader.remaining() / kMinEntryBytes) {
    return Malformed("STATS");
  }
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    uint64_t value = 0;
    if (!reader.GetString(&name) || name.empty() || !reader.GetU64(&value)) {
      return Malformed("STATS");
    }
    stats.counters.Add(name, value);
  }
  if (!reader.GetString(&stats.health) || !reader.exhausted()) {
    return Malformed("STATS");
  }
  return stats;
}

std::string EncodeResultChunk(const ResultChunk& chunk) {
  common::PayloadWriter writer;
  writer.PutU32(chunk.seq);
  writer.PutString(chunk.body);
  return writer.Take();
}

Result<ResultChunk> DecodeResultChunk(std::string_view payload) {
  common::PayloadReader reader(payload);
  ResultChunk chunk;
  if (!reader.GetU32(&chunk.seq) || !reader.GetString(&chunk.body) ||
      !reader.exhausted()) {
    return Malformed("RESULT_CHUNK");
  }
  return chunk;
}

}  // namespace mlds::wire
