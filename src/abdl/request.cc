#include "abdl/request.h"

#include <algorithm>

namespace mlds::abdl {

namespace {

std::string_view AggregateOpToString(AggregateOp op) {
  switch (op) {
    case AggregateOp::kNone:
      return "";
    case AggregateOp::kCount:
      return "COUNT";
    case AggregateOp::kSum:
      return "SUM";
    case AggregateOp::kAvg:
      return "AVG";
    case AggregateOp::kMin:
      return "MIN";
    case AggregateOp::kMax:
      return "MAX";
  }
  return "";
}

}  // namespace

std::string Modifier::ToString() const {
  switch (kind) {
    case ModifierKind::kSet:
      return "(" + attribute + " = " + operand.ToString() + ")";
    case ModifierKind::kAdd:
      return "(" + attribute + " = " + attribute + " + " + operand.ToString() +
             ")";
  }
  return "";
}

void Modifier::ApplyTo(abdm::Record& record) const {
  if (kind == ModifierKind::kSet) {
    record.Set(attribute, operand);
    return;
  }
  const abdm::Value cur = record.GetOrNull(attribute);
  if (!cur.is_numeric() || !operand.is_numeric()) return;
  record.Set(attribute,
             cur.is_integer() && operand.is_integer()
                 ? abdm::Value::Integer(cur.AsInteger() + operand.AsInteger())
                 : abdm::Value::Float(cur.AsFloat() + operand.AsFloat()));
}

std::string TargetItem::ToString() const {
  if (aggregate == AggregateOp::kNone) return attribute;
  std::string out(AggregateOpToString(aggregate));
  out += "(";
  out += attribute;
  out += ")";
  return out;
}

std::string_view RequestOperation(const Request& request) {
  struct Visitor {
    std::string_view operator()(const InsertRequest&) { return "INSERT"; }
    std::string_view operator()(const BatchInsertRequest&) { return "INSERT"; }
    std::string_view operator()(const DeleteRequest&) { return "DELETE"; }
    std::string_view operator()(const UpdateRequest&) { return "UPDATE"; }
    std::string_view operator()(const RetrieveRequest&) { return "RETRIEVE"; }
    std::string_view operator()(const RetrieveCommonRequest&) {
      return "RETRIEVE-COMMON";
    }
  };
  return std::visit(Visitor{}, request);
}

bool IsExplain(const Request& request) {
  struct Visitor {
    bool operator()(const InsertRequest&) { return false; }
    bool operator()(const BatchInsertRequest&) { return false; }
    bool operator()(const DeleteRequest& r) { return r.explain; }
    bool operator()(const UpdateRequest& r) { return r.explain; }
    bool operator()(const RetrieveRequest& r) { return r.explain; }
    bool operator()(const RetrieveCommonRequest& r) { return r.explain; }
  };
  return std::visit(Visitor{}, request);
}

void SetExplain(Request& request, bool explain) {
  struct Visitor {
    bool explain;
    void operator()(InsertRequest&) {}
    void operator()(BatchInsertRequest&) {}
    void operator()(DeleteRequest& r) { r.explain = explain; }
    void operator()(UpdateRequest& r) { r.explain = explain; }
    void operator()(RetrieveRequest& r) { r.explain = explain; }
    void operator()(RetrieveCommonRequest& r) { r.explain = explain; }
  };
  std::visit(Visitor{explain}, request);
}

std::string ToString(const Request& request) {
  std::string out;
  AppendToString(request, out);
  return out;
}

void AppendToString(const Request& request, std::string& out) {
  struct Visitor {
    std::string& out;
    void Done(std::string rendered) { out += rendered; }
    void operator()(const InsertRequest& r) {
      out += "INSERT ";
      r.record.AppendTo(out);
    }
    void operator()(const BatchInsertRequest& r) {
      out += "INSERT";
      if (!r.records.empty()) {
        // Size the buffer off the first record so a thousand-row batch
        // renders without reallocation churn.
        const size_t before = out.size();
        out.push_back(' ');
        r.records[0].AppendTo(out);
        const size_t per_record = out.size() - before;
        out.reserve(out.size() + per_record * (r.records.size() - 1));
        for (size_t i = 1; i < r.records.size(); ++i) {
          out.push_back(' ');
          r.records[i].AppendTo(out);
        }
      }
    }
    void operator()(const DeleteRequest& r) {
      Done(Prefix(r.explain) + "DELETE " + r.query.ToString());
    }
    void operator()(const UpdateRequest& r) {
      Done(Prefix(r.explain) + "UPDATE " + r.query.ToString() + " " +
           r.modifier.ToString());
    }
    void operator()(const RetrieveRequest& r) {
      std::string text = Prefix(r.explain) + "RETRIEVE " +
                         r.query.ToString() + " (";
      if (r.all_attributes) {
        text += "all attributes";
      } else {
        for (size_t i = 0; i < r.targets.size(); ++i) {
          if (i > 0) text += ", ";
          text += r.targets[i].ToString();
        }
      }
      text += ")";
      if (r.by_attribute) {
        text += " BY " + *r.by_attribute;
      }
      Done(std::move(text));
    }
    void operator()(const RetrieveCommonRequest& r) {
      std::string text = Prefix(r.explain) + "RETRIEVE-COMMON " +
                         r.left_query.ToString() + " (" + r.left_attribute +
                         ") AND " + r.right_query.ToString() + " (" +
                         r.right_attribute + ") (";
      if (r.targets.empty()) {
        text += "all attributes";
      } else {
        for (size_t i = 0; i < r.targets.size(); ++i) {
          if (i > 0) text += ", ";
          text += r.targets[i].ToString();
        }
      }
      text += ")";
      Done(std::move(text));
    }

    static std::string Prefix(bool explain) {
      return explain ? "EXPLAIN " : "";
    }
  };
  std::visit(Visitor{out}, request);
}

namespace {

/// True when the two sorted-or-small file lists share a name. Footprints
/// hold at most a handful of entries, so the quadratic scan is cheaper
/// than building sets.
bool SharesFile(const std::vector<std::string>& a,
                const std::vector<std::string>& b) {
  for (const auto& file : a) {
    for (const auto& other : b) {
      if (file == other) return true;
    }
  }
  return false;
}

/// Set intersection under the "all files" wildcard: ALL ∩ ALL is taken as
/// non-empty (assuming at least one file exists — conservative), ALL ∩ S
/// is non-empty iff S is.
bool SetsIntersect(const std::vector<std::string>& a, bool a_all,
                   const std::vector<std::string>& b, bool b_all) {
  if (a_all && b_all) return true;
  if (a_all) return !b.empty();
  if (b_all) return !a.empty();
  return SharesFile(a, b);
}

}  // namespace

bool FileFootprint::ConflictsWith(const FileFootprint& later) const {
  // W ∩ W', W ∩ R', R ∩ W' — any overlap orders the pair.
  return SetsIntersect(writes, writes_all, later.writes, later.writes_all) ||
         SetsIntersect(writes, writes_all, later.reads, later.reads_all) ||
         SetsIntersect(reads, reads_all, later.writes, later.writes_all);
}

std::span<const abdm::Record> InsertedRecords(const Request& request) {
  if (const auto* one = std::get_if<InsertRequest>(&request)) {
    return {&one->record, 1};
  }
  if (const auto* batch = std::get_if<BatchInsertRequest>(&request)) {
    return batch->records;
  }
  return {};
}

FileFootprint FootprintOf(const Request& request) {
  struct Visitor {
    FileFootprint operator()(const InsertRequest& r) {
      return Insert({&r.record, 1});
    }
    FileFootprint operator()(const BatchInsertRequest& r) {
      return Insert(r.records);
    }
    static FileFootprint Insert(std::span<const abdm::Record> records) {
      FileFootprint fp;
      for (const abdm::Record& record : records) {
        abdm::Value file = record.GetOrNull(abdm::kFileAttribute);
        if (!file.is_string()) {
          // Malformed INSERT: order it against everything so its error
          // surfaces at the deterministic program-order position.
          fp.writes.clear();
          fp.writes_all = true;
          return fp;
        }
        if (std::find(fp.writes.begin(), fp.writes.end(), file.AsString()) ==
            fp.writes.end()) {
          fp.writes.push_back(file.AsString());
        }
      }
      if (fp.writes.empty()) fp.writes_all = true;  // empty batch: conservative.
      return fp;
    }
    FileFootprint operator()(const DeleteRequest& r) { return Write(r.query); }
    FileFootprint operator()(const UpdateRequest& r) { return Write(r.query); }
    FileFootprint operator()(const RetrieveRequest& r) {
      FileFootprint fp;
      AddRead(r.query, &fp);
      return fp;
    }
    FileFootprint operator()(const RetrieveCommonRequest& r) {
      FileFootprint fp;
      AddRead(r.left_query, &fp);
      AddRead(r.right_query, &fp);
      return fp;
    }

    static FileFootprint Write(const abdm::Query& query) {
      FileFootprint fp;
      const std::string file = query.SingleFile();
      if (file.empty()) {
        fp.writes_all = true;
      } else {
        fp.writes.push_back(file);
      }
      return fp;
    }
    static void AddRead(const abdm::Query& query, FileFootprint* fp) {
      const std::string file = query.SingleFile();
      if (file.empty()) {
        fp->reads_all = true;
      } else {
        fp->reads.push_back(file);
      }
    }
  };
  return std::visit(Visitor{}, request);
}

}  // namespace mlds::abdl
