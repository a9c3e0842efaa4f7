#ifndef MLDS_KMS_LANGUAGE_INTERFACE_H_
#define MLDS_KMS_LANGUAGE_INTERFACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "abdl/prepared.h"
#include "abdl/request.h"
#include "abdm/query.h"
#include "abdm/value.h"
#include "common/result.h"
#include "kc/executor.h"
#include "kds/plan.h"
#include "kfs/chunk_source.h"
#include "kms/translation_cache.h"

namespace mlds::kms {

/// The language interfaces MLDS offers over its one kernel: the four user
/// data languages plus ABDL, the kernel's own.
enum class Language { kNone, kCodasyl, kDaplex, kSql, kDli, kAbdl };

/// Parses a language name: codasyl (alias dml) | daplex | sql | dli |
/// abdl, case-insensitively.
Result<Language> ParseLanguage(std::string_view name);
std::string_view LanguageName(Language language);

/// Parameter rows of a batch: one value per template marker, per row.
using ParameterRows = std::vector<std::vector<abdm::Value>>;

/// One statement's reply, as a user of the language sees it: the body
/// rendered by KFS and the partial-result warnings that go with it.
struct Reply {
  std::unique_ptr<kfs::ChunkSource> body;
  std::vector<kds::PartialResultWarning> warnings;
};

/// A reply whose body is already rendered, carrying `warnings`.
Reply TextReply(std::string body,
                std::vector<kds::PartialResultWarning> warnings = {});

/// Per-session translation statistics: how many ABDL requests of each
/// operation the session issued and, for CODASYL-DML, how many
/// statements of each kind ran — the session-level view of the
/// one-to-many correspondence (Ch. III.A).
struct SessionStats {
  std::map<std::string, size_t> statements;     ///< by DML statement kind.
  std::map<std::string, size_t> abdl_requests;  ///< by ABDL operation.
  size_t total_statements = 0;
  size_t total_requests = 0;

  std::string ToString() const;
};

/// The contract every language interface implements: the paper's
/// LIL -> KMS -> KC -> KFS pipeline for one language over the shared
/// kernel. A session holds one LanguageInterface, built by
/// MldsSystem::OpenInterface, and drives its language through Run and
/// RunBatch. The class is also the machines' shared base: the kernel
/// executor, the translation cache, the one path requests take to the
/// kernel (Issue), and the batch chunk loop. Not thread-safe.
class LanguageInterface {
 public:
  virtual ~LanguageInterface() = default;

  LanguageInterface(const LanguageInterface&) = delete;
  LanguageInterface& operator=(const LanguageInterface&) = delete;

  /// Executes one statement and renders its result through KFS.
  /// `explain` requests the annotated plan: SQL and CODASYL-DML add an
  /// EXPLAIN prefix when the text lacks one, ABDL executes the request in
  /// explain mode, and Daplex and DL/I reject it with kUnimplemented.
  virtual Result<Reply> Run(std::string_view text, bool explain) = 0;

  /// Executes a parameterized template once per row, chunked into kernel
  /// batch INSERTs (see each machine's ExecuteBatch).
  virtual Result<Reply> RunBatch(std::string_view text,
                                 const ParameterRows& rows) = 0;

  /// Degraded-mode status of the kernel: results may be partial while a
  /// backend is quarantined.
  kc::KernelHealth Health() const { return executor_->Health(); }

  /// Attaches the shared compiled-translation cache. What caches depends
  /// on the language's translation purity (see each machine).
  void set_translation_cache(TranslationCache* cache) { cache_ = cache; }

  /// Cumulative session statistics (not reset by a machine's ClearTrace).
  const SessionStats& statistics() const { return stats_; }

 protected:
  /// `executor` must outlive the interface.
  explicit LanguageInterface(kc::KernelExecutor* executor)
      : executor_(executor) {}

  /// The translation of `text`, served by the attached cache under
  /// `domain` or, without a cache, compiled afresh. `compile` returns
  /// Result<T>; its errors pass through uncached.
  template <typename T, typename CompileFn>
  Result<std::shared_ptr<const T>> Translate(std::string_view domain,
                                             std::string_view text,
                                             CompileFn&& compile) {
    if (cache_ != nullptr) {
      return cache_->GetOrCompile<T>(domain, text,
                                     std::forward<CompileFn>(compile));
    }
    Result<T> compiled = compile();
    MLDS_RETURN_IF_ERROR(compiled.status());
    return std::make_shared<const T>(std::move(*compiled));
  }

  /// Executes one translated ABDL request through the kernel: the one
  /// path every machine's requests take. It appends the request to
  /// `trace_`, counts it in the session statistics and, in explain mode,
  /// flags the request and collects the plan its response carries.
  Result<kds::Response> Issue(abdl::Request request);

  /// Issue for a whole transaction (KernelExecutor::ExecuteTransaction):
  /// each request is traced and counted as Issue would.
  Result<kds::Response> IssueTransaction(abdl::Transaction txn);

  /// Explain mode for the statement in flight: between BeginExplain and
  /// EndExplain every request Issue() sends carries the explain flag.
  /// EndExplain returns the collected plans — one request's plan
  /// directly, several under a SEQUENCE root, null when none.
  void BeginExplain();
  std::shared_ptr<const kds::PlanNode> EndExplain();
  bool explaining() const { return explain_; }

  /// Allocates `count` fresh database keys for `file`, in order. Each
  /// round reserves the missing numbers from the executor
  /// (kc::KernelExecutor::ReserveKeys, so concurrent sessions never share
  /// one) and checks every candidate in one RETRIEVE over KeyQuery; the
  /// candidates no record holds are kept (a record keyed otherwise, by an
  /// ABDL writer or before a restart, may hold any of them), and rounds
  /// repeat until `count` keys are free. A batch chunk therefore costs one
  /// probe, not one per row.
  Result<std::vector<std::string>> AllocateKeys(std::string_view file,
                                                size_t count);
  Result<std::string> AllocateKey(std::string_view file);

  /// True when a record of `file` with database key `dbkey` exists.
  Result<bool> RecordExists(std::string_view file, std::string_view dbkey);

  /// The records of `file` holding any of `keys`: the disjunction of
  /// ((FILE = file) and (<key attribute> = key)) over `keys`. No keys
  /// make an empty query, which matches nothing.
  static abdm::Query KeyQuery(std::string_view file,
                              const std::vector<std::string>& keys);

  /// The shared batch loop: rejects an empty batch, runs `prepare`
  /// (compile and check the template, returning its parameters per row),
  /// then checks each chunk's row arity and runs rows [begin, end) of at
  /// most EffectiveBatchSize rows. An error stops the loop; earlier
  /// chunks stay applied.
  Status ForEachChunk(std::string_view what, const ParameterRows& rows,
                      const abdl::BatchLimits& limits,
                      const std::function<Result<size_t>()>& prepare,
                      const std::function<Status(size_t, size_t)>& run);

  /// RETRIEVE (query) (all attributes) — the workhorse auxiliary
  /// retrieve of every translation.
  static abdl::RetrieveRequest RetrieveAll(abdm::Query query);

  /// `text` carrying an EXPLAIN prefix when `explain` asks for one.
  static std::string WithExplainPrefix(std::string_view text, bool explain);

  /// A reply over an already-rendered body. Language machines' kernel
  /// responses carry no per-request warnings (the controller's merge
  /// already folded them), so the reply reports the kernel's degraded
  /// backends instead — the same information Health() gives.
  Reply Rendered(std::string body) const;

  /// `outcome` rendered by its KFS formatter; errors pass through.
  template <typename Outcome>
  Result<Reply> Rendered(const Result<Outcome>& outcome,
                         std::string (*format)(const Outcome&)) const {
    MLDS_RETURN_IF_ERROR(outcome.status());
    return Rendered(format(*outcome));
  }

  /// Partial-result warnings for a degraded kernel: one entry per backend
  /// that is not currently healthy.
  std::vector<kds::PartialResultWarning> DegradedWarnings() const;

  kc::KernelExecutor* executor_;
  TranslationCache* cache_ = nullptr;
  /// ABDL requests issued by the current (or most recent) statement, in
  /// the thesis's notation and issue order.
  std::vector<std::string> trace_;
  SessionStats stats_;

 private:
  /// Issue's bookkeeping: explain flag, trace line, operation count.
  void Note(abdl::Request& request);

  bool explain_ = false;
  std::vector<std::shared_ptr<const kds::PlanNode>> explain_plans_;
};

}  // namespace mlds::kms

#endif  // MLDS_KMS_LANGUAGE_INTERFACE_H_
