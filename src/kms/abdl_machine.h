#ifndef MLDS_KMS_ABDL_MACHINE_H_
#define MLDS_KMS_ABDL_MACHINE_H_

#include <string>
#include <string_view>
#include <vector>

#include "abdl/request.h"
#include "common/result.h"
#include "kc/executor.h"
#include "kms/language_interface.h"

namespace mlds::kms {

/// The kernel's own language as a language interface: ABDL requests need
/// no translation, so this machine parses, executes, and renders them,
/// and keeps the one piece of session state ABDL has — the in-flight
/// transaction. BEGIN starts buffering parsed requests, ABORT discards
/// them, and COMMIT runs them through IssueTransaction: isolated from
/// concurrent requests on a single engine, a stage pipeline on MBDS.
/// Neither kernel rolls back: a failing request stops the transaction
/// and the requests before it stay applied.
class AbdlMachine : public LanguageInterface {
 public:
  /// `executor` must outlive the machine.
  explicit AbdlMachine(kc::KernelExecutor* executor);

  /// BEGIN / COMMIT / ABORT, or one request. A RETRIEVE's records render
  /// incrementally (kfs::TableChunkSource); other requests report the
  /// records they affected. `explain` executes the request in explain
  /// mode and renders its plan (see Explain). Inside a transaction,
  /// requests buffer until COMMIT.
  Result<Reply> Run(std::string_view text, bool explain) override;

  /// Binds a prepared INSERT template (`<attr, ?>`) to every row, chunked
  /// into kernel batch INSERTs; inside a transaction the bound batches
  /// buffer like any other request and apply at COMMIT.
  Result<Reply> RunBatch(std::string_view text,
                         const ParameterRows& rows) override;

  /// Parses one request, executes it in explain mode, and returns its
  /// annotated physical plan rendered by KFS under an "ABDL PLAN" header.
  /// INSERT is rejected — it chooses no access path, so there is no plan
  /// to show.
  Result<std::string> Explain(std::string_view text);

  /// ABDL requests issued by the most recent statement.
  const std::vector<std::string>& trace() const { return trace_; }

 private:
  Result<Reply> Commit();

  bool in_transaction_ = false;
  abdl::Transaction pending_;
};

}  // namespace mlds::kms

#endif  // MLDS_KMS_ABDL_MACHINE_H_
