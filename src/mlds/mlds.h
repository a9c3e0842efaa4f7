#ifndef MLDS_MLDS_MLDS_H_
#define MLDS_MLDS_MLDS_H_

#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"
#include "daplex/schema.h"
#include "kc/executor.h"
#include "kds/engine.h"
#include "hierarchical/schema.h"
#include "kms/daplex_machine.h"
#include "kms/dli_machine.h"
#include "kms/dml_machine.h"
#include "kms/language_interface.h"
#include "kms/sql_machine.h"
#include "kms/translation_cache.h"
#include "mbds/controller.h"
#include "network/schema.h"
#include "relational/schema.h"
#include "transform/fun_to_net.h"

namespace mlds {

/// The Multi-Lingual Database System facade: the Language Interface Layer
/// (LIL) plus the database registry, wired over a kernel database system
/// that is either a single KDS engine or the multi-backend MBDS.
///
/// Four user data models load through their DDLs (network, functional,
/// relational, hierarchical) and four language interfaces open sessions
/// over them (CODASYL-DML, Daplex, SQL, DL/I); `executor()` reaches the
/// kernel's ABDL directly. Usage mirrors the thesis's workflow (Ch. V):
///
///   MldsSystem mlds;
///   mlds.LoadFunctionalDatabase(daplex_ddl);              // define
///   auto session = mlds.OpenCodasylSession("university"); // transform
///   session->ExecuteText("MOVE 'CS' TO major IN student");
///   session->ExecuteText("FIND ANY student USING major IN student");
///
/// A CODASYL-DML session over a network database works on it directly;
/// over a functional database it works on the schema transformer's
/// network view (functional -> network, Ch. V) with the functional-aware
/// KMS translation — the thesis's cross-model access.
///
/// Every loaded database lives in one registry under one namespace: a
/// name loaded under any data model cannot be loaded again under any
/// other. Every session — typed (Open*Session) or through the language
/// interface contract (OpenInterface) — binds through that registry.
class MldsSystem {
 public:
  struct Options {
    /// Use the multi-backend kernel (MBDS) instead of a single engine.
    bool use_mbds = false;
    int backends = 4;
    kds::EngineOptions engine;
    mbds::DiskModel disk;
    mbds::BusModel bus;
  };

  MldsSystem();
  explicit MldsSystem(Options options);
  ~MldsSystem();

  MldsSystem(const MldsSystem&) = delete;
  MldsSystem& operator=(const MldsSystem&) = delete;

  /// Defines a new network database from CODASYL DDL text; its kernel
  /// files (AB(network)) are created immediately.
  Status LoadNetworkDatabase(std::string_view ddl);

  /// Defines a new relational database from SQL CREATE TABLE DDL; its
  /// kernel files (AB(relational)) are created immediately.
  Status LoadRelationalDatabase(std::string_view ddl);

  /// Defines a new hierarchical database from segment DDL; its kernel
  /// files (AB(hierarchical)) are created immediately.
  Status LoadHierarchicalDatabase(std::string_view ddl);

  /// Defines a new functional database from Daplex DDL text. The
  /// functional -> network transformation runs eagerly (the direct
  /// language interface's one-step schema transformation, Ch. III.B.2)
  /// and the AB(functional) kernel files are created.
  Status LoadFunctionalDatabase(std::string_view ddl);

  /// Builds a new language interface of `language` bound to the named
  /// database; the caller owns it. CODASYL-DML binds network databases
  /// and, through the schema transformation, functional ones; Daplex
  /// binds functional, SQL relational, and DL/I hierarchical databases.
  /// ABDL, the kernel's own language, needs no schema and ignores
  /// `db_name`. A name that is not loaded, or loaded under a data model
  /// the language cannot bind, is kNotFound.
  Result<std::unique_ptr<kms::LanguageInterface>> OpenInterface(
      kms::Language language, std::string_view db_name);

  /// Opens a CODASYL-DML session against the named network or functional
  /// database. The returned machine is owned by the system and remains
  /// valid until the system is destroyed (as are the other Open*Session
  /// machines).
  Result<kms::DmlMachine*> OpenCodasylSession(std::string_view db_name);

  /// Opens a Daplex query session against a *functional* database — the
  /// functional language interface over the same kernel files, which is
  /// what makes the system multi-lingual.
  Result<kms::DaplexMachine*> OpenDaplexSession(std::string_view db_name);

  /// Opens a SQL session against a *relational* database — the third
  /// language interface of MLDS.
  Result<kms::SqlMachine*> OpenSqlSession(std::string_view db_name);

  /// Opens a DL/I session against a *hierarchical* database — the fourth
  /// language interface of MLDS.
  Result<kms::DliMachine*> OpenDliSession(std::string_view db_name);

  /// Names of loaded databases: network, functional, relational, then
  /// hierarchical ones, each group in load order.
  std::vector<std::string> DatabaseNames() const;

  const network::Schema* FindNetworkSchema(std::string_view name) const;
  const daplex::FunctionalSchema* FindFunctionalSchema(
      std::string_view name) const;
  const relational::Schema* FindRelationalSchema(std::string_view name) const;
  const hierarchical::Schema* FindHierarchicalSchema(
      std::string_view name) const;

  /// The network view of a database: the schema itself for network
  /// databases, the transformed schema for functional ones.
  const network::Schema* NetworkViewOf(std::string_view name) const;

  /// The transformation metadata for a functional database (nullptr for
  /// native network databases).
  const transform::FunNetMapping* MappingOf(std::string_view name) const;

  /// Direct access to the kernel for loaders and benchmarks.
  kc::KernelExecutor* executor() { return executor_.get(); }

  /// Parses one ABDL request, executes it in explain mode through the
  /// kernel controller, and returns its annotated physical plan rendered
  /// by KFS under an "ABDL PLAN" header (kms::AbdlMachine::Explain).
  /// INSERT is rejected — it chooses no access path, so there is no plan
  /// to show.
  Result<std::string> ExplainAbdl(std::string_view request_text);

  /// Degraded-mode status of the kernel, rendered by KFS under a
  /// "KERNEL HEALTH" header: per-backend state, WAL depth, quarantine
  /// history, and whether results may currently be partial. The same
  /// status is reachable programmatically through any session's Health().
  std::string HealthReport() const;

  /// The structured form of HealthReport: what the wire server serializes
  /// for remote HEALTH requests (kfs::SerializeHealth / ParseHealth).
  kc::KernelHealth Health() const { return executor_->Health(); }

  /// The compiled-translation cache shared by all sessions of every
  /// language. Loading any database bumps its schema epoch, invalidating
  /// every cached translation.
  kms::TranslationCache& translation_cache() { return translation_cache_; }

  /// The MBDS controller when `use_mbds`, else nullptr.
  mbds::Controller* controller() { return controller_.get(); }

 private:
  struct FunctionalDb {
    daplex::FunctionalSchema schema;
    transform::FunNetMapping mapping;
  };
  /// One registry entry: a loaded database's name and schema. The
  /// variant's alternative is the database's data model.
  struct Database {
    std::string name;
    std::variant<network::Schema, FunctionalDb, relational::Schema,
                 hierarchical::Schema>
        schema;
  };

  /// Registers `db` — the one name-collision check — and creates its
  /// kernel files.
  Status Define(Database db);
  /// The schema of the database named `name` when it has data model
  /// `Model`, else nullptr.
  template <typename Model>
  const Model* Find(std::string_view name) const;
  /// Opens an interface and keeps it for the typed Open*Session methods.
  template <typename Machine>
  Result<Machine*> Keep(kms::Language language, std::string_view db_name);

  Options options_;
  kms::TranslationCache translation_cache_;
  std::unique_ptr<kds::Engine> engine_;
  std::unique_ptr<mbds::Controller> controller_;
  std::unique_ptr<kc::KernelExecutor> executor_;
  std::vector<std::unique_ptr<Database>> databases_;  ///< load order.
  std::vector<std::unique_ptr<kms::LanguageInterface>> sessions_;
};

}  // namespace mlds

#endif  // MLDS_MLDS_MLDS_H_
