#include "mlds/mlds.h"

#include "daplex/ddl_parser.h"
#include "kfs/formatter.h"
#include "kms/abdl_machine.h"
#include "network/ddl_parser.h"
#include "transform/abdm_mapping.h"
#include "transform/hie_to_abdm.h"
#include "transform/rel_to_abdm.h"

namespace mlds {

MldsSystem::MldsSystem() : MldsSystem(Options{}) {}

MldsSystem::MldsSystem(Options options) : options_(options) {
  if (options_.use_mbds) {
    mbds::MbdsOptions mbds_options;
    mbds_options.num_backends = options_.backends;
    mbds_options.engine = options_.engine;
    mbds_options.disk = options_.disk;
    mbds_options.bus = options_.bus;
    controller_ = std::make_unique<mbds::Controller>(mbds_options);
    executor_ = std::make_unique<kc::MbdsExecutor>(controller_.get());
  } else {
    engine_ = std::make_unique<kds::Engine>(options_.engine);
    executor_ = std::make_unique<kc::EngineExecutor>(engine_.get());
  }
}

MldsSystem::~MldsSystem() = default;

template <typename Model>
const Model* MldsSystem::Find(std::string_view name) const {
  for (const auto& db : databases_) {
    if (db->name == name) return std::get_if<Model>(&db->schema);
  }
  return nullptr;
}

Status MldsSystem::Define(Database db) {
  for (const auto& loaded : databases_) {
    if (loaded->name == db.name) {
      return Status::AlreadyExists("database '" + db.name +
                                   "' already loaded");
    }
  }
  auto stored = std::make_unique<Database>(std::move(db));
  struct Describe {
    Result<abdm::DatabaseDescriptor> operator()(network::Schema& schema) {
      return transform::MapNetworkToAbdm(schema);
    }
    Result<abdm::DatabaseDescriptor> operator()(FunctionalDb& db) {
      // The direct language interface's one-step schema transformation
      // (Ch. III.B.2) runs eagerly, at load.
      MLDS_ASSIGN_OR_RETURN(db.mapping,
                            transform::TransformFunctionalToNetwork(db.schema));
      return transform::MapNetworkToAbdm(db.mapping.schema, &db.mapping);
    }
    Result<abdm::DatabaseDescriptor> operator()(relational::Schema& schema) {
      return transform::MapRelationalToAbdm(schema);
    }
    Result<abdm::DatabaseDescriptor> operator()(hierarchical::Schema& schema) {
      return transform::MapHierarchicalToAbdm(schema);
    }
  };
  MLDS_ASSIGN_OR_RETURN(abdm::DatabaseDescriptor descriptor,
                        std::visit(Describe{}, stored->schema));
  MLDS_RETURN_IF_ERROR(executor_->DefineDatabase(descriptor));
  databases_.push_back(std::move(stored));
  // DDL: every cached translation may now name stale files/columns.
  translation_cache_.InvalidateAll();
  return Status::OK();
}

Status MldsSystem::LoadNetworkDatabase(std::string_view ddl) {
  MLDS_ASSIGN_OR_RETURN(network::Schema schema, network::ParseSchema(ddl));
  if (schema.name().empty()) {
    return Status::InvalidArgument(
        "network DDL must carry a SCHEMA NAME IS clause");
  }
  return Define(Database{schema.name(), std::move(schema)});
}

Status MldsSystem::LoadRelationalDatabase(std::string_view ddl) {
  MLDS_ASSIGN_OR_RETURN(relational::Schema schema,
                        relational::ParseRelationalSchema(ddl));
  if (schema.name().empty()) {
    return Status::InvalidArgument("relational DDL must carry a SCHEMA "
                                   "clause");
  }
  return Define(Database{schema.name(), std::move(schema)});
}

Status MldsSystem::LoadHierarchicalDatabase(std::string_view ddl) {
  MLDS_ASSIGN_OR_RETURN(hierarchical::Schema schema,
                        hierarchical::ParseHierarchicalSchema(ddl));
  if (schema.name().empty()) {
    return Status::InvalidArgument("hierarchical DDL must carry a SCHEMA "
                                   "clause");
  }
  return Define(Database{schema.name(), std::move(schema)});
}

Status MldsSystem::LoadFunctionalDatabase(std::string_view ddl) {
  MLDS_ASSIGN_OR_RETURN(daplex::FunctionalSchema schema,
                        daplex::ParseFunctionalSchema(ddl));
  if (schema.name().empty()) {
    return Status::InvalidArgument("Daplex DDL must carry a SCHEMA clause");
  }
  return Define(Database{schema.name(), FunctionalDb{std::move(schema), {}}});
}

Result<std::unique_ptr<kms::LanguageInterface>> MldsSystem::OpenInterface(
    kms::Language language, std::string_view db_name) {
  const std::string name(db_name);
  kc::KernelExecutor* executor = executor_.get();
  std::unique_ptr<kms::LanguageInterface> made;
  switch (language) {
    case kms::Language::kCodasyl: {
      const network::Schema* view = NetworkViewOf(db_name);
      if (view == nullptr) {
        return Status::NotFound("database '" + name +
                                "' is not loaded (searched network and "
                                "functional schema lists)");
      }
      made = std::make_unique<kms::DmlMachine>(view, MappingOf(db_name),
                                               executor);
      break;
    }
    case kms::Language::kDaplex: {
      const FunctionalDb* db = Find<FunctionalDb>(db_name);
      if (db == nullptr) {
        return Status::NotFound("functional database '" + name +
                                "' is not loaded");
      }
      made = std::make_unique<kms::DaplexMachine>(
          &db->schema, &db->mapping.schema, &db->mapping, executor);
      break;
    }
    case kms::Language::kSql: {
      const relational::Schema* schema = Find<relational::Schema>(db_name);
      if (schema == nullptr) {
        return Status::NotFound("relational database '" + name +
                                "' is not loaded");
      }
      made = std::make_unique<kms::SqlMachine>(schema, executor);
      break;
    }
    case kms::Language::kDli: {
      const hierarchical::Schema* schema =
          Find<hierarchical::Schema>(db_name);
      if (schema == nullptr) {
        return Status::NotFound("hierarchical database '" + name +
                                "' is not loaded");
      }
      made = std::make_unique<kms::DliMachine>(schema, executor);
      break;
    }
    case kms::Language::kAbdl:
      made = std::make_unique<kms::AbdlMachine>(executor);
      break;
    case kms::Language::kNone:
      return Status::InvalidArgument("cannot bind the 'none' language");
  }
  made->set_translation_cache(&translation_cache_);
  return made;
}

template <typename Machine>
Result<Machine*> MldsSystem::Keep(kms::Language language,
                                  std::string_view db_name) {
  MLDS_ASSIGN_OR_RETURN(std::unique_ptr<kms::LanguageInterface> made,
                        OpenInterface(language, db_name));
  sessions_.push_back(std::move(made));
  return static_cast<Machine*>(sessions_.back().get());
}

Result<kms::DmlMachine*> MldsSystem::OpenCodasylSession(
    std::string_view db_name) {
  return Keep<kms::DmlMachine>(kms::Language::kCodasyl, db_name);
}

Result<kms::DaplexMachine*> MldsSystem::OpenDaplexSession(
    std::string_view db_name) {
  return Keep<kms::DaplexMachine>(kms::Language::kDaplex, db_name);
}

Result<kms::SqlMachine*> MldsSystem::OpenSqlSession(
    std::string_view db_name) {
  return Keep<kms::SqlMachine>(kms::Language::kSql, db_name);
}

Result<kms::DliMachine*> MldsSystem::OpenDliSession(
    std::string_view db_name) {
  return Keep<kms::DliMachine>(kms::Language::kDli, db_name);
}

std::vector<std::string> MldsSystem::DatabaseNames() const {
  std::vector<std::string> names;
  constexpr size_t kModels = std::variant_size_v<decltype(Database::schema)>;
  for (size_t model = 0; model < kModels; ++model) {
    for (const auto& db : databases_) {
      if (db->schema.index() == model) names.push_back(db->name);
    }
  }
  return names;
}

Result<std::string> MldsSystem::ExplainAbdl(std::string_view request_text) {
  return kms::AbdlMachine(executor_.get()).Explain(request_text);
}

std::string MldsSystem::HealthReport() const {
  return kfs::FormatHealth(executor_->Health());
}

const hierarchical::Schema* MldsSystem::FindHierarchicalSchema(
    std::string_view name) const {
  return Find<hierarchical::Schema>(name);
}

const relational::Schema* MldsSystem::FindRelationalSchema(
    std::string_view name) const {
  return Find<relational::Schema>(name);
}

const network::Schema* MldsSystem::FindNetworkSchema(
    std::string_view name) const {
  return Find<network::Schema>(name);
}

const daplex::FunctionalSchema* MldsSystem::FindFunctionalSchema(
    std::string_view name) const {
  const FunctionalDb* db = Find<FunctionalDb>(name);
  return db == nullptr ? nullptr : &db->schema;
}

const network::Schema* MldsSystem::NetworkViewOf(std::string_view name) const {
  if (const network::Schema* native = Find<network::Schema>(name)) {
    return native;
  }
  const FunctionalDb* db = Find<FunctionalDb>(name);
  return db == nullptr ? nullptr : &db->mapping.schema;
}

const transform::FunNetMapping* MldsSystem::MappingOf(
    std::string_view name) const {
  const FunctionalDb* db = Find<FunctionalDb>(name);
  return db == nullptr ? nullptr : &db->mapping;
}

}  // namespace mlds
