// Database-key allocation (LanguageInterface::AllocateKeys): every batch
// chunk in CODASYL, Daplex, DL/I and SQL costs one key-probe RETRIEVE
// that checks each candidate key, so keys some record already holds (an
// ABDL writer's, say) are skipped and no two live records share one.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "abdl/parser.h"
#include "mlds/mlds.h"

namespace mlds {
namespace {

using abdm::Value;

constexpr char kShopDdl[] =
    "SCHEMA shop;"
    "CREATE TABLE orders (oid CHAR(12) NOT NULL, amount FLOAT, UNIQUE (oid));";
constexpr char kLedgerDdl[] =
    "SCHEMA NAME IS ledger;"
    "RECORD NAME IS account; ITEM acct_no TYPE IS INTEGER;"
    "  ITEM balance TYPE IS FLOAT;"
    "  DUPLICATES ARE NOT ALLOWED FOR acct_no;";
constexpr char kCatalogDdl[] =
    "SCHEMA catalog;"
    "TYPE item IS ENTITY sku : STRING(12); price : FLOAT; END ENTITY;"
    "UNIQUE sku WITHIN item;";
constexpr char kClinicDdl[] =
    "SCHEMA clinic;"
    "SEGMENT patient; FIELD pname CHAR(20); FIELD city CHAR(12);";

/// One language's batch insert into a file keyed `<file>_<n>`: the
/// template, the row carrying value `v`, and the ABDL INSERT of a record
/// with value `v` that holds database key `<file>_<n>`.
struct Batched {
  const char* name;
  const char* file;
  const char* batch;
  std::function<std::vector<Value>(int)> row;
  std::function<std::string(int n, int v)> abdl_insert;
};

const Batched kLanguages[] = {
    {"Sql", "orders", "INSERT INTO orders (oid, amount) VALUES (?, ?)",
     [](int v) {
       return std::vector<Value>{Value::String("o" + std::to_string(v)),
                                 Value::Float(1.5)};
     },
     [](int n, int v) {
       return "INSERT (<FILE, orders>, <oid, 'o" + std::to_string(v) +
              "'>, <amount, 1.0>, <orders, 'orders_" + std::to_string(n) +
              "'>)";
     }},
    {"Codasyl", "account", "STORE account (acct_no = ?, balance = ?)",
     [](int v) {
       return std::vector<Value>{Value::Integer(v), Value::Float(1.5)};
     },
     [](int n, int v) {
       return "INSERT (<FILE, account>, <account, 'account_" +
              std::to_string(n) + "'>, <acct_no, " + std::to_string(v) +
              ">, <balance, 1.0>)";
     }},
    {"Daplex", "item", "CREATE item (sku = ?, price = ?)",
     [](int v) {
       return std::vector<Value>{Value::String("k" + std::to_string(v)),
                                 Value::Float(1.5)};
     },
     [](int n, int v) {
       return "INSERT (<FILE, item>, <item, 'item_" + std::to_string(n) +
              "'>, <sku, 'k" + std::to_string(v) + "'>, <price, 1.0>)";
     }},
    {"Dli", "patient", "ISRT patient (pname = ?, city = ?)",
     [](int v) {
       return std::vector<Value>{Value::String("p" + std::to_string(v)),
                                 Value::String("Monterey")};
     },
     [](int n, int v) {
       return "INSERT (<FILE, patient>, <patient, 'patient_" +
              std::to_string(n) + "'>, <pname, 'p" + std::to_string(v) +
              "'>, <city, 'Salinas'>)";
     }},
};

class KeyAllocationTest
    : public ::testing::TestWithParam<std::tuple<bool, int>> {
 protected:
  void SetUp() override {
    MldsSystem::Options options;
    options.use_mbds = std::get<0>(GetParam());
    options.backends = 2;
    system_ = std::make_unique<MldsSystem>(options);
    ASSERT_TRUE(system_->LoadRelationalDatabase(kShopDdl).ok());
    ASSERT_TRUE(system_->LoadNetworkDatabase(kLedgerDdl).ok());
    ASSERT_TRUE(system_->LoadFunctionalDatabase(kCatalogDdl).ok());
    ASSERT_TRUE(system_->LoadHierarchicalDatabase(kClinicDdl).ok());
  }

  const Batched& Language() const {
    return kLanguages[std::get<1>(GetParam())];
  }

  /// Runs the language's batch template over rows carrying `values`,
  /// chunked at `limits`; `trace` receives the ABDL requests it issued.
  Status RunBatch(const std::vector<int>& values,
                  const abdl::BatchLimits& limits,
                  std::vector<std::string>* trace = nullptr) {
    std::vector<std::vector<Value>> rows;
    for (int v : values) rows.push_back(Language().row(v));
    const std::string file = Language().file;
    std::vector<std::string> issued;
    Status status;
    if (file == "orders") {
      auto sql = system_->OpenSqlSession("shop");
      if (!sql.ok()) return sql.status();
      status = (*sql)->ExecuteBatch(Language().batch, rows, limits).status();
      issued = (*sql)->trace();
    } else if (file == "account") {
      auto dml = system_->OpenCodasylSession("ledger");
      if (!dml.ok()) return dml.status();
      status = (*dml)->ExecuteBatch(Language().batch, rows, limits).status();
      if (!(*dml)->trace().empty()) issued = (*dml)->trace().back().abdl;
    } else if (file == "item") {
      auto daplex = system_->OpenDaplexSession("catalog");
      if (!daplex.ok()) return daplex.status();
      status =
          (*daplex)->ExecuteBatch(Language().batch, rows, limits).status();
      issued = (*daplex)->trace();
    } else {
      auto dli = system_->OpenDliSession("clinic");
      if (!dli.ok()) return dli.status();
      status = (*dli)->ExecuteBatch(Language().batch, rows, limits).status();
      issued = (*dli)->trace();
    }
    if (trace != nullptr) *trace = std::move(issued);
    return status;
  }

  Status Abdl(const std::string& text) {
    auto request = abdl::ParseRequest(text);
    if (!request.ok()) return request.status();
    return system_->executor()->Execute(*request).status();
  }

  /// Every database key the kernel holds in the language's file.
  std::vector<std::string> DbKeys() {
    const std::string file = Language().file;
    auto request =
        abdl::ParseRequest("RETRIEVE ((FILE = " + file + ")) (" + file + ")");
    EXPECT_TRUE(request.ok()) << request.status();
    std::vector<std::string> keys;
    if (!request.ok()) return keys;
    auto response = system_->executor()->Execute(*request);
    EXPECT_TRUE(response.ok()) << response.status();
    if (!response.ok()) return keys;
    for (const abdm::Record& record : response->records) {
      keys.push_back(record.GetOrNull(file).ToDisplayString());
    }
    return keys;
  }

  std::unique_ptr<MldsSystem> system_;
};

INSTANTIATE_TEST_SUITE_P(
    Languages, KeyAllocationTest,
    ::testing::Combine(::testing::Bool(), ::testing::Range(0, 4)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "Mbds" : "SingleEngine") +
             kLanguages[std::get<1>(info.param)].name;
    });

/// Records an ABDL writer keyed inside the range the next batch reserves
/// keep their keys to themselves: the batch skips them.
TEST_P(KeyAllocationTest, BatchSkipsKeysHeldInsideItsReservedRange) {
  const std::string file = Language().file;
  // The first batch starts the file's key counter: it takes <file>_1.
  ASSERT_TRUE(RunBatch({0}, {}).ok());
  // ABDL takes <file>_3 and <file>_4; the next batch reserves 2..5.
  ASSERT_TRUE(Abdl(Language().abdl_insert(3, 100)).ok());
  ASSERT_TRUE(Abdl(Language().abdl_insert(4, 101)).ok());
  Status status = RunBatch({1, 2, 3, 4}, {});
  ASSERT_TRUE(status.ok()) << status;

  const std::vector<std::string> keys = DbKeys();
  EXPECT_EQ(keys.size(), 7u);
  EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()),
            (std::set<std::string>{file + "_1", file + "_2", file + "_3",
                                   file + "_4", file + "_5", file + "_6",
                                   file + "_7"}));
}

/// A batch issues exactly one key-probe RETRIEVE, checking every row's
/// candidate key, and one batch INSERT per chunk: 10 rows in chunks of 4
/// are three probes naming 4, 4 and 2 candidates.
TEST_P(KeyAllocationTest, OneKeyProbePerBatchChunk) {
  abdl::BatchLimits limits;
  limits.batch_size = 4;
  std::vector<std::string> trace;
  Status status =
      RunBatch({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, limits, &trace);
  ASSERT_TRUE(status.ok()) << status;
  ASSERT_EQ(trace.size(), 6u);
  const size_t candidates[] = {4, 4, 2};
  for (size_t chunk = 0; chunk < 3; ++chunk) {
    const std::string& probe = trace[2 * chunk];
    EXPECT_TRUE(probe.starts_with("RETRIEVE ")) << probe;
    size_t named = 0;
    for (size_t at = probe.find("(FILE = "); at != std::string::npos;
         at = probe.find("(FILE = ", at + 1)) {
      ++named;
    }
    EXPECT_EQ(named, candidates[chunk]) << probe;
    EXPECT_TRUE(trace[2 * chunk + 1].starts_with("INSERT ("))
        << trace[2 * chunk + 1];
  }
  EXPECT_EQ(system_->executor()->FileSize(Language().file), 10u);
}

/// The SQL case of a held key inside the reserved range: before every
/// candidate was probed, 'x' drew the ABDL row's key orders_3, and the
/// kernel took the two rows for one entity, leaving oid 'x' twice.
TEST(SqlKeyAllocationTest, MultiRowInsertDrawsNoKeyAnAbdlRowHolds) {
  for (bool mbds : {false, true}) {
    MldsSystem::Options options;
    options.use_mbds = mbds;
    options.backends = 2;
    MldsSystem system(options);
    ASSERT_TRUE(system.LoadRelationalDatabase(kShopDdl).ok());
    auto abdl = abdl::ParseRequest(
        "INSERT (<FILE, orders>, <oid, 'x'>, <amount, 1.0>, "
        "<orders, 'orders_3'>)");
    ASSERT_TRUE(abdl.ok()) << abdl.status();
    ASSERT_TRUE(system.executor()->Execute(*abdl).ok());
    auto sql = system.OpenSqlSession("shop");
    ASSERT_TRUE(sql.ok()) << sql.status();
    Status status =
        (*sql)
            ->ExecuteText(
                "INSERT INTO orders (oid, amount) VALUES ('a', 2.0), "
                "('x', 3.0)")
            .status();
    EXPECT_EQ(status.code(), StatusCode::kConstraintViolation)
        << (mbds ? "mbds: " : "engine: ") << status;
    EXPECT_EQ(system.executor()->FileSize("orders"), 1u);
  }
}

}  // namespace
}  // namespace mlds
