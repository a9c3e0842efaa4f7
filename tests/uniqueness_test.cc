// Kernel-enforced uniqueness: UNIQUE (SQL, Daplex) and DUPLICATES ARE NOT
// ALLOWED (CODASYL) are checked by the kernel engine under its file lock,
// whichever language writes the record — including ABDL, batches that
// repeat a key inside one chunk, UPDATE / MODIFY, and concurrent sessions
// on one engine, on a 2-backend MBDS, and over the wire.

#include <gtest/gtest.h>

#include <barrier>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "abdl/parser.h"
#include "client/client.h"
#include "kds/wal.h"
#include "mbds/controller.h"
#include "mlds/mlds.h"
#include "server/server.h"

namespace mlds {
namespace {

using abdm::Value;
using kms::Language;

constexpr char kShopDdl[] =
    "SCHEMA shop;"
    "CREATE TABLE orders (oid CHAR(12) NOT NULL, amount FLOAT, UNIQUE (oid));"
    "CREATE TABLE pairs (a CHAR(8), b INTEGER, UNIQUE (a, b));";
constexpr char kLedgerDdl[] =
    "SCHEMA NAME IS ledger;"
    "RECORD NAME IS account; ITEM acct_no TYPE IS INTEGER;"
    "  ITEM balance TYPE IS FLOAT;"
    "  DUPLICATES ARE NOT ALLOWED FOR acct_no;";
constexpr char kCatalogDdl[] =
    "SCHEMA catalog;"
    "TYPE item IS ENTITY sku : STRING(12); price : FLOAT; END ENTITY;"
    "UNIQUE sku WITHIN item;";

/// One language's view of a UNIQUE-keyed file: its database, the kernel
/// file and key attribute, and the statement inserting key `k`.
struct Keyed {
  Language language;
  const char* database;
  const char* file;
  const char* key;
  std::function<std::string(int)> insert;
};

const Keyed kSql{Language::kSql, "shop", "orders", "oid", [](int k) {
                   return "INSERT INTO orders (oid, amount) VALUES ('o" +
                          std::to_string(k) + "', 1.5)";
                 }};
const Keyed kCodasyl{Language::kCodasyl, "ledger", "account", "acct_no",
                     [](int k) {
                       return "STORE account (acct_no = " + std::to_string(k) +
                              ", balance = 1.5)";
                     }};
const Keyed kDaplex{Language::kDaplex, "catalog", "item", "sku", [](int k) {
                      return "CREATE item (sku = 'k" + std::to_string(k) +
                             "', price = 1.5)";
                    }};

MldsSystem::Options KernelOptions(bool mbds) {
  MldsSystem::Options options;
  options.use_mbds = mbds;
  options.backends = 2;
  return options;
}

Status LoadAll(MldsSystem* system) {
  MLDS_RETURN_IF_ERROR(system->LoadRelationalDatabase(kShopDdl));
  MLDS_RETURN_IF_ERROR(system->LoadNetworkDatabase(kLedgerDdl));
  return system->LoadFunctionalDatabase(kCatalogDdl);
}

std::unique_ptr<kms::LanguageInterface> Open(MldsSystem& system,
                                             Language language,
                                             const char* database) {
  auto opened = system.OpenInterface(language, database);
  EXPECT_TRUE(opened.ok()) << opened.status();
  return opened.ok() ? std::move(*opened) : nullptr;
}

Status Exec(kms::LanguageInterface& session, const std::string& text) {
  return session.Run(text, /*explain=*/false).status();
}

/// Every value of `attr` in `file`, as the kernel holds them.
std::vector<std::string> KernelValues(MldsSystem& system, const char* file,
                                      const char* attr) {
  auto request = abdl::ParseRequest("RETRIEVE ((FILE = " + std::string(file) +
                                    ")) (" + attr + ")");
  EXPECT_TRUE(request.ok()) << request.status();
  auto response = system.executor()->Execute(*request);
  EXPECT_TRUE(response.ok()) << response.status();
  std::vector<std::string> values;
  if (!response.ok()) return values;
  for (const abdm::Record& record : response->records) {
    values.push_back(record.GetOrNull(attr).ToDisplayString());
  }
  return values;
}

class UniquenessTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    system_ = std::make_unique<MldsSystem>(KernelOptions(GetParam()));
    ASSERT_TRUE(LoadAll(system_.get()).ok());
  }

  size_t Rows(const char* file) { return system_->executor()->FileSize(file); }

  std::unique_ptr<MldsSystem> system_;
};

INSTANTIATE_TEST_SUITE_P(Kernels, UniquenessTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Mbds" : "SingleEngine";
                         });

TEST_P(UniquenessTest, CodasylBatchRepeatingKeyInOneChunkAppliesNothing) {
  auto session = Open(*system_, Language::kCodasyl, "ledger");
  const kms::ParameterRows rows = {{Value::Integer(1), Value::Float(1.0)},
                                   {Value::Integer(2), Value::Float(2.0)},
                                   {Value::Integer(1), Value::Float(3.0)}};
  Status status =
      session->RunBatch("STORE account (acct_no = ?, balance = ?)", rows)
          .status();
  EXPECT_EQ(status.code(), StatusCode::kConstraintViolation) << status;
  EXPECT_EQ(Rows("account"), 0u);
}

TEST_P(UniquenessTest, DaplexBatchRepeatingKeyInOneChunkAppliesNothing) {
  auto session = Open(*system_, Language::kDaplex, "catalog");
  const kms::ParameterRows rows = {{Value::String("a"), Value::Float(1.0)},
                                   {Value::String("b"), Value::Float(2.0)},
                                   {Value::String("a"), Value::Float(3.0)}};
  Status status =
      session->RunBatch("CREATE item (sku = ?, price = ?)", rows).status();
  EXPECT_EQ(status.code(), StatusCode::kConstraintViolation) << status;
  EXPECT_EQ(Rows("item"), 0u);
}

TEST_P(UniquenessTest, AbdlInsertIntoSqlUniqueTableRejected) {
  auto sql = Open(*system_, Language::kSql, "shop");
  ASSERT_TRUE(Exec(*sql, kSql.insert(1)).ok());
  auto abdl = Open(*system_, Language::kAbdl, "");
  Status status =
      Exec(*abdl, "INSERT (<FILE, orders>, <oid, 'o1'>, <amount, 9.0>)");
  EXPECT_EQ(status.code(), StatusCode::kConstraintViolation) << status;
  EXPECT_TRUE(
      Exec(*abdl, "INSERT (<FILE, orders>, <oid, 'o2'>, <amount, 9.0>)").ok());
  EXPECT_EQ(Rows("orders"), 2u);
}

TEST_P(UniquenessTest, SqlUpdateOntoExistingKeyAppliesNothing) {
  auto sql = Open(*system_, Language::kSql, "shop");
  ASSERT_TRUE(Exec(*sql, kSql.insert(1)).ok());
  ASSERT_TRUE(Exec(*sql, kSql.insert(2)).ok());
  Status status = Exec(*sql, "UPDATE orders SET oid = 'o1' WHERE oid = 'o2'");
  EXPECT_EQ(status.code(), StatusCode::kConstraintViolation) << status;
  std::vector<std::string> keys = KernelValues(*system_, "orders", "oid");
  EXPECT_EQ(std::multiset<std::string>(keys.begin(), keys.end()),
            (std::multiset<std::string>{"o1", "o2"}));
  // Setting a key to a value no other row holds still works.
  EXPECT_TRUE(Exec(*sql, "UPDATE orders SET oid = 'o3' WHERE oid = 'o2'").ok());
}

TEST_P(UniquenessTest, CodasylModifyOntoExistingKeyAppliesNothing) {
  auto dml = Open(*system_, Language::kCodasyl, "ledger");
  ASSERT_TRUE(Exec(*dml, kCodasyl.insert(1)).ok());
  ASSERT_TRUE(Exec(*dml, kCodasyl.insert(2)).ok());
  ASSERT_TRUE(Exec(*dml, "MOVE 2 TO acct_no IN account").ok());
  ASSERT_TRUE(Exec(*dml, "FIND ANY account USING acct_no IN account").ok());
  ASSERT_TRUE(Exec(*dml, "MOVE 1 TO acct_no IN account").ok());
  Status status = Exec(*dml, "MODIFY acct_no IN account");
  EXPECT_EQ(status.code(), StatusCode::kConstraintViolation) << status;
  std::vector<std::string> keys = KernelValues(*system_, "account", "acct_no");
  EXPECT_EQ(std::multiset<std::string>(keys.begin(), keys.end()),
            (std::multiset<std::string>{"1", "2"}));
}

TEST_P(UniquenessTest, RecordWithNullUniqueValueIsNotChecked) {
  // SQL: a NULL anywhere among the UNIQUE columns exempts the row.
  auto sql = Open(*system_, Language::kSql, "shop");
  ASSERT_TRUE(Exec(*sql, "INSERT INTO pairs (a, b) VALUES ('x', 1)").ok());
  EXPECT_EQ(Exec(*sql, "INSERT INTO pairs (a, b) VALUES ('x', 1)").code(),
            StatusCode::kConstraintViolation);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(Exec(*sql, "INSERT INTO pairs (a) VALUES ('x')").ok());
    EXPECT_TRUE(Exec(*sql, "INSERT INTO pairs (b) VALUES (1)").ok());
  }
  EXPECT_EQ(Rows("pairs"), 5u);
  // CODASYL: a STORE without the DUPLICATES ARE NOT ALLOWED item.
  auto dml = Open(*system_, Language::kCodasyl, "ledger");
  EXPECT_TRUE(Exec(*dml, "STORE account (balance = 1.0)").ok());
  EXPECT_TRUE(Exec(*dml, "STORE account (balance = 2.0)").ok());
  EXPECT_EQ(Rows("account"), 2u);
  // Daplex: a CREATE that leaves the UNIQUE function unassigned.
  auto daplex = Open(*system_, Language::kDaplex, "catalog");
  EXPECT_TRUE(Exec(*daplex, "CREATE item (price = 1.0)").ok());
  EXPECT_TRUE(Exec(*daplex, "CREATE item (price = 2.0)").ok());
  EXPECT_EQ(Rows("item"), 2u);
}

/// An entity type with a UNIQUE function and an owner-side one-to-many
/// function: CONNECTing a second member stores a duplicated record of the
/// department, repeating its dname. Records sharing the database key are
/// one entity, so neither that copy nor an UPDATE / MODIFY rewriting all
/// of the entity's records clashes with itself; another entity does.
TEST_P(UniquenessTest, DuplicatedRecordsOfOneEntityShareItsUniqueValues) {
  ASSERT_TRUE(system_
                  ->LoadFunctionalDatabase(
                      "SCHEMA org;"
                      "TYPE department IS ENTITY dname : STRING(12);"
                      "  staff : SET OF employee; END ENTITY;"
                      "TYPE employee IS ENTITY ename : STRING(12); END ENTITY;"
                      "UNIQUE dname WITHIN department;")
                  .ok());
  auto dml = Open(*system_, Language::kCodasyl, "org");
  auto must = [&](const std::string& text) {
    Status status = Exec(*dml, text);
    EXPECT_TRUE(status.ok()) << text << ": " << status;
  };
  must("STORE department (dname = 'd1')");
  for (const char* ename : {"e1", "e2"}) {
    must("STORE employee (ename = '" + std::string(ename) + "')");
    must("MOVE 'd1' TO dname IN department");
    must("FIND ANY department USING dname IN department");
    must("MOVE '" + std::string(ename) + "' TO ename IN employee");
    must("FIND ANY employee USING ename IN employee");
    must("CONNECT employee TO staff");
  }
  ASSERT_EQ(Rows("department"), 2u);

  auto daplex = Open(*system_, Language::kDaplex, "org");
  EXPECT_TRUE(
      Exec(*daplex, "UPDATE department SUCH THAT dname = 'd1' (dname = 'd2')")
          .ok());
  EXPECT_EQ(KernelValues(*system_, "department", "dname"),
            (std::vector<std::string>{"d2", "d2"}));
  must("MOVE 'd2' TO dname IN department");
  must("FIND ANY department USING dname IN department");
  must("MOVE 'd3' TO dname IN department");
  must("MODIFY dname IN department");
  EXPECT_EQ(KernelValues(*system_, "department", "dname"),
            (std::vector<std::string>{"d3", "d3"}));

  EXPECT_EQ(Exec(*daplex, "CREATE department (dname = 'd3')").code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(Rows("department"), 2u);
}

/// Sessions storing at once draw distinct database keys: two sessions
/// creating different entities in lock-step never share a key (which
/// would make the kernel take them for one entity).
TEST_P(UniquenessTest, ConcurrentCreatesDrawDistinctDatabaseKeys) {
  constexpr int kRounds = 300;
  std::unique_ptr<kms::LanguageInterface> sessions[2] = {
      Open(*system_, Language::kDaplex, "catalog"),
      Open(*system_, Language::kDaplex, "catalog")};
  std::barrier sync(2);
  auto creator = [&](int who) {
    for (int round = 0; round < kRounds; ++round) {
      sync.arrive_and_wait();
      EXPECT_TRUE(
          Exec(*sessions[who], kDaplex.insert(who * kRounds + round)).ok());
    }
  };
  std::thread other(creator, 1);
  creator(0);
  other.join();
  const std::vector<std::string> keys = KernelValues(*system_, "item", "item");
  EXPECT_EQ(keys.size(), 2u * kRounds);
  EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(),
            keys.size());
}

/// The same for CODASYL batch STOREs, whose chunks allocate all their
/// keys in one round: two sessions storing 10-row batches in lock-step.
TEST_P(UniquenessTest, ConcurrentBatchStoresDrawDistinctDatabaseKeys) {
  constexpr int kRounds = 40;
  constexpr int kRows = 10;
  std::unique_ptr<kms::LanguageInterface> sessions[2] = {
      Open(*system_, Language::kCodasyl, "ledger"),
      Open(*system_, Language::kCodasyl, "ledger")};
  std::barrier sync(2);
  auto storer = [&](int who) {
    for (int round = 0; round < kRounds; ++round) {
      kms::ParameterRows rows;
      for (int i = 0; i < kRows; ++i) {
        rows.push_back({Value::Integer((who * kRounds + round) * kRows + i),
                        Value::Float(1.5)});
      }
      sync.arrive_and_wait();
      Status status =
          sessions[who]
              ->RunBatch("STORE account (acct_no = ?, balance = ?)", rows)
              .status();
      EXPECT_TRUE(status.ok()) << status;
    }
  };
  std::thread other(storer, 1);
  storer(0);
  other.join();
  const std::vector<std::string> keys =
      KernelValues(*system_, "account", "account");
  EXPECT_EQ(keys.size(), 2u * kRounds * kRows);
  EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(),
            keys.size());
}

/// Two sessions on one system insert the same key at once, round after
/// round: every round must end with exactly one success and one
/// kConstraintViolation, and the file must hold each key once.
void RaceSameKey(MldsSystem& system, const Keyed& keyed,
                 const std::function<Status(int, int)>& insert,
                 int rounds) {
  std::vector<StatusCode> codes[2] = {std::vector<StatusCode>(rounds),
                                      std::vector<StatusCode>(rounds)};
  std::barrier sync(2);
  auto racer = [&](int who) {
    for (int round = 0; round < rounds; ++round) {
      sync.arrive_and_wait();
      codes[who][round] = insert(who, round).code();
    }
  };
  std::thread other(racer, 1);
  racer(0);
  other.join();

  int bad_rounds = 0;
  for (int round = 0; round < rounds; ++round) {
    std::multiset<StatusCode> got = {codes[0][round], codes[1][round]};
    if (got != std::multiset<StatusCode>{StatusCode::kOk,
                                         StatusCode::kConstraintViolation}) {
      ++bad_rounds;
    }
  }
  const std::vector<std::string> keys =
      KernelValues(system, keyed.file, keyed.key);
  const std::set<std::string> distinct(keys.begin(), keys.end());
  EXPECT_EQ(bad_rounds, 0) << keyed.file;
  EXPECT_EQ(keys.size() - distinct.size(), 0u)
      << "duplicate " << keyed.key << " values in " << keyed.file;
  EXPECT_EQ(distinct.size(), static_cast<size_t>(rounds)) << keyed.file;
}

constexpr int kRaceRounds = 2000;

class UniquenessRaceTest
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(UniquenessRaceTest, ConcurrentSameKeyInsertsLeaveOneRow) {
  const auto [mbds, which] = GetParam();
  const Keyed& keyed = which == 0 ? kSql : which == 1 ? kCodasyl : kDaplex;
  MldsSystem system(KernelOptions(mbds));
  ASSERT_TRUE(LoadAll(&system).ok());
  std::unique_ptr<kms::LanguageInterface> sessions[2] = {
      Open(system, keyed.language, keyed.database),
      Open(system, keyed.language, keyed.database)};
  RaceSameKey(system, keyed,
              [&](int who, int round) {
                return Exec(*sessions[who], keyed.insert(round));
              },
              kRaceRounds);
}

std::string RaceName(
    const ::testing::TestParamInfo<std::tuple<bool, int>>& info) {
  const char* names[] = {"Sql", "Codasyl", "Daplex"};
  return std::string(std::get<0>(info.param) ? "Mbds" : "SingleEngine") +
         names[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    Languages, UniquenessRaceTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0, 1, 2)),
    RaceName);

TEST(UniquenessWireRaceTest, ConcurrentSameKeyInsertsOverTheWire) {
  MldsSystem system(KernelOptions(/*mbds=*/true));
  ASSERT_TRUE(LoadAll(&system).ok());
  server::ServerOptions options;
  options.worker_threads = 2;
  server::MldsServer server(&system, options);
  ASSERT_TRUE(server.Start().ok());
  client::MldsClient clients[2];
  for (client::MldsClient& client : clients) {
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(client.Use("sql", "shop").ok());
  }
  RaceSameKey(system, kSql,
              [&](int who, int round) {
                return clients[who].Execute(kSql.insert(round)).status();
              },
              kRaceRounds);
  server.Shutdown();
}

// On MBDS an UPDATE changing a unique attribute moves its records to
// where their new values hash, so the backend checking a key is the one
// holding it: a new value colliding with a key on either backend is
// rejected, and a value set by UPDATE is rejected by a later INSERT.
TEST(MbdsUniquenessTest, KeyUpdateMovesRecordsWhereTheirNewValuesHash) {
  mbds::MbdsOptions options;
  options.num_backends = 2;
  mbds::Controller controller(options);
  abdm::FileDescriptor item;
  item.name = "item";
  item.attributes = {{"FILE", abdm::ValueKind::kString, 0, true},
                     {"key", abdm::ValueKind::kInteger, 0, false, true, true}};
  ASSERT_TRUE(controller.DefineFile(item).ok());
  auto execute = [&](const std::string& text) {
    auto request = abdl::ParseRequest(text);
    EXPECT_TRUE(request.ok()) << request.status();
    return controller.Execute(*request).status();
  };
  for (int k = 0; k < 16; ++k) {
    ASSERT_TRUE(
        execute("INSERT (<FILE, item>, <key, " + std::to_string(k) + ">)")
            .ok());
  }
  auto holder = [&](int k) {
    auto probe = abdl::ParseRequest("RETRIEVE ((FILE = item) and (key = " +
                                    std::to_string(k) + ")) (key)");
    for (int b = 0; b < 2; ++b) {
      auto found = controller.mutable_backend(b).engine().Execute(*probe);
      if (found.ok() && !found->records.empty()) return b;
    }
    return -1;
  };
  auto update = [&](int from, int to) {
    return execute("UPDATE ((FILE = item) and (key = " +
                   std::to_string(from) + ")) (key = " + std::to_string(to) +
                   ")");
  };
  int same = -1, other = -1;
  for (int k = 1; k < 16 && (same < 0 || other < 0); ++k) {
    (holder(k) == holder(0) ? same : other) = k;
  }
  ASSERT_GE(same, 0);
  ASSERT_GE(other, 0);
  EXPECT_EQ(update(same, 0).code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(update(other, 0).code(), StatusCode::kConstraintViolation);
  for (int k = 0; k < 16; ++k) EXPECT_GE(holder(k), 0) << k;

  int moved = 0;
  for (int k = 1; k < 16; ++k) {
    const int from = holder(k);
    ASSERT_TRUE(update(k, 100 + k).ok());
    EXPECT_EQ(holder(k), -1);
    moved += holder(100 + k) != from;
    EXPECT_EQ(execute("INSERT (<FILE, item>, <key, " +
                      std::to_string(100 + k) + ">)")
                  .code(),
              StatusCode::kConstraintViolation)
        << k;
  }
  EXPECT_GT(moved, 0);
  EXPECT_EQ(controller.FileSize("item"), 16u);
}

// A failing sub-batch must not cost the other backends their log
// entries: every applied sub-batch is logged before the error returns,
// so a backend rebuilt from its log still holds its rows.
TEST(MbdsUniquenessTest, FailedSubBatchKeepsTheOtherBackendsLogged) {
  mbds::MbdsOptions options;
  options.num_backends = 2;
  mbds::Controller controller(options);
  abdm::FileDescriptor item;
  item.name = "item";
  item.attributes = {{"FILE", abdm::ValueKind::kString, 0, true},
                     {"key", abdm::ValueKind::kInteger, 0, true}};
  ASSERT_TRUE(controller.DefineFile(item).ok());
  // Backend 0's engine loses the file: its sub-batch fails with a real
  // engine error while backend 1 applies its own.
  ASSERT_TRUE(controller.mutable_backend(0).engine().RemoveFile("item").ok());
  abdl::BatchInsertRequest batch;
  for (int k = 0; k < 4; ++k) {
    abdm::Record record;
    record.Set("FILE", Value::String("item"));
    record.Set("key", Value::Integer(k));
    batch.records.push_back(std::move(record));
  }
  EXPECT_EQ(controller.Execute(abdl::Request(batch)).status().code(),
            StatusCode::kNotFound);
  const size_t held = controller.backend(1).engine().FileSize("item");
  ASSERT_GT(held, 0u);
  kds::Engine rebuilt;
  std::istringstream no_checkpoint;
  ASSERT_TRUE(kds::RecoverEngine(no_checkpoint,
                                 controller.backend(1).wal().contents(),
                                 &rebuilt)
                  .ok());
  EXPECT_EQ(rebuilt.FileSize("item"), held);
}

}  // namespace
}  // namespace mlds
