#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <unordered_map>

#include "abdl/request.h"
#include "kc/executor.h"
#include "transform/abdm_mapping.h"
#include "university/university.h"

namespace perfbench {

using mlds::MldsSystem;
using mlds::Result;
using mlds::Status;
using mlds::abdm::Record;
using mlds::abdm::Value;

const char* ClassName(StmtClass cls) {
  switch (cls) {
    case StmtClass::kPoint: return "point";
    case StmtClass::kWrite: return "write";
    case StmtClass::kScan: return "scan";
    case StmtClass::kUse: return "use";
  }
  return "?";
}

std::string Verify(const Stmt& stmt, std::string_view body) {
  const Expect& expect = stmt.expect;
  if (!expect.contains.empty() &&
      body.find(expect.contains) == std::string_view::npos) {
    return "reply lacks '" + expect.contains + "'";
  }
  if (expect.rows < 0 && expect.cells.empty()) return "";
  const Table table = ParseTable(body);
  if (expect.rows >= 0 &&
      table.rows.size() != static_cast<size_t>(expect.rows)) {
    return "expected " + std::to_string(expect.rows) + " rows, got " +
           std::to_string(table.rows.size());
  }
  for (const auto& [column, value] : expect.cells) {
    const std::string* cell = table.Cell(0, column);
    if (cell == nullptr) return "reply lacks column '" + column + "'";
    if (*cell != value) {
      return "column '" + column + "' is '" + *cell + "', expected '" +
             value + "'";
    }
  }
  return "";
}

namespace {

std::string Fmt(const char* prefix, uint64_t i, int width) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%0*llu", prefix, width,
                static_cast<unsigned long long>(i));
  return buf;
}

std::string Show(const Value& value) { return value.ToDisplayString(); }

/// `len` lowercase letters drawn from `hash`: wide, incompressible-looking
/// text columns that make result rows a realistic size.
std::string Filler(uint64_t hash, size_t len) {
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    if (i % 12 == 0) hash = Mix(hash, i);
    out += static_cast<char>('a' + (hash >> (5 * (i % 12))) % 26);
  }
  return out;
}

/// A kernel record: the FILE keyword then `keywords` in order, the shape
/// the language interfaces give the rows they insert.
Record MakeRecord(std::string_view file,
                  std::vector<std::pair<std::string, Value>> keywords) {
  Record record;
  record.Set(std::string(mlds::abdm::kFileAttribute),
             Value::String(std::string(file)));
  for (auto& [attribute, value] : keywords) {
    record.Set(attribute, std::move(value));
  }
  return record;
}

std::string DbKey(std::string_view file, uint64_t ordinal) {
  return mlds::transform::MakeDbKey(file, ordinal);
}

/// Loads records straight into the kernel in batch INSERTs: the data
/// build bypasses the language interfaces, whose per-row checks would
/// make set-up dominate the run.
Status BulkLoad(mlds::kc::KernelExecutor* executor,
                std::vector<Record> records) {
  constexpr size_t kChunk = 1000;
  for (size_t begin = 0; begin < records.size(); begin += kChunk) {
    mlds::abdl::BatchInsertRequest batch;
    const size_t end = std::min(begin + kChunk, records.size());
    batch.records.assign(std::make_move_iterator(records.begin() + begin),
                         std::make_move_iterator(records.begin() + end));
    MLDS_ASSIGN_OR_RETURN(
        mlds::kds::Response response,
        executor->Execute(mlds::abdl::Request(std::move(batch))));
    if (response.affected != end - begin) {
      return Status::Internal("bulk load inserted " +
                              std::to_string(response.affected) + " of " +
                              std::to_string(end - begin) + " records");
    }
  }
  return Status::OK();
}

std::unique_ptr<MldsSystem> NewSystem(bool mbds, const std::string& data_dir,
                                      size_t pool_pages) {
  MldsSystem::Options options;
  if (mbds) {
    options.use_mbds = true;
    options.backends = 2;
    options.engine.data_dir = data_dir;
    options.engine.pool_pages = pool_pages;
  }
  auto system = std::make_unique<MldsSystem>(options);
  // No sleep-based disk emulation in any workload.
  if (system->controller() != nullptr) system->controller()->set_latency_scale(0);
  return system;
}

/// Ordinals 1..n that fall in partition `part` of `parts`, in a seeded
/// order so that the Zipf-hot ranks are spread over the key space.
std::vector<uint64_t> PartitionKeys(uint64_t n, size_t part, size_t parts,
                                    uint64_t seed) {
  std::vector<uint64_t> keys;
  for (uint64_t i = 1; i <= n; ++i) {
    if ((i - 1) % parts == part) keys.push_back(i);
  }
  Rng rng(seed);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Below(i)]);
  }
  return keys;
}

// ---------------------------------------------------------------------
// oltp_point

constexpr char kPayrollDdl[] =
    "SCHEMA payroll;"
    "CREATE TABLE staff (name CHAR(12) NOT NULL, wage FLOAT, UNIQUE (name));";
constexpr char kClinicDdl[] =
    "SCHEMA clinic;"
    "SEGMENT patient; FIELD pname CHAR(12); FIELD weight FLOAT;"
    "SEGMENT visit PARENT patient; FIELD vdate CHAR(8); FIELD cost FLOAT;";

constexpr double kOltpUpdateShare = 0.2;
constexpr double kZipfS = 0.99;

class OltpPoint : public Workload {
 public:
  OltpPoint(uint64_t seed, bool tiny)
      : seed_(seed),
        staff_(tiny ? 2000 : 50000),
        persons_(tiny ? 200 : 4000),
        patients_(tiny ? 200 : 3000) {}

  std::string name() const override { return "oltp_point"; }
  size_t sessions() const override { return 10; }
  size_t connections() const override { return 2; }

  std::string StaffName(uint64_t i) const { return Fmt("s", i, 6); }
  double Wage(uint64_t i) const { return QuarterValue(Mix(seed_, 1, i), 10, 999); }
  std::string PatientName(uint64_t i) const { return Fmt("pat", i, 5); }
  double Weight(uint64_t i) const {
    return QuarterValue(Mix(seed_, 3, i), 40, 140);
  }
  uint64_t staff() const { return staff_; }
  uint64_t persons() const { return persons_; }
  uint64_t patients() const { return patients_; }
  uint64_t seed() const { return seed_; }

  mlds::university::UniversityConfig University() const {
    mlds::university::UniversityConfig config;
    config.persons = static_cast<int>(persons_);
    config.students = static_cast<int>(persons_ * 3 / 4);
    config.employees = static_cast<int>(persons_ / 2);
    config.faculty = static_cast<int>(persons_ / 20);
    config.support_staff = static_cast<int>(persons_ / 20);
    config.departments = 20;
    config.courses = 39;  // every (title, semester) pair once: UNIQUE
    config.teaching_links = config.faculty * 2;
    config.seed = static_cast<uint32_t>(Mix(seed_, 2));
    return config;
  }

  Result<std::unique_ptr<MldsSystem>> Build(const std::string& data_dir,
                                            size_t pool_pages) const override {
    std::unique_ptr<MldsSystem> system = NewSystem(false, data_dir, pool_pages);
    mlds::kc::KernelExecutor* executor = system->executor();

    MLDS_RETURN_IF_ERROR(system->LoadRelationalDatabase(kPayrollDdl));
    std::vector<Record> staff;
    staff.reserve(staff_);
    for (uint64_t i = 1; i <= staff_; ++i) {
      staff.push_back(MakeRecord(
          "staff", {{"name", Value::String(StaffName(i))},
                    {"wage", Value::Float(Wage(i))},
                    {"staff", Value::String(DbKey("staff", i))}}));
    }
    MLDS_RETURN_IF_ERROR(BulkLoad(executor, std::move(staff)));

    MLDS_RETURN_IF_ERROR(
        system->LoadFunctionalDatabase(mlds::university::kUniversityDaplexDdl));
    MLDS_ASSIGN_OR_RETURN(
        mlds::university::LoadSummary summary,
        mlds::university::BuildUniversityDatabaseOnLoaded(University(),
                                                          executor));
    (void)summary;

    MLDS_RETURN_IF_ERROR(system->LoadHierarchicalDatabase(kClinicDdl));
    std::vector<Record> patients;
    std::vector<Record> visits;
    for (uint64_t i = 1; i <= patients_; ++i) {
      patients.push_back(MakeRecord(
          "patient", {{"pname", Value::String(PatientName(i))},
                      {"weight", Value::Float(Weight(i))},
                      {"patient", Value::String(DbKey("patient", i))}}));
      visits.push_back(MakeRecord(
          "visit",
          {{"vdate", Value::String(Fmt("8701", 1 + Mix(seed_, 4, i) % 28, 2))},
           {"cost", Value::Float(QuarterValue(Mix(seed_, 5, i), 5, 500))},
           {"patient", Value::String(DbKey("patient", i))},
           {"visit", Value::String(DbKey("visit", i))}}));
    }
    MLDS_RETURN_IF_ERROR(BulkLoad(executor, std::move(patients)));
    MLDS_RETURN_IF_ERROR(BulkLoad(executor, std::move(visits)));
    // DL/I qualifies patients by name; an index on it makes GU a point
    // lookup, as the UNIQUE declarations do for the other languages.
    MLDS_RETURN_IF_ERROR(executor->CreateIndex("patient", "pname"));
    return system;
  }

  std::vector<std::unique_ptr<Script>> MakeScripts() override;

  std::vector<std::string> PointProbes() const override {
    return {"RETRIEVE ((FILE = staff) and (name = '" + StaffName(1) +
                "')) (name, wage)",
            "RETRIEVE ((FILE = person) and (person = 'person_1')) (pname, age)",
            "RETRIEVE ((FILE = patient) and (pname = '" + PatientName(1) +
                "')) (pname, weight)"};
  }

  Json Params() const override {
    return Json()
        .Str("kernel", "single KDS engine, in memory, pool_pages = 0")
        .Int("staff_rows", staff_)
        .Int("university_persons", persons_)
        .Int("clinic_patients", patients_)
        .Int("sessions", sessions())
        .Int("connections", connections())
        .Str("sessions_by_language",
             "sql 2, abdl 2 (staff); daplex 2, codasyl 2 (person); dli 2 "
             "(patient)")
        .Num("update_share", kOltpUpdateShare)
        .Num("zipf_s", kZipfS)
        .Num("pool_fraction_of_file_pages", 0);
  }

 private:
  uint64_t seed_;
  uint64_t staff_;
  uint64_t persons_;
  uint64_t patients_;
};

/// One oltp_point session: point reads and single-row updates of the
/// keys in its own partition, so every expected value is exact.
class OltpScript : public Script {
 public:
  enum class Family { kStaff, kPerson, kPatient };

  OltpScript(const OltpPoint* workload, Family family, std::string language,
             std::string database, size_t part, size_t parts, uint64_t salt)
      : w_(workload),
        family_(family),
        language_(std::move(language)),
        database_(std::move(database)),
        keys_(PartitionKeys(Count(), part, parts, Mix(w_->seed(), 10, salt))),
        zipf_(keys_.size(), kZipfS),
        rng_(Mix(w_->seed(), 11, salt)) {}

  void NextOp(std::vector<Stmt>* out) override {
    const uint64_t key = keys_[zipf_.Sample(rng_)];
    const bool update = rng_.Uniform() < kOltpUpdateShare;
    ++op_;
    switch (family_) {
      case Family::kStaff: return Staff(key, update, out);
      case Family::kPerson: return Person(key, update, out);
      case Family::kPatient: return Patient(key, update, out);
    }
  }

  void OnSuccess(const Stmt& stmt) override {
    if (!stmt.value.empty()) current_[stmt.key] = stmt.value;
  }

 private:
  uint64_t Count() const {
    switch (family_) {
      case Family::kStaff: return w_->staff();
      case Family::kPerson: return w_->persons();
      case Family::kPatient: return w_->patients();
    }
    return 0;
  }

  Stmt Make(StmtClass cls, std::string text) const {
    Stmt stmt;
    stmt.cls = cls;
    stmt.language = language_;
    stmt.database = database_;
    stmt.text = std::move(text);
    stmt.op = op_;
    return stmt;
  }

  /// The value `key` holds now: the last acknowledged update, else the
  /// generated one (empty when the generator does not know it).
  std::string Current(uint64_t key, std::string initial) const {
    const auto it = current_.find(key);
    return it == current_.end() ? initial : it->second;
  }

  void Staff(uint64_t key, bool update, std::vector<Stmt>* out) {
    const std::string name = w_->StaffName(key);
    const bool sql = language_ == "sql";
    if (update) {
      const std::string wage =
          Show(Value::Float(QuarterValue(rng_.Next(), 10, 999)));
      Stmt stmt = Make(StmtClass::kWrite,
                       sql ? "UPDATE staff SET wage = " + wage +
                                 " WHERE name = '" + name + "'"
                           : "UPDATE ((FILE = staff) and (name = '" + name +
                                 "')) (wage = " + wage + ")");
      stmt.expect.contains = sql ? "updated 1 row" : "1 records affected";
      stmt.rows = 1;
      stmt.key = key;
      stmt.value = wage;
      out->push_back(std::move(stmt));
      return;
    }
    Stmt stmt = Make(StmtClass::kPoint,
                     sql ? "SELECT name, wage FROM staff WHERE name = '" +
                               name + "'"
                         : "RETRIEVE ((FILE = staff) and (name = '" + name +
                               "')) (name, wage)");
    stmt.expect.rows = 1;
    stmt.expect.cells = {{"name", name},
                         {"wage", Current(key, Show(Value::Float(w_->Wage(key))))}};
    stmt.rows = 1;
    out->push_back(std::move(stmt));
  }

  void Person(uint64_t key, bool update, std::vector<Stmt>* out) {
    const std::string dbkey = DbKey("person", key);
    const std::string pname = "person_name_" + std::to_string(key);
    const StmtClass cls = update ? StmtClass::kWrite : StmtClass::kPoint;
    const std::string age = update ? std::to_string(18 + rng_.Below(60)) : "";
    Expect found;
    found.rows = 1;
    found.cells = {{"pname", pname}};
    // The loader draws ages from its own generator; an age is checked
    // once this session has set it.
    const std::string known_age = Current(key, "");
    if (!known_age.empty()) found.cells.emplace_back("age", known_age);

    if (language_ == "daplex") {
      if (update) {
        Stmt stmt = Make(cls, "UPDATE person SUCH THAT person = '" + dbkey +
                                  "' (age = " + age + ")");
        stmt.expect.contains = "updated 1 entit";
        stmt.rows = 1;
        stmt.key = key;
        stmt.value = age;
        out->push_back(std::move(stmt));
      } else {
        Stmt stmt = Make(cls, "FOR EACH person SUCH THAT person = '" + dbkey +
                                  "' PRINT pname, age");
        stmt.expect = found;
        stmt.rows = 1;
        out->push_back(std::move(stmt));
      }
      return;
    }
    Stmt move = Make(cls, "MOVE '" + dbkey + "' TO person IN person");
    move.expect.contains = "UWA person.person set";
    out->push_back(std::move(move));
    Stmt find = Make(cls, "FIND ANY person USING person IN person");
    find.expect = found;
    find.rows = update ? 0 : 1;
    out->push_back(std::move(find));
    if (!update) return;
    Stmt set = Make(cls, "MOVE " + age + " TO age IN person");
    set.expect.contains = "UWA person.age set";
    out->push_back(std::move(set));
    Stmt modify = Make(cls, "MODIFY age IN person");
    modify.expect.contains = "modified 1 item";
    modify.rows = 1;
    modify.key = key;
    modify.value = age;
    out->push_back(std::move(modify));
  }

  void Patient(uint64_t key, bool update, std::vector<Stmt>* out) {
    const std::string pname = w_->PatientName(key);
    const StmtClass cls = update ? StmtClass::kWrite : StmtClass::kPoint;
    Stmt get = Make(cls, "GU patient (pname = '" + pname + "')");
    get.expect.rows = 1;
    get.expect.cells = {
        {"pname", pname},
        {"weight", Current(key, Show(Value::Float(w_->Weight(key))))}};
    get.rows = update ? 0 : 1;
    out->push_back(std::move(get));
    if (!update) return;
    const std::string weight =
        Show(Value::Float(QuarterValue(rng_.Next(), 40, 140)));
    Stmt repl = Make(cls, "REPL (weight = " + weight + ")");
    repl.expect.contains = "replaced " + DbKey("patient", key);
    repl.rows = 1;
    repl.key = key;
    repl.value = weight;
    out->push_back(std::move(repl));
  }

  const OltpPoint* w_;
  Family family_;
  std::string language_;
  std::string database_;
  std::vector<uint64_t> keys_;
  Zipf zipf_;
  Rng rng_;
  uint64_t op_ = 0;
  std::unordered_map<uint64_t, std::string> current_;
};

std::vector<std::unique_ptr<Script>> OltpPoint::MakeScripts() {
  using Family = OltpScript::Family;
  struct Spec {
    Family family;
    const char* language;
    const char* database;
    size_t part;
    size_t parts;
  };
  const Spec specs[] = {
      {Family::kStaff, "sql", "payroll", 0, 4},
      {Family::kStaff, "sql", "payroll", 1, 4},
      {Family::kStaff, "abdl", "payroll", 2, 4},
      {Family::kStaff, "abdl", "payroll", 3, 4},
      {Family::kPerson, "daplex", "university", 0, 4},
      {Family::kPerson, "daplex", "university", 1, 4},
      {Family::kPerson, "codasyl", "university", 2, 4},
      {Family::kPerson, "codasyl", "university", 3, 4},
      {Family::kPatient, "dli", "clinic", 0, 2},
      {Family::kPatient, "dli", "clinic", 1, 2},
  };
  std::vector<std::unique_ptr<Script>> scripts;
  uint64_t salt = 0;
  for (const Spec& spec : specs) {
    scripts.push_back(std::make_unique<OltpScript>(
        this, spec.family, spec.language, spec.database, spec.part,
        spec.parts, salt++));
  }
  return scripts;
}

// ---------------------------------------------------------------------
// scan_report

constexpr char kSalesDdl[] =
    "SCHEMA sales;"
    "CREATE TABLE sale (sid CHAR(12) NOT NULL, region INTEGER, day INTEGER, "
    "amount FLOAT, note CHAR(40), UNIQUE (sid));";
constexpr char kStockDdl[] =
    "SCHEMA stock;"
    "TYPE product IS ENTITY pcode : STRING(12); category : STRING(12); "
    "price : FLOAT; blurb : STRING(48); END ENTITY;";
constexpr char kRetailDdl[] =
    "SCHEMA NAME IS retail;"
    "RECORD NAME IS region; ITEM rname TYPE IS CHARACTER 12;"
    "RECORD NAME IS shop; ITEM shname TYPE IS CHARACTER 12;"
    "RECORD NAME IS ticket; ITEM tno TYPE IS CHARACTER 12;"
    "  ITEM total TYPE IS FLOAT; ITEM memo TYPE IS CHARACTER 32;"
    "SET NAME IS has_shop; OWNER IS region; MEMBER IS shop;"
    "  INSERTION IS AUTOMATIC; RETENTION IS MANDATORY;"
    "  SET SELECTION IS BY APPLICATION;"
    "SET NAME IS has_ticket; OWNER IS shop; MEMBER IS ticket;"
    "  INSERTION IS AUTOMATIC; RETENTION IS MANDATORY;"
    "  SET SELECTION IS BY APPLICATION;";

constexpr int kDays = 360;
constexpr int kRegions = 8;
constexpr int kCategories = 5;
constexpr int kRetailRegions = 4;
constexpr int kShops = 32;
// Selectivities of 11-19%: wide enough to vary, close enough that every
// scan kind returns 4-8k rows, so the latency distribution stays
// unimodal and its median does not jump between kinds from run to run.
constexpr int kRangeWidths[] = {40, 50, 60, 70};

class ScanReport : public Workload {
 public:
  ScanReport(uint64_t seed, bool tiny)
      : seed_(seed),
        sales_(tiny ? 1500 : 40000),
        products_(tiny ? 600 : 20000),
        // Even the tiny WALK result outgrows the server's stream
        // threshold, so the self-test sees chunked replies.
        tickets_(tiny ? 4000 : 6000),
        day_prefix_(kDays + 1, 0),
        region_count_(kRegions + 1, 0),
        category_count_(kCategories, 0) {
    for (uint64_t i = 1; i <= sales_; ++i) {
      ++day_prefix_[Day(i)];
      ++region_count_[Region(i)];
    }
    for (int d = 1; d <= kDays; ++d) day_prefix_[d] += day_prefix_[d - 1];
    for (uint64_t i = 1; i <= products_; ++i) ++category_count_[Category(i)];
  }

  std::string name() const override { return "scan_report"; }
  bool mbds() const override { return true; }
  double pool_fraction() const override { return 0.25; }
  size_t sessions() const override { return 2; }
  // One connection: both sessions' chunk runs interleave on one socket,
  // so the client sees each first chunk as it arrives.
  size_t connections() const override { return 1; }

  int Day(uint64_t i) const { return 1 + static_cast<int>(Mix(seed_, 30, i) % kDays); }
  int Region(uint64_t i) const {
    return 1 + static_cast<int>(Mix(seed_, 31, i) % kRegions);
  }
  int Category(uint64_t i) const {
    return static_cast<int>(Mix(seed_, 32, i) % kCategories);
  }
  uint64_t SalesInDays(int from, int to) const {
    return day_prefix_[to] - day_prefix_[from - 1];
  }
  uint64_t SalesInRegion(int region) const { return region_count_[region]; }
  uint64_t ProductsIn(int category) const { return category_count_[category]; }
  uint64_t tickets() const { return tickets_; }
  uint64_t seed() const { return seed_; }

  Result<std::unique_ptr<MldsSystem>> Build(const std::string& data_dir,
                                            size_t pool_pages) const override {
    std::unique_ptr<MldsSystem> system = NewSystem(true, data_dir, pool_pages);
    mlds::kc::KernelExecutor* executor = system->executor();

    MLDS_RETURN_IF_ERROR(system->LoadRelationalDatabase(kSalesDdl));
    std::vector<Record> sales;
    sales.reserve(sales_);
    for (uint64_t i = 1; i <= sales_; ++i) {
      sales.push_back(MakeRecord(
          "sale",
          {{"sid", Value::String(Fmt("t", i, 6))},
           {"region", Value::Integer(Region(i))},
           {"day", Value::Integer(Day(i))},
           {"amount", Value::Float(QuarterValue(Mix(seed_, 33, i), 1, 999))},
           {"note", Value::String(Filler(Mix(seed_, 34, i), 32))},
           {"sale", Value::String(DbKey("sale", i))}}));
    }
    MLDS_RETURN_IF_ERROR(BulkLoad(executor, std::move(sales)));

    MLDS_RETURN_IF_ERROR(system->LoadFunctionalDatabase(kStockDdl));
    std::vector<Record> products;
    products.reserve(products_);
    for (uint64_t i = 1; i <= products_; ++i) {
      products.push_back(MakeRecord(
          "product",
          {{"product", Value::String(DbKey("product", i))},
           {"pcode", Value::String(Fmt("p", i, 6))},
           {"category", Value::String("cat_" + std::to_string(Category(i)))},
           {"price", Value::Float(QuarterValue(Mix(seed_, 35, i), 1, 999))},
           {"blurb", Value::String(Filler(Mix(seed_, 36, i), 40))}}));
    }
    MLDS_RETURN_IF_ERROR(BulkLoad(executor, std::move(products)));

    MLDS_RETURN_IF_ERROR(system->LoadNetworkDatabase(kRetailDdl));
    std::vector<Record> retail;
    for (int r = 1; r <= kRetailRegions; ++r) {
      retail.push_back(MakeRecord(
          "region", {{"region", Value::String(DbKey("region", r))},
                     {"rname", Value::String("region " + std::to_string(r))}}));
    }
    for (int s = 1; s <= kShops; ++s) {
      retail.push_back(MakeRecord(
          "shop",
          {{"shop", Value::String(DbKey("shop", s))},
           {"shname", Value::String("shop " + std::to_string(s))},
           {"has_shop",
            Value::String(DbKey("region", 1 + (s - 1) % kRetailRegions))}}));
    }
    for (uint64_t t = 1; t <= tickets_; ++t) {
      retail.push_back(MakeRecord(
          "ticket",
          {{"ticket", Value::String(DbKey("ticket", t))},
           {"tno", Value::String(Fmt("k", t, 6))},
           {"total", Value::Float(QuarterValue(Mix(seed_, 37, t), 1, 999))},
           {"memo", Value::String(Filler(Mix(seed_, 38, t), 24))},
           {"has_ticket",
            Value::String(DbKey("shop", 1 + Mix(seed_, 39, t) % kShops))}}));
    }
    MLDS_RETURN_IF_ERROR(BulkLoad(executor, std::move(retail)));
    return system;
  }

  std::vector<std::unique_ptr<Script>> MakeScripts() override;

  std::vector<std::string> PointProbes() const override {
    return {"RETRIEVE ((FILE = sale) and (sid = 't000001')) (sid, amount)"};
  }
  std::vector<std::string> ScanProbes() const override {
    return {"RETRIEVE ((FILE = sale) and (day >= 100) and (day <= 189)) "
            "(sid, region, day, amount, note)",
            "RETRIEVE ((FILE = product) and (category = 'cat_0')) "
            "(pcode, price, blurb)",
            "RETRIEVE ((FILE = sale) and (region = 1)) (sid, day, amount, "
            "note) BY sid"};
  }

  Json Params() const override {
    return Json()
        .Str("kernel", "MBDS, 2 backends, page files")
        .Int("sale_rows", sales_)
        .Int("product_rows", products_)
        .Int("ticket_rows", tickets_)
        .Int("sessions", sessions())
        .Int("connections", connections())
        .Str("mix",
             "per 10 statements: 4 sql range selects (widths 40, 50, 60, "
             "70 days), 2 daplex for-each, 2 codasyl walk, 2 abdl "
             "retrieve-by")
        .Num("pool_fraction_of_partition_pages", pool_fraction());
  }

 private:
  uint64_t seed_;
  uint64_t sales_;
  uint64_t products_;
  uint64_t tickets_;
  std::vector<uint64_t> day_prefix_;
  std::vector<uint64_t> region_count_;
  std::vector<uint64_t> category_count_;
};

/// One scan_report session. Its statements come from a deck holding the
/// mix in exact proportion (every range width once per SQL slot), dealt
/// in a seeded order and reshuffled after each pass, so every run sends
/// the same mix and the seed only moves ranges, categories and regions.
class ScanScript : public Script {
 public:
  enum class Kind { kSqlRange, kDaplexForEach, kCodasylWalk, kAbdlBy };

  ScanScript(const ScanReport* workload, uint64_t salt)
      : w_(workload), rng_(Mix(workload->seed(), 40, salt)) {
    for (size_t i = 0; i < std::size(kRangeWidths); ++i) {
      deck_.push_back(Kind::kSqlRange);
    }
    for (Kind kind : {Kind::kDaplexForEach, Kind::kCodasylWalk, Kind::kAbdlBy}) {
      deck_.push_back(kind);
      deck_.push_back(kind);
    }
  }

  void NextOp(std::vector<Stmt>* out) override {
    if (dealt_ == 0) {
      for (size_t i = deck_.size(); i > 1; --i) {
        std::swap(deck_[i - 1], deck_[rng_.Below(i)]);
      }
    }
    const Kind kind = deck_[dealt_];
    dealt_ = (dealt_ + 1) % deck_.size();

    Stmt stmt;
    stmt.cls = StmtClass::kScan;
    stmt.op = ++op_;
    switch (kind) {
      case Kind::kSqlRange: {
        const int width = kRangeWidths[range_++ % std::size(kRangeWidths)];
        const int from = 1 + static_cast<int>(rng_.Below(kDays + 1 - width));
        const int to = from + width - 1;
        stmt.language = "sql";
        stmt.database = "sales";
        stmt.text = "SELECT sid, region, day, amount, note FROM sale WHERE "
                    "day >= " + std::to_string(from) + " AND day <= " +
                    std::to_string(to);
        stmt.rows = w_->SalesInDays(from, to);
        break;
      }
      case Kind::kDaplexForEach: {
        const int category = static_cast<int>(rng_.Below(kCategories));
        stmt.language = "daplex";
        stmt.database = "stock";
        stmt.text = "FOR EACH product SUCH THAT category = 'cat_" +
                    std::to_string(category) + "' PRINT pcode, price, blurb";
        stmt.rows = w_->ProductsIn(category);
        break;
      }
      case Kind::kCodasylWalk:
        stmt.language = "codasyl";
        stmt.database = "retail";
        stmt.text = "WALK has_shop THEN has_ticket";
        stmt.rows = w_->tickets();
        break;
      case Kind::kAbdlBy: {
        const int region = 1 + static_cast<int>(rng_.Below(kRegions));
        stmt.language = "abdl";
        stmt.database = "sales";
        stmt.text = "RETRIEVE ((FILE = sale) and (region = " +
                    std::to_string(region) + ")) (sid, day, amount, note) BY sid";
        stmt.rows = w_->SalesInRegion(region);
        break;
      }
    }
    stmt.expect.rows = static_cast<int64_t>(stmt.rows);
    out->push_back(std::move(stmt));
  }

 private:
  const ScanReport* w_;
  Rng rng_;
  std::vector<Kind> deck_;
  size_t dealt_ = 0;
  size_t range_ = 0;
  uint64_t op_ = 0;
};

std::vector<std::unique_ptr<Script>> ScanReport::MakeScripts() {
  std::vector<std::unique_ptr<Script>> scripts;
  for (uint64_t s = 0; s < sessions(); ++s) {
    scripts.push_back(std::make_unique<ScanScript>(this, s));
  }
  return scripts;
}

// ---------------------------------------------------------------------
// ingest_mixed

constexpr char kShopDdl[] =
    "SCHEMA shop;"
    "CREATE TABLE orders (oid CHAR(12) NOT NULL, amount FLOAT, UNIQUE (oid));"
    "CREATE TABLE events (eid CHAR(12) NOT NULL, kind INTEGER, "
    "UNIQUE (eid));";
constexpr char kLedgerDdl[] =
    "SCHEMA NAME IS ledger;"
    "RECORD NAME IS account; ITEM acct_no TYPE IS INTEGER;"
    "  ITEM balance TYPE IS FLOAT;"
    "  DUPLICATES ARE NOT ALLOWED FOR acct_no;";
constexpr char kCatalogDdl[] =
    "SCHEMA catalog;"
    "TYPE item IS ENTITY sku : STRING(12); price : FLOAT; END ENTITY;"
    "UNIQUE sku WITHIN item;";

/// How many acknowledged keys a reader's "recent" half draws from.
constexpr size_t kRecentKeys = 64;

/// One ingest stream: a UNIQUE-keyed file and the language whose writer
/// and reader sessions use it. ABDL has no UNIQUE of its own: its rows go
/// into a table whose SQL declaration is UNIQUE, without the SQL probe.
struct Stream {
  const char* file;
  const char* key_column;
  const char* value_column;
  const char* language;
  const char* database;
  const char* batch_template;
};
constexpr Stream kStreams[] = {
    {"orders", "oid", "amount", "sql", "shop",
     "INSERT INTO orders (oid, amount) VALUES (?, ?)"},
    {"account", "acct_no", "balance", "codasyl", "ledger",
     "STORE account (acct_no = ?, balance = ?)"},
    {"item", "sku", "price", "daplex", "catalog",
     "CREATE item (sku = ?, price = ?)"},
    {"events", "eid", "kind", "abdl", "shop",
     "INSERT (<FILE, events>, <eid, ?>, <kind, ?>)"},
};
constexpr size_t kStreamCount = std::size(kStreams);

class IngestMixed : public Workload {
 public:
  IngestMixed(uint64_t seed, bool tiny)
      : seed_(seed),
        loaded_(tiny ? 300 : 40000),
        batch_rows_(tiny ? 5 : 20) {}

  std::string name() const override { return "ingest_mixed"; }
  bool mbds() const override { return true; }
  double pool_fraction() const override { return 1.5; }
  size_t sessions() const override { return 2 * kStreamCount; }
  size_t connections() const override { return 2; }

  uint64_t loaded() const { return loaded_; }
  size_t batch_rows() const { return batch_rows_; }
  uint64_t seed() const { return seed_; }

  /// The key and value columns of row `ordinal` of stream `s`.
  Value Key(size_t s, uint64_t ordinal) const {
    switch (s) {
      case 0: return Value::String(Fmt("o", ordinal, 7));
      case 1: return Value::Integer(static_cast<int64_t>(ordinal));
      case 2: return Value::String(Fmt("k", ordinal, 7));
      default: return Value::String(Fmt("e", ordinal, 7));
    }
  }
  Value Val(size_t s, uint64_t ordinal) const {
    const uint64_t h = Mix(seed_, 50 + s, ordinal);
    if (s == 3) return Value::Integer(static_cast<int64_t>(h % 100));
    return Value::Float(QuarterValue(h, 1, 999));
  }

  /// Writers hand out ordinals and acknowledge them; readers draw from
  /// the acknowledged ones.
  struct Ledger {
    uint64_t next = 0;   ///< next ordinal a writer generates
    uint64_t acked = 0;  ///< rows acknowledged beyond the loaded ones
    std::vector<uint64_t> recent;
  };
  Ledger& ledger(size_t s) { return ledgers_[s]; }

  Result<std::unique_ptr<MldsSystem>> Build(const std::string& data_dir,
                                            size_t pool_pages) const override {
    std::unique_ptr<MldsSystem> system = NewSystem(true, data_dir, pool_pages);
    mlds::kc::KernelExecutor* executor = system->executor();
    MLDS_RETURN_IF_ERROR(system->LoadRelationalDatabase(kShopDdl));
    MLDS_RETURN_IF_ERROR(system->LoadNetworkDatabase(kLedgerDdl));
    MLDS_RETURN_IF_ERROR(system->LoadFunctionalDatabase(kCatalogDdl));
    for (size_t s = 0; s < kStreamCount; ++s) {
      const Stream& stream = kStreams[s];
      std::vector<Record> records;
      records.reserve(loaded_);
      for (uint64_t i = 1; i <= loaded_; ++i) {
        const Value dbkey = Value::String(DbKey(stream.file, i));
        // Relational rows carry their tuple key last, network and
        // functional records their database key first.
        if (s == 0 || s == 3) {
          records.push_back(MakeRecord(stream.file,
                                       {{stream.key_column, Key(s, i)},
                                        {stream.value_column, Val(s, i)},
                                        {stream.file, dbkey}}));
        } else {
          records.push_back(MakeRecord(stream.file,
                                       {{stream.file, dbkey},
                                        {stream.key_column, Key(s, i)},
                                        {stream.value_column, Val(s, i)}}));
        }
      }
      MLDS_RETURN_IF_ERROR(BulkLoad(executor, std::move(records)));
    }
    return system;
  }

  std::vector<std::unique_ptr<Script>> MakeScripts() override;

  std::vector<std::string> PointProbes() const override {
    return {"RETRIEVE ((FILE = orders) and (oid = 'o0000001')) (oid, amount)",
            "RETRIEVE ((FILE = account) and (acct_no = 1)) (acct_no, balance)",
            "RETRIEVE ((FILE = item) and (sku = 'k0000001')) (sku, price)",
            "RETRIEVE ((FILE = events) and (eid = 'e0000001')) (eid, kind)"};
  }

  void Audit(mlds::client::MldsClient& client,
             std::vector<std::string>* problems) override;

  Json Params() const override {
    return Json()
        .Str("kernel", "MBDS, 2 backends, page files")
        .Int("rows_per_file", loaded_)
        .Int("files", kStreamCount)
        .Int("batch_rows", batch_rows_)
        .Int("writer_sessions", kStreamCount)
        .Int("reader_sessions", kStreamCount)
        .Int("connections", connections())
        .Str("writers", "sql orders, codasyl account, daplex item, abdl events")
        .Num("recent_read_share", 0.5)
        .Num("pool_fraction_of_partition_pages", pool_fraction());
  }

 private:
  uint64_t seed_;
  uint64_t loaded_;
  size_t batch_rows_;
  Ledger ledgers_[kStreamCount];
};

class IngestWriter : public Script {
 public:
  IngestWriter(IngestMixed* workload, size_t stream)
      : w_(workload), s_(stream) {
    w_->ledger(s_).next = w_->loaded() + 1;
  }

  void NextOp(std::vector<Stmt>* out) override {
    const Stream& stream = kStreams[s_];
    IngestMixed::Ledger& ledger = w_->ledger(s_);
    Stmt stmt;
    stmt.cls = StmtClass::kWrite;
    stmt.language = stream.language;
    stmt.database = stream.database;
    stmt.text = stream.batch_template;
    stmt.op = ++op_;
    stmt.key = ledger.next;
    for (size_t r = 0; r < w_->batch_rows(); ++r) {
      stmt.batch.push_back({w_->Key(s_, ledger.next), w_->Val(s_, ledger.next)});
      ++ledger.next;
    }
    stmt.rows = stmt.batch.size();
    stmt.value = std::to_string(stmt.rows);
    stmt.expect.contains = AckText(stmt.rows);
    out->push_back(std::move(stmt));
  }

  void OnSuccess(const Stmt& stmt) override {
    IngestMixed::Ledger& ledger = w_->ledger(s_);
    ledger.acked += stmt.rows;
    for (uint64_t i = stmt.key; i < stmt.key + stmt.rows; ++i) {
      ledger.recent.push_back(i);
    }
    if (ledger.recent.size() > kRecentKeys) {
      ledger.recent.erase(ledger.recent.begin(),
                          ledger.recent.end() - kRecentKeys);
    }
  }

 private:
  /// How each language acknowledges a batch of `rows` inserts.
  std::string AckText(uint64_t rows) const {
    const std::string n = std::to_string(rows);
    switch (s_) {
      case 0: return "inserted " + n + " row";
      case 1: return "stored " + n + " ";
      case 2: return "created " + n + " ";
      default: return n + " records affected";
    }
  }

  IngestMixed* w_;
  size_t s_;
  uint64_t op_ = 0;
};

class IngestReader : public Script {
 public:
  IngestReader(IngestMixed* workload, size_t stream)
      : w_(workload), s_(stream), rng_(Mix(workload->seed(), 60, stream)) {}

  void NextOp(std::vector<Stmt>* out) override {
    const Stream& stream = kStreams[s_];
    const std::vector<uint64_t>& recent = w_->ledger(s_).recent;
    const uint64_t ordinal = rng_.Below(2) == 0 && !recent.empty()
                                 ? recent[rng_.Below(recent.size())]
                                 : 1 + rng_.Below(w_->loaded());
    const Value key = w_->Key(s_, ordinal);
    const std::string literal =
        key.is_string() ? "'" + key.AsString() + "'" : Show(key);
    Stmt stmt;
    stmt.cls = StmtClass::kPoint;
    stmt.language = stream.language;
    stmt.database = stream.database;
    stmt.op = ++op_;
    stmt.rows = 1;
    stmt.expect.rows = 1;
    stmt.expect.cells = {{stream.key_column, Show(key)},
                         {stream.value_column, Show(w_->Val(s_, ordinal))}};
    switch (s_) {
      case 0:
        stmt.text = "SELECT oid, amount FROM orders WHERE oid = " + literal;
        break;
      case 1: {
        Stmt move = stmt;
        move.text = "MOVE " + literal + " TO acct_no IN account";
        move.expect = Expect{};
        move.expect.contains = "UWA account.acct_no set";
        move.rows = 0;
        out->push_back(std::move(move));
        stmt.text = "FIND ANY account USING acct_no IN account";
        break;
      }
      case 2:
        stmt.text = "FOR EACH item SUCH THAT sku = " + literal +
                    " PRINT sku, price";
        break;
      default:
        stmt.text = "RETRIEVE ((FILE = events) and (eid = " + literal +
                    ")) (eid, kind)";
    }
    out->push_back(std::move(stmt));
  }

 private:
  IngestMixed* w_;
  size_t s_;
  Rng rng_;
  uint64_t op_ = 0;
};

std::vector<std::unique_ptr<Script>> IngestMixed::MakeScripts() {
  for (Ledger& ledger : ledgers_) ledger = Ledger{};
  std::vector<std::unique_ptr<Script>> scripts;
  for (size_t s = 0; s < kStreamCount; ++s) {
    scripts.push_back(std::make_unique<IngestWriter>(this, s));
  }
  for (size_t s = 0; s < kStreamCount; ++s) {
    scripts.push_back(std::make_unique<IngestReader>(this, s));
  }
  return scripts;
}

/// Lists a file's keys through one language and checks the count and
/// that no key repeats.
void AuditListing(mlds::client::MldsClient& client, const char* language,
                  const char* database, const std::string& statement,
                  const char* column, uint64_t expected,
                  std::vector<std::string>* problems) {
  const std::string where = std::string(language) + " '" + statement + "'";
  if (Status use = client.Use(language, database); !use.ok()) {
    problems->push_back(where + ": " + use.ToString());
    return;
  }
  Result<mlds::wire::ExecuteResult> result = client.Execute(statement);
  if (!result.ok()) {
    problems->push_back(where + ": " + result.status().ToString());
    return;
  }
  const Table table = ParseTable(result->body);
  std::set<std::string> keys;
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const std::string* key = table.Cell(r, column);
    if (key != nullptr) keys.insert(*key);
  }
  if (table.rows.size() != expected) {
    problems->push_back(where + ": " + std::to_string(table.rows.size()) +
                        " rows, expected loaded + acknowledged = " +
                        std::to_string(expected));
  }
  if (keys.size() != table.rows.size()) {
    problems->push_back(where + ": " +
                        std::to_string(table.rows.size() - keys.size()) +
                        " duplicate UNIQUE keys");
  }
}

void IngestMixed::Audit(mlds::client::MldsClient& client,
                        std::vector<std::string>* problems) {
  // Every file is listed through ABDL and, where a language can list a
  // whole file in one statement, through that language too: SQL for the
  // two relational files, Daplex for the entity file. CODASYL has no
  // one-statement listing, so `account` is audited through ABDL alone.
  struct Listing {
    const char* language;
    const char* text;
  };
  const Listing second[kStreamCount] = {
      {"sql", "SELECT oid FROM orders"},
      {nullptr, nullptr},
      {"daplex", "FOR EACH item PRINT sku"},
      {"sql", "SELECT eid FROM events"},
  };
  for (size_t s = 0; s < kStreamCount; ++s) {
    const Stream& stream = kStreams[s];
    const uint64_t expected = loaded_ + ledgers_[s].acked;
    AuditListing(client, "abdl", stream.database,
                 std::string("RETRIEVE ((FILE = ") + stream.file + ")) (" +
                     stream.key_column + ")",
                 stream.key_column, expected, problems);
    if (second[s].language != nullptr) {
      AuditListing(client, second[s].language, stream.database, second[s].text,
                   stream.key_column, expected, problems);
    }
  }
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(std::string_view name, uint64_t seed,
                                       bool tiny) {
  if (name == "oltp_point") return std::make_unique<OltpPoint>(seed, tiny);
  if (name == "scan_report") return std::make_unique<ScanReport>(seed, tiny);
  if (name == "ingest_mixed") return std::make_unique<IngestMixed>(seed, tiny);
  return nullptr;
}

}  // namespace perfbench
