// Chapter VI fidelity: the exact ABDL request sequences KMS generates for
// each CODASYL-DML statement, asserted against the thesis's translation
// templates in its own notation.

#include <gtest/gtest.h>

#include <memory>

#include "kds/engine.h"
#include "kms/dml_machine.h"
#include "university/university.h"

namespace mlds::kms {
namespace {

class TranslationTemplateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    executor_ = std::make_unique<kc::EngineExecutor>(&engine_);
    university::UniversityConfig config;
    auto db = university::BuildUniversityDatabase(config, executor_.get());
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::make_unique<university::UniversityDatabase>(std::move(*db));
    machine_ = std::make_unique<DmlMachine>(&db_->mapping.schema,
                                            &db_->mapping, executor_.get());
  }

  void Must(std::string_view dml) {
    auto result = machine_->ExecuteText(dml);
    ASSERT_TRUE(result.ok()) << dml << ": " << result.status();
  }

  /// The ABDL requests of the most recent statement.
  const std::vector<std::string>& LastAbdl() {
    return machine_->trace().back().abdl;
  }

  kds::Engine engine_;
  std::unique_ptr<kc::EngineExecutor> executor_;
  std::unique_ptr<university::UniversityDatabase> db_;
  std::unique_ptr<DmlMachine> machine_;
};

TEST_F(TranslationTemplateTest, FindAnyTemplate) {
  // Ch. VI.B.1:
  //   RETRIEVE ((FILE = record_type_x) AND (item_1 = value_1) ...)
  //            (all attributes) [by record_type_x]
  Must("MOVE 'Advanced Database' TO title IN course");
  Must("MOVE 'Fall86' TO semester IN course");
  Must("FIND ANY course USING title, semester IN course");
  ASSERT_EQ(LastAbdl().size(), 1u);
  EXPECT_EQ(LastAbdl()[0],
            "RETRIEVE ((FILE = 'course') and (title = 'Advanced Database') "
            "and (semester = 'Fall86')) (all attributes) BY course");
}

TEST_F(TranslationTemplateTest, FindFirstWithinIsaSetTemplate) {
  // Ch. VI.B.4 (ISA set): RETRIEVE ((FILE = record_type_x) AND
  //   (MEMBER-set_type_y = owner dbkey)) (all attributes)
  Must("MOVE 'person_3' TO person IN person");
  Must("FIND ANY person USING person IN person");
  Must("FIND FIRST student WITHIN person_student");
  ASSERT_EQ(LastAbdl().size(), 1u);
  EXPECT_EQ(LastAbdl()[0],
            "RETRIEVE ((FILE = 'student') and (person_student = "
            "'person_3')) (all attributes)");
}

TEST_F(TranslationTemplateTest, FindOwnerTemplate) {
  // Ch. VI.B.5: RETRIEVE ((FILE = CIT.set.owner) AND
  //   (CIT.set.owner = CIT.set.dbkey)) (all attributes)
  Must("MOVE 'student_1' TO student IN student");
  Must("FIND ANY student USING student IN student");
  const std::string advisor_key =
      machine_->cit().CurrentOfSet("advisor")->owner_dbkey;
  Must("FIND OWNER WITHIN advisor");
  ASSERT_EQ(LastAbdl().size(), 1u);
  EXPECT_EQ(LastAbdl()[0], "RETRIEVE ((FILE = 'faculty') and (faculty = '" +
                               advisor_key + "')) (all attributes)");
}

TEST_F(TranslationTemplateTest, StoreTemplate) {
  // Ch. VI.G: INSERT (<FILE, record_type_x>, <record_type_x, key>,
  //   <items...>). The status of duplicates is the kernel's to determine:
  //   it checks DUPLICATES ARE NOT ALLOWED when it applies the INSERT.
  Must("MOVE 'Template Course' TO title IN course");
  Must("MOVE 'Tmpl88' TO semester IN course");
  Must("MOVE 3 TO credits IN course");
  Must("STORE course");
  // Requests: key-allocation probe, INSERT.
  ASSERT_EQ(LastAbdl().size(), 2u);
  EXPECT_TRUE(LastAbdl()[0].starts_with(
      "RETRIEVE ((FILE = 'course') and (course = 'course_"))
      << LastAbdl()[0];
  EXPECT_TRUE(LastAbdl()[1].starts_with("INSERT (<FILE, 'course'>, <course, "))
      << LastAbdl()[1];
  EXPECT_NE(LastAbdl()[1].find("<title, 'Template Course'>"),
            std::string::npos);
}

TEST_F(TranslationTemplateTest, ModifyTemplate) {
  // Ch. VI.F: UPDATE ((FILE = record) AND (record = run-unit dbkey))
  //   (data_item_i = user_value_i), repeated per field.
  Must("MOVE 'course_2' TO course IN course");
  Must("FIND ANY course USING course IN course");
  Must("MOVE 9 TO credits IN course");
  Must("MODIFY credits IN course");
  ASSERT_EQ(LastAbdl().size(), 1u);
  EXPECT_EQ(LastAbdl()[0],
            "UPDATE ((FILE = 'course') and (course = 'course_2')) "
            "(credits = 9)");
}

TEST_F(TranslationTemplateTest, DisconnectTemplate) {
  // Ch. VI.E (member side): UPDATE ((FILE = record) AND (record = run-unit
  //   dbkey) AND (set = owner dbkey)) (set = NULL).
  Must("MOVE 'student_2' TO student IN student");
  Must("FIND ANY student USING student IN student");
  const std::string owner =
      machine_->cit().CurrentOfSet("advisor")->owner_dbkey;
  Must("DISCONNECT student FROM advisor");
  ASSERT_GE(LastAbdl().size(), 1u);
  EXPECT_EQ(LastAbdl()[0],
            "UPDATE ((FILE = 'student') and (student = 'student_2') and "
            "(advisor = '" +
                owner + "')) (advisor = NULL)");
}

TEST_F(TranslationTemplateTest, EraseTemplate) {
  // Ch. VI.H.1: constraint-check RETRIEVEs (one per owned/referencing
  // set), then DELETE ((FILE = record) AND (record = run-unit dbkey)).
  Must("MOVE 'Erase Target' TO title IN course");
  Must("MOVE 'Er88' TO semester IN course");
  Must("MOVE 1 TO credits IN course");
  Must("STORE course");
  const std::string key = machine_->cit().run_unit()->dbkey;
  Must("ERASE course");
  const auto& abdl = LastAbdl();
  ASSERT_GE(abdl.size(), 2u);
  // course owns taught_by (member link_1): one membership probe.
  EXPECT_EQ(abdl[0], "RETRIEVE ((FILE = 'link_1') and (taught_by = '" + key +
                         "')) (taught_by)");
  EXPECT_EQ(abdl.back(),
            "DELETE ((FILE = 'course') and (course = '" + key + "'))");
}

TEST_F(TranslationTemplateTest, GetIssuesNoAbdl) {
  // Ch. VI.C: GET statements are served through KC from the buffers, not
  // mapped into ABDL retrieves.
  Must("MOVE 'course_1' TO course IN course");
  Must("FIND ANY course USING course IN course");
  Must("GET");
  EXPECT_TRUE(LastAbdl().empty());
}

TEST_F(TranslationTemplateTest, FindCurrentIssuesOneRefreshAtMost) {
  // Ch. VI.B.2: "the only function of this statement is to update CIT" —
  // the single request fetches the current member's record for the cache.
  Must("MOVE 'student_1' TO student IN student");
  Must("FIND ANY student USING student IN student");
  Must("FIND CURRENT student WITHIN advisor");
  EXPECT_EQ(LastAbdl().size(), 1u);
}

}  // namespace
}  // namespace mlds::kms
