// Tests for storage compaction and MBDS placement of unique-keyed records.

#include <gtest/gtest.h>

#include "abdl/parser.h"
#include "kds/engine.h"
#include "mbds/controller.h"

namespace mlds {
namespace {

abdm::FileDescriptor ItemFile() {
  abdm::FileDescriptor f;
  f.name = "item";
  f.attributes = {{"FILE", abdm::ValueKind::kString, 0, true},
                  {"key", abdm::ValueKind::kInteger, 0, true},
                  {"payload", abdm::ValueKind::kString, 0, false}};
  return f;
}

/// ItemFile with `key` unique: the controller places its records by a
/// hash of the key.
abdm::FileDescriptor UniqueItemFile() {
  abdm::FileDescriptor f = ItemFile();
  f.attributes[1].indexed = true;
  f.attributes[1].unique = true;
  return f;
}

abdl::Request MustParse(std::string_view text) {
  auto r = abdl::ParseRequest(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return *r;
}

void Load(kds::Engine* engine, int n) {
  ASSERT_TRUE(engine->DefineFile(ItemFile()).ok());
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(engine
                    ->Execute(MustParse("INSERT (<FILE, item>, <key, " +
                                        std::to_string(i) +
                                        ">, <payload, 'x'>)"))
                    .ok());
  }
}

TEST(CompactionTest, ReclaimsBlocksAfterMassDeletion) {
  kds::Engine engine(kds::EngineOptions{.block_capacity = 8});
  Load(&engine, 800);
  const uint64_t before = engine.TotalBlocks();
  ASSERT_TRUE(
      engine.Execute(MustParse("DELETE ((FILE = item) and (key >= 100))"))
          .ok());
  // Tombstones keep the blocks allocated until compaction.
  EXPECT_EQ(engine.TotalBlocks(), before);
  const uint64_t reclaimed = engine.CompactAll();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LT(engine.TotalBlocks(), before);
  EXPECT_EQ(engine.FileSize("item"), 100u);
}

TEST(CompactionTest, QueriesAnswerIdenticallyAfterCompaction) {
  kds::Engine engine(kds::EngineOptions{.block_capacity = 4});
  Load(&engine, 200);
  ASSERT_TRUE(engine
                  .Execute(MustParse(
                      "DELETE ((FILE = item) and (key < 150) and (key >= 50))"))
                  .ok());
  auto probe = MustParse("RETRIEVE ((FILE = item)) (key) BY key");
  auto before = engine.Execute(probe);
  ASSERT_TRUE(before.ok());
  engine.CompactAll();
  auto after = engine.Execute(probe);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->records, after->records);
  // And indexed point lookups still work off the rebuilt directory.
  auto point = engine.Execute(
      MustParse("RETRIEVE ((FILE = item) and (key = 180)) (key)"));
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point->records.size(), 1u);
}

TEST(CompactionTest, ScanCostDropsAfterCompaction) {
  kds::Engine engine(kds::EngineOptions{.block_capacity = 4});
  Load(&engine, 400);
  ASSERT_TRUE(
      engine.Execute(MustParse("DELETE ((FILE = item) and (key >= 40))"))
          .ok());
  auto scan = MustParse("RETRIEVE ((payload = 'x')) (key)");
  auto costly = engine.Execute(scan);
  ASSERT_TRUE(costly.ok());
  engine.CompactAll();
  auto cheap = engine.Execute(scan);
  ASSERT_TRUE(cheap.ok());
  EXPECT_LT(cheap->io.blocks_read, costly->io.blocks_read);
  EXPECT_EQ(cheap->records.size(), costly->records.size());
}

TEST(UniquePlacementTest, HashPlacementIsOrderIndependent) {
  mbds::MbdsOptions options;
  options.num_backends = 4;
  mbds::Controller forward(options);
  mbds::Controller backward(options);
  ASSERT_TRUE(forward.DefineFile(UniqueItemFile()).ok());
  ASSERT_TRUE(backward.DefineFile(UniqueItemFile()).ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(forward
                    .Execute(MustParse("INSERT (<FILE, item>, <key, " +
                                       std::to_string(i) + ">)"))
                    .ok());
    ASSERT_TRUE(backward
                    .Execute(MustParse("INSERT (<FILE, item>, <key, " +
                                       std::to_string(63 - i) + ">)"))
                    .ok());
  }
  for (int b = 0; b < 4; ++b) {
    EXPECT_EQ(forward.backend(b).engine().FileSize("item"),
              backward.backend(b).engine().FileSize("item"))
        << "backend " << b;
  }
}

TEST(UniquePlacementTest, HashPlacementStillAnswersQueriesCorrectly) {
  mbds::MbdsOptions options;
  options.num_backends = 3;
  mbds::Controller controller(options);
  ASSERT_TRUE(controller.DefineFile(UniqueItemFile()).ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(controller
                    .Execute(MustParse("INSERT (<FILE, item>, <key, " +
                                       std::to_string(i) + ">)"))
                    .ok());
  }
  auto all = controller.Execute(
      MustParse("RETRIEVE ((FILE = item)) (key) BY key"));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->response.records.size(), 30u);
}

}  // namespace
}  // namespace mlds
