#include "query/schema.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace midas {
namespace {

TableDef MakeTable(std::string name = "t", uint64_t row_count = 100) {
  return TableDef{.name = std::move(name),
                  .columns = {{"id", ColumnType::kInt, 4.0, 100},
                              {"name", ColumnType::kString, 20.0, 90}},
                  .row_count = row_count};
}

TEST(TableDefTest, RowWidthSumsColumnWidths) {
  EXPECT_DOUBLE_EQ(MakeTable().RowWidthBytes(), 24.0);
}

TEST(TableDefTest, SizeBytesIsWidthTimesRows) {
  EXPECT_DOUBLE_EQ(MakeTable().SizeBytes(), 2400.0);
}

TEST(TableDefTest, FindColumn) {
  TableDef t = MakeTable();
  auto col = t.FindColumn("name");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->distinct_values, 90u);
  EXPECT_FALSE(t.FindColumn("missing").ok());
}

TEST(CatalogTest, AddAndFind) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeTable()).ok());
  EXPECT_TRUE(catalog.Contains("t"));
  EXPECT_FALSE(catalog.Contains("u"));
  auto t = catalog.Find("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->row_count, 100u);
  EXPECT_FALSE(catalog.Find("u").ok());
}

TEST(CatalogTest, DuplicateTableRejected) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeTable()).ok());
  EXPECT_FALSE(catalog.AddTable(MakeTable()).ok());
}

TEST(CatalogTest, TotalBytesSumsTables) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeTable()).ok());
  ASSERT_TRUE(catalog.AddTable(MakeTable("u", 50)).ok());
  EXPECT_DOUBLE_EQ(catalog.TotalBytes(), 2400.0 + 1200.0);
}

TEST(CatalogTest, EmptyCatalog) {
  Catalog catalog;
  EXPECT_DOUBLE_EQ(catalog.TotalBytes(), 0.0);
  EXPECT_TRUE(catalog.tables().empty());
}

}  // namespace
}  // namespace midas
