// Tests for the report formatting utilities.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "report/csv_export.hpp"
#include "report/table.hpp"

namespace rep = redund::report;

namespace {

TEST(Table, RendersAlignedColumns) {
  rep::Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| name  | value |"), std::string::npos);
  EXPECT_NE(text.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(text.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, SeparatorRendersRule) {
  rep::Table table({"x"});
  table.add_row({"1"});
  table.add_separator();
  table.add_row({"2"});
  std::ostringstream out;
  table.print(out);
  // Header rule + top + separator + bottom = 4 rules.
  std::size_t rules = 0;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("+-", 0) == 0) ++rules;
  }
  EXPECT_EQ(rules, 4u);
}

TEST(Table, RowArityEnforced) {
  rep::Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(rep::Table({}), std::invalid_argument);
}

TEST(Table, CsvEscapesSpecials) {
  rep::Table table({"k", "v"});
  table.add_row({"plain", "1,000"});
  table.add_row({"quote\"d", "x"});
  table.add_separator();  // Skipped in CSV.
  std::ostringstream out;
  table.write_csv(out);
  EXPECT_EQ(out.str(), "k,v\nplain,\"1,000\"\n\"quote\"\"d\",x\n");
}

TEST(Format, Fixed) {
  EXPECT_EQ(rep::fixed(1.23456, 2), "1.23");
  EXPECT_EQ(rep::fixed(2.0, 4), "2.0000");
  EXPECT_EQ(rep::fixed(-0.5, 1), "-0.5");
}

TEST(CsvExport, ParsesFlagFromArgv) {
  const char* with_flag[] = {"bench", "--csv-dir", "/tmp/out"};
  EXPECT_EQ(rep::csv_directory_from_args(3, with_flag), "/tmp/out");

  const char* without[] = {"bench", "--other"};
  EXPECT_EQ(rep::csv_directory_from_args(2, without), "");

  const char* dangling[] = {"bench", "--csv-dir"};
  EXPECT_THROW((void)rep::csv_directory_from_args(2, dangling),
               std::invalid_argument);
}

TEST(CsvExport, WritesAndSkips) {
  rep::Table table({"a", "b"});
  table.add_row({"1", "2"});

  // Empty directory => no-op.
  EXPECT_EQ(rep::export_csv(table, "", "name"), "");

  // Real write to the test's temp area.
  const std::string directory = ::testing::TempDir();
  const std::string path = rep::export_csv(table, directory, "unit_csv");
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());

  // Unwritable directory => error.
  EXPECT_THROW((void)rep::export_csv(table, "/nonexistent-dir-xyz", "x"),
               std::runtime_error);
}

TEST(Format, WithCommas) {
  EXPECT_EQ(rep::with_commas(std::int64_t{0}), "0");
  EXPECT_EQ(rep::with_commas(std::int64_t{999}), "999");
  EXPECT_EQ(rep::with_commas(std::int64_t{1000}), "1,000");
  EXPECT_EQ(rep::with_commas(std::int64_t{1234567}), "1,234,567");
  EXPECT_EQ(rep::with_commas(std::int64_t{-1234567}), "-1,234,567");
  EXPECT_EQ(rep::with_commas(1386294.36), "1,386,294");
}

}  // namespace
