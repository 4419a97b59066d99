// Copyright (c) 2026 madnet authors. All rights reserved.

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "util/csv.h"
#include "util/table.h"

namespace madnet {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class CsvWriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the cases of this binary as parallel
    // processes sharing TempDir().
    path_ = ::testing::TempDir() + "/madnet_csv_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CsvWriterTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"n", "rate", "method"});
    ASSERT_TRUE(csv.Ok());
    csv.Row(100, 98.5, "Flooding");
    csv.Row(200, 99.0, "Gossiping");
    EXPECT_TRUE(csv.Close().ok());
  }
  EXPECT_EQ(ReadFile(path_),
            "n,rate,method\n100,98.5,Flooding\n200,99,Gossiping\n");
}

TEST_F(CsvWriterTest, EscapesSpecialCharacters) {
  {
    CsvWriter csv(path_, {"a"});
    csv.WriteRow({"plain"});
    csv.WriteRow({"has,comma"});
    csv.WriteRow({"has\"quote"});
    csv.WriteRow({"has\nnewline"});
    EXPECT_TRUE(csv.Close().ok());
  }
  EXPECT_EQ(ReadFile(path_),
            "a\nplain\n\"has,comma\"\n\"has\"\"quote\"\n\"has\nnewline\"\n");
}

TEST_F(CsvWriterTest, BadPathReportsNotOk) {
  CsvWriter csv("/nonexistent_dir_zzz/file.csv", {"a"});
  EXPECT_FALSE(csv.Ok());
}

TEST(TableTest, AlignsColumns) {
  Table table({"name", "n"});
  table.Row("a", 1);
  table.Row("long-name", 22);
  const std::string out = table.ToString();
  // Header present, rule present, all rows present.
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Every line has the same length (fixed-width columns).
  std::istringstream lines(out);
  std::string line;
  size_t expected = 0;
  int line_no = 0;
  while (std::getline(lines, line)) {
    if (line_no == 0) expected = line.size();
    if (line_no != 1) {  // The rule line is its own width.
      EXPECT_EQ(line.size(), expected) << "line " << line_no;
    }
    ++line_no;
  }
  EXPECT_EQ(line_no, 4);
}

TEST(TableTest, HandlesRaggedRows) {
  Table table({"a", "b"});
  table.AddRow({"1"});
  table.AddRow({"1", "2", "3"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find('3'), std::string::npos);
}

TEST(TableTest, NumFormatsDigits) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(3.14159, 0), "3");
  EXPECT_EQ(Table::Num(-1.5, 1), "-1.5");
}

}  // namespace
}  // namespace madnet
