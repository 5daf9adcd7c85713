#include "harness/csv.h"

#include <sstream>

#include <gtest/gtest.h>

namespace crp::harness {
namespace {

TEST(CsvRead, ParsesSimpleDistribution) {
  std::istringstream in("size,probability\n10,0.5\n20,0.25\n30,0.25\n");
  const auto dist = read_size_distribution_csv(in, 64);
  EXPECT_DOUBLE_EQ(dist.prob(10), 0.5);
  EXPECT_DOUBLE_EQ(dist.prob(20), 0.25);
  EXPECT_DOUBLE_EQ(dist.prob(30), 0.25);
  EXPECT_DOUBLE_EQ(dist.prob(11), 0.0);
}

TEST(CsvRead, RenormalizesUnnormalizedWeights) {
  std::istringstream in("4,2\n8,2\n");
  const auto dist = read_size_distribution_csv(in, 16);
  EXPECT_DOUBLE_EQ(dist.prob(4), 0.5);
  EXPECT_DOUBLE_EQ(dist.prob(8), 0.5);
}

TEST(CsvRead, SkipsCommentsAndBlankLines) {
  std::istringstream in("# a learned model\n\n5,1.0\n");
  const auto dist = read_size_distribution_csv(in, 16);
  EXPECT_DOUBLE_EQ(dist.prob(5), 1.0);
}

TEST(CsvRead, AccumulatesDuplicateSizes) {
  std::istringstream in("7,0.5\n7,0.5\n");
  const auto dist = read_size_distribution_csv(in, 16);
  EXPECT_DOUBLE_EQ(dist.prob(7), 1.0);
}

TEST(CsvRead, RejectsMalformedRows) {
  {
    std::istringstream in("5\n");
    EXPECT_THROW(read_size_distribution_csv(in, 16), std::invalid_argument);
  }
  {
    std::istringstream in("1,0.5\n");  // size < 2
    EXPECT_THROW(read_size_distribution_csv(in, 16), std::invalid_argument);
  }
  {
    std::istringstream in("100,0.5\n");  // size > n
    EXPECT_THROW(read_size_distribution_csv(in, 16), std::invalid_argument);
  }
  {
    std::istringstream in("5,-0.5\n");
    EXPECT_THROW(read_size_distribution_csv(in, 16), std::invalid_argument);
  }
  {
    std::istringstream in("5.5,0.5\n");  // non-integer size
    EXPECT_THROW(read_size_distribution_csv(in, 16), std::invalid_argument);
  }
  {
    std::istringstream in("");
    EXPECT_THROW(read_size_distribution_csv(in, 16), std::invalid_argument);
  }
  {
    std::istringstream in("5,0.5\nsize,probability\n");  // header mid-file
    EXPECT_THROW(read_size_distribution_csv(in, 16), std::invalid_argument);
  }
}

TEST(CsvRead, RejectsNonFiniteFieldsWithLineNumbers) {
  // strtod happily parses nan/inf, and "nan" passes a `prob < 0.0`
  // check (NaN comparisons are false) — both must be rejected as
  // malformed, not silently folded into the normalization total.
  for (const char* row : {"5,nan", "5,inf", "5,-inf", "nan,0.5", "inf,0.5",
                          "5,NAN", "5,Infinity"}) {
    std::istringstream in(std::string("4,0.25\n") + row + "\n");
    try {
      read_size_distribution_csv(in, 16);
      FAIL() << "accepted non-finite row \"" << row << "\"";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
          << "row \"" << row << "\": error lacks the line number: "
          << error.what();
    }
  }
  {
    // First data line too — non-finite must not be mistaken for a
    // header row.
    std::istringstream in("nan,0.5\n");
    EXPECT_THROW(read_size_distribution_csv(in, 16), std::invalid_argument);
  }
}

TEST(CsvRead, MissingFileThrows) {
  EXPECT_THROW(
      read_size_distribution_csv_file("/nonexistent/path.csv", 16),
      std::invalid_argument);
}

TEST(CsvFieldParsers, StrictUnsignedAndFiniteParsing) {
  EXPECT_EQ(parse_csv_unsigned("0"), 0u);
  EXPECT_EQ(parse_csv_unsigned("18446744073709551615"),
            ~std::uint64_t{0});  // UINT64_MAX exactly
  for (const char* bad : {"", "-1", "+1", "1.5", "1e3", "nan", "inf",
                          "18446744073709551616", " 1", "1 "}) {
    EXPECT_FALSE(parse_csv_unsigned(bad).has_value()) << bad;
  }
  EXPECT_EQ(parse_csv_finite("1.5"), 1.5);
  EXPECT_EQ(parse_csv_finite("-2"), -2.0);
  for (const char* bad : {"", "nan", "inf", "-inf", "NAN", "Infinity",
                          "1.5x", "x"}) {
    EXPECT_FALSE(parse_csv_finite(bad).has_value()) << bad;
  }
}

TEST(CsvQuoting, QuoteAndSplitRoundTrip) {
  // Plain fields pass through untouched (existing outputs stay
  // byte-stable); fields with commas/quotes/newlines get RFC-4180
  // treatment and split_csv_row undoes it exactly.
  EXPECT_EQ(csv_quote("plain"), "plain");
  EXPECT_EQ(csv_quote(""), "");
  EXPECT_EQ(csv_quote("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_quote("line\nbreak"), "\"line\nbreak\"");

  for (const std::vector<std::string> fields :
       {std::vector<std::string>{"a", "b", "c"},
        std::vector<std::string>{"a,b", "c\"d", ""},
        std::vector<std::string>{"", "", ""},
        std::vector<std::string>{"x"}}) {
    std::string line;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) line += ',';
      line += csv_quote(fields[i]);
    }
    EXPECT_EQ(split_csv_row(line), fields) << "line: " << line;
  }

  EXPECT_EQ(split_csv_row("a,"),
            (std::vector<std::string>{"a", ""}));  // trailing empty field
  EXPECT_EQ(split_csv_row("\"a,b\",c"),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_THROW(split_csv_row("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(split_csv_row("\"a\"garbage,b"), std::invalid_argument);
}

TEST(CsvWriterTest, QuotesCellsOnWrite) {
  std::ostringstream out;
  CsvWriter writer(out, {"name", "value"});
  writer.row({"a,b", "1"});
  writer.row({"q\"q", "2"});
  EXPECT_EQ(out.str(), "name,value\n\"a,b\",1\n\"q\"\"q\",2\n");
}

TEST(CsvWriterTest, WritesHeaderAndRows) {
  std::ostringstream out;
  CsvWriter writer(out, {"a", "b"});
  writer.row({"1", "2"});
  writer.row({"x", "y"});
  EXPECT_EQ(out.str(), "a,b\n1,2\nx,y\n");
  EXPECT_THROW(writer.row({"too", "many", "cells"}),
               std::invalid_argument);
}

TEST(CsvWriterTest, MeasurementCellsMatchHeaderWidth) {
  Measurement m;
  m.trials = 10;
  m.success_rate = 0.9;
  for (const std::uint64_t round : {1, 2, 3}) m.histogram.add_solved(round);
  m.rounds = m.histogram.summary();
  EXPECT_EQ(CsvWriter::measurement_cells(m).size(),
            CsvWriter::measurement_header().size());
}

}  // namespace
}  // namespace crp::harness
