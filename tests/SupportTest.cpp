//===-- tests/SupportTest.cpp - support/ unit tests ------------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/support/Csv.h"
#include "ecas/support/Flags.h"
#include "ecas/support/Format.h"
#include "ecas/support/Random.h"
#include "ecas/support/Stats.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace ecas;

TEST(Format, BasicFormatting) {
  EXPECT_EQ(formatString("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(formatString("empty"), "empty");
}

TEST(Format, DurationUnits) {
  EXPECT_EQ(formatDuration(2.5e-9), "2.5 ns");
  EXPECT_EQ(formatDuration(3.25e-6), "3.25 us");
  EXPECT_EQ(formatDuration(1.5e-3), "1.50 ms");
  EXPECT_EQ(formatDuration(2.0), "2.000 s");
}

TEST(Format, EnergyUnits) {
  EXPECT_EQ(formatEnergy(5e-6), "5.00 uJ");
  EXPECT_EQ(formatEnergy(5e-3), "5.00 mJ");
  EXPECT_EQ(formatEnergy(5.0), "5.000 J");
  EXPECT_EQ(formatEnergy(5e3), "5.000 kJ");
}

TEST(Format, SplitAndTrim) {
  auto Parts = splitString(" a, b ,,c ", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[1], "b");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
  EXPECT_EQ(trimString("\t x \n"), "x");
  EXPECT_EQ(trimString(""), "");
}

TEST(Format, ParseDouble) {
  double Value = 0.0;
  EXPECT_TRUE(parseDouble("3.5", Value));
  EXPECT_DOUBLE_EQ(Value, 3.5);
  EXPECT_TRUE(parseDouble(" -2e3 ", Value));
  EXPECT_DOUBLE_EQ(Value, -2000.0);
  EXPECT_FALSE(parseDouble("3.5x", Value));
  EXPECT_FALSE(parseDouble("", Value));
}

TEST(Format, ParseInt64) {
  long long Value = 0;
  EXPECT_TRUE(parseInt64("-17", Value));
  EXPECT_EQ(Value, -17);
  EXPECT_FALSE(parseInt64("12.5", Value));
  EXPECT_FALSE(parseInt64("abc", Value));
}

TEST(Format, Padding) {
  EXPECT_EQ(padRight("ab", 5), "ab   ");
  EXPECT_EQ(padRight("abcdef", 3), "abcdef");
}

TEST(Random, DeterministicAcrossInstances) {
  Xoshiro256 A(7), B(7);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, DoubleRange) {
  Xoshiro256 Rng(123);
  for (int I = 0; I != 1000; ++I) {
    double V = Rng.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
  for (int I = 0; I != 1000; ++I) {
    double V = Rng.nextDouble(5.0, 6.0);
    EXPECT_GE(V, 5.0);
    EXPECT_LT(V, 6.0);
  }
}

TEST(Random, BoundedIsUniformish) {
  Xoshiro256 Rng(99);
  int Counts[10] = {};
  const int Draws = 100000;
  for (int I = 0; I != Draws; ++I)
    ++Counts[Rng.nextBounded(10)];
  for (int Bucket = 0; Bucket != 10; ++Bucket)
    EXPECT_NEAR(Counts[Bucket], Draws / 10, Draws / 100);
}

TEST(Stats, RunningBasics) {
  RunningStats S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
  for (double V : {1.0, 2.0, 3.0, 4.0})
    S.add(V);
  EXPECT_EQ(S.count(), 4u);
  EXPECT_DOUBLE_EQ(S.mean(), 2.5);
  EXPECT_DOUBLE_EQ(S.min(), 1.0);
  EXPECT_DOUBLE_EQ(S.max(), 4.0);
  EXPECT_NEAR(S.sum(), 10.0, 1e-12);
}

TEST(Stats, Means) {
  EXPECT_DOUBLE_EQ(arithmeticMean({2.0, 4.0, 6.0}), 4.0);
  EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
}

TEST(Stats, Quantiles) {
  std::vector<double> V{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantileSorted(V, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantileSorted(V, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantileSorted(V, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantileSorted(V, 0.25), 2.0);
}

TEST(Stats, QuantileEdgeCases) {
  // No data has no quantile — NaN, not a crash or a sentinel zero.
  EXPECT_TRUE(std::isnan(quantileSorted({}, 0.5)));

  // One sample answers every quantile.
  EXPECT_DOUBLE_EQ(quantileSorted({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(quantileSorted({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(quantileSorted({7.0}, 1.0), 7.0);

  // Out-of-range Q clamps instead of indexing out of bounds.
  EXPECT_DOUBLE_EQ(quantileSorted({1.0, 2.0}, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(quantileSorted({1.0, 2.0}, 2.0), 2.0);
}

TEST(Stats, QuantileFromBuckets) {
  std::vector<double> Bounds{1.0, 2.0};
  // Empty histogram → NaN, matching the sample-based helper.
  EXPECT_TRUE(std::isnan(quantileFromBuckets(Bounds, {0, 0, 0}, 0.5)));

  // 10 below 1, 10 in (1,2]: the median sits on the shared edge and
  // intermediate ranks interpolate linearly inside their bucket.
  std::vector<uint64_t> Counts{10, 10, 0};
  EXPECT_DOUBLE_EQ(quantileFromBuckets(Bounds, Counts, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(quantileFromBuckets(Bounds, Counts, 0.75), 1.5);
  EXPECT_DOUBLE_EQ(quantileFromBuckets(Bounds, Counts, 0.25), 0.5);

  // Mass in the overflow bucket can only be bounded by the last edge.
  EXPECT_DOUBLE_EQ(quantileFromBuckets(Bounds, {0, 0, 5}, 0.5), 2.0);
}

TEST(Stats, FitQuality) {
  std::vector<double> Ref{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(rSquared(Ref, Ref), 1.0);
  EXPECT_DOUBLE_EQ(rmsError(Ref, Ref), 0.0);
  std::vector<double> Off{1.1, 2.1, 3.1};
  EXPECT_NEAR(rmsError(Ref, Off), 0.1, 1e-12);
  EXPECT_LT(rSquared(Ref, Off), 1.0);
}

TEST(Csv, QuotingAndRender) {
  CsvTable Table;
  Table.setHeader({"a", "b"});
  Table.addRow({"plain", "with,comma"});
  Table.addRow({"with\"quote", "line\nbreak"});
  Table.addNumericRow({1.5, 2.0});
  std::string Text = Table.render();
  EXPECT_NE(Text.find("a,b\n"), std::string::npos);
  EXPECT_NE(Text.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(Text.find("\"with\"\"quote\""), std::string::npos);
  EXPECT_NE(Text.find("1.5,2"), std::string::npos);
  EXPECT_EQ(Table.numRows(), 3u);
}

TEST(Flags, ParsingForms) {
  const char *Argv[] = {"prog", "--alpha=0.5", "--count=7", "--enable",
                        "positional"};
  Flags F(5, Argv);
  EXPECT_DOUBLE_EQ(F.getNumber("alpha", 0.0).value(), 0.5);
  EXPECT_EQ(F.getNumber<long long>("count", 0).value(), 7);
  EXPECT_DOUBLE_EQ(F.getNumber("missing", 0.25).value(), 0.25);
  EXPECT_TRUE(F.getBool("enable", false));
  EXPECT_EQ(F.getString("missing", "dflt"), "dflt");
  ASSERT_EQ(F.positional().size(), 1u);
  EXPECT_EQ(F.positional()[0], "positional");
  EXPECT_FALSE(F.rejectUnknown({"alpha", "count", "enable"}, "usage: prog"));
}

TEST(Flags, RejectUnknownPrintsTheFlagAndUsage) {
  const char *Argv[] = {"prog", "--scale=1", "--typo=1"};
  Flags F(3, Argv);
  testing::internal::CaptureStderr();
  EXPECT_TRUE(F.rejectUnknown({"scale"}, "usage: prog [--scale=X]"));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "error: unknown flag --typo\nusage: prog [--scale=X]\n");
}

TEST(Flags, BadNumberIsAnError) {
  const char *Argv[] = {"prog",       "--alpha=abc", "--beta=nan",
                        "--gamma=inf", "--count=2.5", "--delta=7"};
  Flags F(6, Argv);
  for (const char *Name : {"alpha", "beta", "gamma"}) {
    ErrorOr<double> Value = F.getNumber(Name, 0.25);
    ASSERT_FALSE(Value.ok()) << Name;
    EXPECT_EQ(Value.status().code(), ErrCode::ParseError);
    EXPECT_NE(Value.status().message().find(Name), std::string::npos);
  }
  EXPECT_FALSE(F.getNumber<long long>("count", 1).ok());
  ErrorOr<double> OutOfRange = F.getNumber("delta", 1.0, 0.0, 5.0);
  ASSERT_FALSE(OutOfRange.ok());
  EXPECT_EQ(OutOfRange.status().code(), ErrCode::OutOfRange);
  EXPECT_DOUBLE_EQ(F.getNumber("delta", 1.0, 0.0, 7.0).value(), 7.0);
}

TEST(Flags, CheckAcceptedNamesTheFirstStranger) {
  const char *Argv[] = {"prog", "--alpha=1", "--bogus=1", "pos"};
  Flags F(4, Argv);
  EXPECT_TRUE(F.checkAccepted({"alpha", "bogus"}).ok());
  Status S = F.checkAccepted({"alpha"});
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.message(), "unknown flag --bogus");
}
