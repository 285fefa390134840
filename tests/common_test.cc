#include <gtest/gtest.h>

#include <set>

#include "src/common/rng.h"
#include "src/common/string_util.h"

namespace seastar {
namespace {

TEST(SplitMix64Test, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversAllResidues) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBounded(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliEdgesAndRate) {
  Rng rng(17);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBernoulli(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(RngTest, WeightedRespectsWeights) {
  Rng rng(19);
  std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.NextWeighted(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / (counts[0] + counts[2]), 0.75, 0.02);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(23);
  std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> original = items;
  rng.Shuffle(items);
  std::multiset<int> a(items.begin(), items.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(StringUtilTest, SplitAndJoin) {
  const auto pieces = Split("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(Join(pieces, "|"), "a|b||c");
}

TEST(StringUtilTest, ThousandsSeparators) {
  EXPECT_EQ(WithThousandsSeparators(0), "0");
  EXPECT_EQ(WithThousandsSeparators(999), "999");
  EXPECT_EQ(WithThousandsSeparators(1000), "1,000");
  EXPECT_EQ(WithThousandsSeparators(84120742), "84,120,742");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(3u << 20), "3.00 MB");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(StringUtilTest, FlagParsing) {
  const char* argv_c[] = {"prog", "--scale=0.5", "--full", "--epochs=20", "--name=reddit"};
  char** argv = const_cast<char**>(argv_c);
  EXPECT_DOUBLE_EQ(FlagDouble(5, argv, "scale", 1.0), 0.5);
  EXPECT_TRUE(FlagBool(5, argv, "full", false));
  EXPECT_FALSE(FlagBool(5, argv, "quiet", false));
  EXPECT_EQ(FlagInt(5, argv, "epochs", 200), 20);
  EXPECT_EQ(FlagValue(5, argv, "name", "cora"), "reddit");
  EXPECT_EQ(FlagValue(5, argv, "missing", "dflt"), "dflt");
}

TEST(StringUtilTest, CheckKnownFlagsNamesTheUnknownArgument) {
  const std::vector<std::string> known = {"epochs", "executor", "resume"};
  const char* good_c[] = {"prog", "--epochs=5", "--resume", "--executor=pyg"};
  EXPECT_TRUE(CheckKnownFlags(4, const_cast<char**>(good_c), known).ok());
  EXPECT_TRUE(CheckKnownFlags(1, const_cast<char**>(good_c), known).ok());

  for (const char* bad : {"--epoch=5", "--backend=dgl", "-epochs=5", "epochs", "--", "--=5"}) {
    SCOPED_TRACE(bad);
    const char* argv_c[] = {"prog", "--epochs=5", bad};
    const Status status = CheckKnownFlags(3, const_cast<char**>(argv_c), known);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(bad), std::string::npos) << status.message();
  }
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("--scale=1", "--scale"));
  EXPECT_FALSE(StartsWith("-s", "--scale"));
}

}  // namespace
}  // namespace seastar
