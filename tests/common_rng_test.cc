#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace craqr {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LE(equal, 1);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    stats.Add(u);
  }
  EXPECT_NEAR(stats.Mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.Variance(), 1.0 / 12.0, 0.01);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform(-3.0, 5.5);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.5);
  }
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(9);
  constexpr std::uint64_t n = 10;
  std::vector<int> counts(n, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.UniformInt(n)];
  }
  for (std::uint64_t v = 0; v < n; ++v) {
    EXPECT_NEAR(counts[v], kDraws / static_cast<double>(n),
                5.0 * std::sqrt(kDraws / static_cast<double>(n)));
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(10);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.3, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

class PoissonMeanTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMeanTest, MeanAndVarianceMatch) {
  const double mean = GetParam();
  Rng rng(static_cast<std::uint64_t>(mean * 1000) + 3);
  RunningStats stats;
  const int draws = 40000;
  for (int i = 0; i < draws; ++i) {
    stats.Add(static_cast<double>(rng.Poisson(mean)));
  }
  // Sample mean of Poisson(mean): stderr = sqrt(mean / draws).
  const double stderr_mean = std::sqrt(mean / draws);
  EXPECT_NEAR(stats.Mean(), mean, 6.0 * stderr_mean + 1e-9);
  // Variance should be close to the mean (within 10%).
  if (mean >= 1.0) {
    EXPECT_NEAR(stats.Variance() / mean, 1.0, 0.1);
  }
}

INSTANTIATE_TEST_SUITE_P(SmallAndLargeMeans, PoissonMeanTest,
                         ::testing::Values(0.1, 0.5, 2.0, 10.0, 29.9, 30.1,
                                           100.0, 1000.0));

TEST(RngTest, PoissonZeroMeanIsZero) {
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Poisson(0.0), 0u);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.Add(rng.Exponential(2.0));
  }
  EXPECT_NEAR(stats.Mean(), 0.5, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(14);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.Add(rng.Normal(3.0, 2.0));
  }
  EXPECT_NEAR(stats.Mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.Stddev(), 2.0, 0.05);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(15);
  std::vector<double> draws;
  for (int i = 0; i < 20001; ++i) {
    draws.push_back(rng.LogNormal(1.0, 0.5));
  }
  std::nth_element(draws.begin(), draws.begin() + 10000, draws.end());
  EXPECT_NEAR(draws[10000], std::exp(1.0), 0.1);
}

TEST(RngTest, ParetoRespectsScale) {
  Rng rng(16);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(17);
  std::vector<std::uint64_t> sample;
  rng.SampleWithoutReplacement(100, 30, &sample);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto v : sample) {
    EXPECT_LT(v, 100u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(18);
  std::vector<std::uint64_t> sample;
  rng.SampleWithoutReplacement(10, 10, &sample);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, SampleWithReplacementSizeAndRange) {
  Rng rng(19);
  std::vector<std::uint64_t> sample;
  rng.SampleWithReplacement(5, 100, &sample);
  EXPECT_EQ(sample.size(), 100u);
  for (const auto v : sample) {
    EXPECT_LT(v, 5u);
  }
}

TEST(RngTest, SamplingIntoScratchMatchesFloydsAlgorithm) {
  // Floyd's algorithm with a hash set, as the sampler was first written;
  // the scanning sampler must draw and return exactly the same.
  const auto floyd = [](Rng* rng, std::uint64_t n, std::uint64_t k) {
    std::set<std::uint64_t> chosen;
    std::vector<std::uint64_t> out;
    for (std::uint64_t j = n - k; j < n; ++j) {
      const std::uint64_t t = rng->UniformInt(j + 1);
      out.push_back(chosen.insert(t).second ? t : j);
      chosen.insert(out.back());
    }
    return out;
  };
  std::vector<std::uint64_t> scratch = {7, 7, 7};
  for (const std::uint64_t n : {1u, 10u, 64u, 65u, 80u, 1000u}) {
    for (const std::uint64_t k : {0u, 1u, 9u, 64u, 65u, 80u, 1000u}) {
      if (k > n) {
        continue;
      }
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
      Rng want_rng(n * 1009 + k), got_rng(n * 1009 + k);
      const std::vector<std::uint64_t> want = floyd(&want_rng, n, k);
      got_rng.SampleWithoutReplacement(n, k, &scratch);
      EXPECT_EQ(scratch, want);
      EXPECT_EQ(got_rng.NextU64(), want_rng.NextU64());
      Rng with_rng(n + k), with_want_rng(n + k);
      with_rng.SampleWithReplacement(n, k + 3, &scratch);
      ASSERT_EQ(scratch.size(), k + 3);
      for (const std::uint64_t v : scratch) {
        EXPECT_EQ(v, with_want_rng.UniformInt(n));
      }
    }
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(20);
  Rng child = parent.Fork();
  // The child must differ from a freshly re-seeded parent continuation.
  int equal = 0;
  Rng parent_copy(20);
  (void)parent_copy.NextU64();  // consume the fork draw
  for (int i = 0; i < 64; ++i) {
    if (child.NextU64() == parent_copy.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LE(equal, 1);
}

}  // namespace
}  // namespace craqr
