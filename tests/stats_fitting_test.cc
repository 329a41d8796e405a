// Tests for MLE fitting and goodness-of-fit (the Figure 10 machinery).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/sim_time.h"
#include "stats/ecdf.h"
#include "stats/fitting.h"

namespace coldstart::stats {
namespace {

class LogNormalFitTest : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(LogNormalFitTest, RecoversParameters) {
  const auto [mu, sigma] = GetParam();
  const LogNormalParams truth{mu, sigma};
  Rng rng(777);
  std::vector<double> samples(50000);
  for (auto& x : samples) {
    x = truth.Sample(rng);
  }
  const LogNormalParams fit = FitLogNormalMle(samples);
  EXPECT_NEAR(fit.mu, mu, 0.02);
  EXPECT_NEAR(fit.sigma, sigma, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LogNormalFitTest,
                         ::testing::Values(std::pair{0.0, 1.0}, std::pair{1.2, 0.4},
                                           std::pair{-0.5, 1.8}, std::pair{2.0, 0.9}));

class WeibullFitTest : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(WeibullFitTest, RecoversParameters) {
  const auto [k, lambda] = GetParam();
  const WeibullParams truth{k, lambda};
  Rng rng(888);
  std::vector<double> samples(50000);
  for (auto& x : samples) {
    x = truth.Sample(rng);
  }
  const WeibullParams fit = FitWeibullMle(samples);
  EXPECT_NEAR(fit.shape, k, k * 0.03);
  EXPECT_NEAR(fit.scale, lambda, lambda * 0.03);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WeibullFitTest,
                         ::testing::Values(std::pair{0.5, 1.0}, std::pair{0.744, 4.0},
                                           std::pair{1.3, 2.5}, std::pair{2.5, 0.8}));

TEST(FitQualityTest, CorrectModelHasSmallKs) {
  const LogNormalParams truth{0.5, 1.0};
  Rng rng(99);
  std::vector<double> samples(20000);
  for (auto& x : samples) {
    x = truth.Sample(rng);
  }
  std::sort(samples.begin(), samples.end());
  const LogNormalParams fit = FitLogNormalMle(samples);
  EXPECT_LT(EvaluateLogNormalFit(samples, fit).ks_distance, 0.02);
}

TEST(FitQualityTest, WrongModelHasLargerKs) {
  // Samples from a heavy LogNormal; a Weibull fit should be visibly worse.
  const LogNormalParams truth{0.0, 1.8};
  Rng rng(101);
  std::vector<double> samples(20000);
  for (auto& x : samples) {
    x = truth.Sample(rng);
  }
  std::sort(samples.begin(), samples.end());
  const double ks_right =
      EvaluateLogNormalFit(samples, FitLogNormalMle(samples)).ks_distance;
  const double ks_wrong = EvaluateWeibullFit(samples, FitWeibullMle(samples)).ks_distance;
  EXPECT_LT(ks_right, ks_wrong);
}

TEST(FitQualityTest, LogLikelihoodPrefersTrueModel) {
  const WeibullParams truth{0.8, 2.0};
  Rng rng(103);
  std::vector<double> samples(20000);
  for (auto& x : samples) {
    x = truth.Sample(rng);
  }
  std::sort(samples.begin(), samples.end());
  const auto wq = EvaluateWeibullFit(samples, FitWeibullMle(samples));
  const auto lq = EvaluateLogNormalFit(samples, FitLogNormalMle(samples));
  EXPECT_GT(wq.log_likelihood, lq.log_likelihood);
}

TEST(KsDistanceTest, PerfectFitOnQuantiles) {
  // Samples placed exactly at quantile midpoints -> K-S bounded by 1/n.
  const LogNormalParams p{0.0, 1.0};
  std::vector<double> samples;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    samples.push_back(p.Quantile((i + 0.5) / n));
  }
  EXPECT_LE(KsDistance(samples, p), 1.0 / n + 1e-9);
}

TEST(EcdfTest, QuantileInterpolation) {
  Ecdf e({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(e.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(e.Quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(e.Quantile(0.5), 2.5);
}

TEST(EcdfTest, CdfAtCountsInclusive) {
  Ecdf e({1.0, 2.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(e.CdfAt(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.CdfAt(2.0), 0.75);
  EXPECT_DOUBLE_EQ(e.CdfAt(5.0), 1.0);
}

TEST(EcdfTest, SummaryStats) {
  Ecdf e;
  for (int i = 1; i <= 100; ++i) {
    e.Add(static_cast<double>(i));
  }
  e.Seal();
  const SummaryStats s = e.Summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
}

TEST(EcdfTest, CurveLogXIsMonotone) {
  Ecdf e;
  Rng rng(17);
  const LogNormalParams p{0.0, 1.0};
  for (int i = 0; i < 5000; ++i) {
    e.Add(p.Sample(rng));
  }
  e.Seal();
  const auto curve = e.CurveLogX(30);
  ASSERT_EQ(curve.size(), 30u);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].first, curve[i - 1].first);
    EXPECT_GE(curve[i].second, curve[i - 1].second);
  }
  EXPECT_NEAR(curve.back().second, 1.0, 1e-9);
}

TEST(EcdfTest, EmptyIsSafe) {
  // Empty-set statistics are NaN (rendered "n/a"), never fabricated zeros — the
  // regression where AddQuantileRow printed all-zero rows for empty groups.
  Ecdf e;
  e.Seal();
  EXPECT_TRUE(std::isnan(e.Quantile(0.5)));
  EXPECT_TRUE(std::isnan(e.Mean()));
  EXPECT_TRUE(std::isnan(e.StdDev()));
  const SummaryStats s = e.Summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_TRUE(std::isnan(s.mean));
  EXPECT_TRUE(std::isnan(s.median));
  EXPECT_TRUE(std::isnan(s.min));
  EXPECT_TRUE(std::isnan(s.max));
  EXPECT_EQ(e.CdfAt(1.0), 0.0);  // P(X <= x) over no samples stays 0.
  EXPECT_TRUE(e.CurveLogX(10).empty());
}

TEST(EcdfTest, MeanAndStdDevRequireSeal) {
  // Unsealed, they would sum in insertion order and sealed in sorted order, so one
  // object could report two different means; like every other query they check.
  Ecdf e;
  e.Add(3.0);
  e.Add(1.0);
  EXPECT_DEATH(e.Mean(), "CHECK");
  EXPECT_DEATH(e.StdDev(), "CHECK");
  e.Seal();
  EXPECT_DOUBLE_EQ(e.Mean(), 2.0);
}

// --- SortSamples: the radix sort behind Ecdf::Seal equals std::sort bit for bit. ---

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

void ExpectSortsLikeStdSort(std::vector<double> samples) {
  std::vector<double> expected = samples;
  std::sort(expected.begin(), expected.end());
  SortSamples(samples);
  ASSERT_EQ(samples.size(), expected.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    ASSERT_EQ(Bits(samples[i]), Bits(expected[i])) << "index " << i << " of " << samples.size();
  }
}

// Mixed-sign, heavy-duplicate values across the whole double range: subnormals,
// +-inf, +-max, tiny and huge magnitudes, and a small pool of repeated values.
// Never -0.0, whose order against +0.0 std::sort leaves unspecified.
double AdversarialSample(Rng& rng) {
  static const double kSpecial[] = {
      0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      3 * std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      -std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      1.0,
      -1.0,
      1e-6,
      42.5};
  switch (rng.NextBounded(4)) {
    case 0:
      return kSpecial[rng.NextBounded(sizeof(kSpecial) / sizeof(kSpecial[0]))];
    case 1:
      return std::ldexp(rng.Uniform(-1.0, 1.0), static_cast<int>(rng.NextBounded(2100)) - 1070);
    case 2:
      return static_cast<double>(rng.NextBounded(50)) - 25.0;  // Ties.
    default:
      return rng.Uniform(-1e6, 1e6);
  }
}

TEST(SortSamplesTest, MatchesStdSortBitForBit) {
  Rng rng(2024);
  // Both sides of the comparison-sort cutoff, and the empty and single cases.
  for (const size_t n : {0u, 1u, 2u, 3u, 100u, 4095u, 4096u, 4097u, 20000u, 150000u}) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<double> samples(n);
      for (double& x : samples) {
        x = AdversarialSample(rng);
        if (x == 0.0) {
          x = 0.0;  // Normalizes a -0.0 that an ldexp underflow could produce.
        }
      }
      ExpectSortsLikeStdSort(samples);
    }
  }
}

TEST(SortSamplesTest, MatchesStdSortOnAnalysisShapedInputs) {
  // What the analysis pass sorts: microsecond counts in seconds, all-equal cells,
  // and inputs that arrive sorted or reversed.
  Rng rng(7);
  for (const size_t n : {5000u, 100000u}) {
    std::vector<double> seconds(n);
    for (double& x : seconds) {
      x = ToSeconds(static_cast<SimDuration>(rng.NextBounded(200'000'000)));
    }
    ExpectSortsLikeStdSort(seconds);
    std::sort(seconds.begin(), seconds.end());
    ExpectSortsLikeStdSort(seconds);
    std::reverse(seconds.begin(), seconds.end());
    ExpectSortsLikeStdSort(seconds);
    ExpectSortsLikeStdSort(std::vector<double>(n, 0.25));
    // Values a few ulps apart differ only in the lowest digit: an odd number of
    // radix passes, so the result ends in the scratch buffer.
    std::vector<double> ulps(n);
    for (double& x : ulps) {
      x = 1.0 + static_cast<double>(rng.NextBounded(2048)) * 0x1.0p-52;
    }
    ExpectSortsLikeStdSort(ulps);
  }
}

TEST(SortSamplesTest, NegativeZeroOrdersBeforePositiveZero) {
  for (const size_t n : {10u, 10000u}) {
    std::vector<double> samples;
    for (size_t i = 0; i < n; ++i) {
      samples.push_back(i % 2 == 0 ? 0.0 : -0.0);
    }
    samples.push_back(-1.0);
    samples.push_back(1.0);
    SortSamples(samples);
    EXPECT_EQ(samples.front(), -1.0);
    EXPECT_EQ(samples.back(), 1.0);
    for (size_t i = 1; i <= n; ++i) {
      EXPECT_EQ(std::signbit(samples[i]), i <= n / 2) << i;
    }
  }
}

TEST(SortSamplesTest, NanDies) {
  for (const size_t n : {10u, 10000u}) {
    std::vector<double> samples(n, 1.0);
    samples[n / 2] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(SortSamples(samples), "CHECK");
  }
  EXPECT_DEATH(Ecdf({1.0, std::numeric_limits<double>::quiet_NaN()}), "CHECK");
}

// --- The log-once Weibull fit and the fused evaluation equal the loops they
// replaced, bit for bit. ---

WeibullParams ReferenceFitWeibullMle(const std::vector<double>& samples) {
  const double n = static_cast<double>(samples.size());
  double sum_log = 0;
  for (const double x : samples) {
    sum_log += std::log(x);
  }
  const double mean_log = sum_log / n;
  auto g_and_gprime = [&](double k, double& g, double& gp) {
    double swk = 0, swklog = 0, swklog2 = 0;
    for (const double x : samples) {
      const double lx = std::log(x);
      const double w = std::pow(x, k);
      swk += w;
      swklog += w * lx;
      swklog2 += w * lx * lx;
    }
    const double r = swklog / swk;
    g = r - 1.0 / k - mean_log;
    gp = (swklog2 / swk) - r * r + 1.0 / (k * k);
  };
  double lo = 1e-3, hi = 50.0;
  double k = 1.0;
  for (int iter = 0; iter < 100; ++iter) {
    double g, gp;
    g_and_gprime(k, g, gp);
    if (std::fabs(g) < 1e-12) {
      break;
    }
    if (g > 0) {
      hi = std::min(hi, k);
    } else {
      lo = std::max(lo, k);
    }
    double next = k - g / gp;
    if (!(next > lo && next < hi)) {
      next = 0.5 * (lo + hi);
    }
    if (std::fabs(next - k) < 1e-14) {
      k = next;
      break;
    }
    k = next;
  }
  double swk = 0;
  for (const double x : samples) {
    swk += std::pow(x, k);
  }
  WeibullParams p;
  p.shape = k;
  p.scale = std::pow(swk / n, 1.0 / k);
  return p;
}

template <typename Dist>
FitQuality ReferenceEvaluate(const std::vector<double>& sorted_samples, const Dist& p) {
  FitQuality q;
  q.ks_distance = KsDistance(sorted_samples, p);
  double ll = 0;
  for (const double x : sorted_samples) {
    ll += std::log(std::max(p.Pdf(x), 1e-300));
  }
  q.log_likelihood = ll;
  return q;
}

// Positive samples with heavy ties: Weibull draws rounded to a coarse grid, so
// most values repeat many times, plus a tail of distinct values.
std::vector<double> TieHeavySamples(Rng& rng, size_t n, double grid) {
  const WeibullParams truth{0.7, 2.0};
  std::vector<double> samples(n);
  for (double& x : samples) {
    const double v = truth.Sample(rng);
    x = rng.NextBounded(4) == 0 ? v : std::max(grid, std::round(v / grid) * grid);
  }
  return samples;
}

TEST(FitEquivalenceTest, WeibullMleMatchesPerSampleLoop) {
  Rng rng(99);
  for (const double grid : {1.0, 0.1, 1e-3}) {
    for (const size_t n : {2u, 50u, 20000u}) {
      std::vector<double> samples = TieHeavySamples(rng, n, grid);
      samples[0] = samples[1];  // At least one tie, even at n = 2.
      for (int sorted = 0; sorted < 2; ++sorted) {
        if (sorted == 1) {
          std::sort(samples.begin(), samples.end());
        }
        const WeibullParams got = FitWeibullMle(samples);
        const WeibullParams want = ReferenceFitWeibullMle(samples);
        EXPECT_EQ(got.shape, want.shape) << "grid " << grid << " n " << n;
        EXPECT_EQ(got.scale, want.scale) << "grid " << grid << " n " << n;
      }
    }
  }
}

TEST(FitEquivalenceTest, FusedEvaluateMatchesSeparateLoops) {
  Rng rng(123);
  for (const double grid : {1.0, 0.1, 1e-3}) {
    for (const size_t n : {1u, 2u, 50u, 20000u}) {
      std::vector<double> samples = TieHeavySamples(rng, n, grid);
      std::sort(samples.begin(), samples.end());
      const LogNormalParams ln{0.3, 1.1};
      const WeibullParams wb{0.8, 1.7};
      const FitQuality ln_got = EvaluateLogNormalFit(samples, ln);
      const FitQuality ln_want = ReferenceEvaluate(samples, ln);
      EXPECT_EQ(ln_got.ks_distance, ln_want.ks_distance) << "grid " << grid << " n " << n;
      EXPECT_EQ(ln_got.log_likelihood, ln_want.log_likelihood);
      const FitQuality wb_got = EvaluateWeibullFit(samples, wb);
      const FitQuality wb_want = ReferenceEvaluate(samples, wb);
      EXPECT_EQ(wb_got.ks_distance, wb_want.ks_distance) << "grid " << grid << " n " << n;
      EXPECT_EQ(wb_got.log_likelihood, wb_want.log_likelihood);
    }
  }
  // Empty input: no samples, KS 0, log-likelihood 0, as before.
  const FitQuality empty = EvaluateWeibullFit({}, WeibullParams{1.0, 1.0});
  EXPECT_EQ(empty.ks_distance, 0.0);
  EXPECT_EQ(empty.log_likelihood, 0.0);
}

}  // namespace
}  // namespace coldstart::stats
