// Empirical CDFs and summary statistics.
//
// The paper reports nearly everything as CDFs (Figs. 3, 4, 10, 15, 16, 17); Ecdf is the
// shared representation. It stores sorted samples, so quantiles are exact.
//
// Sorting (SortSamples, which Seal() uses) is an LSD radix sort over the
// order-preserving 64-bit image of each double, with a comparison sort on the same
// key below a few thousand samples. Its order is total on every non-NaN double:
// -inf < negatives < -0.0 < +0.0 < positives < +inf, so -0.0 sorts before +0.0
// (std::sort leaves their relative order unspecified; no analysis input produces
// -0.0). A NaN sample dies via COLDSTART_CHECK.
#ifndef COLDSTART_STATS_ECDF_H_
#define COLDSTART_STATS_ECDF_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace coldstart::stats {

struct SummaryStats {
  size_t count = 0;
  double mean = 0;
  double stddev = 0;
  double min = 0;
  double p25 = 0;
  double median = 0;
  double p75 = 0;
  double p99 = 0;
  double max = 0;
};

// Sorts `samples` ascending in the order above; the result equals std::sort's bit
// for bit whenever the input holds no -0.0. Dies on NaN. Above the cutoff it uses
// one scratch buffer of the input's size.
void SortSamples(std::vector<double>& samples);

class Ecdf {
 public:
  Ecdf() = default;
  explicit Ecdf(std::vector<double> samples);

  void Add(double sample);
  // Must be called after the last Add() and before any query (checked); idempotent.
  void Seal();

  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // Exact sample quantile (linear interpolation between order statistics).
  // Empty sample set -> NaN (rendered as "n/a" by the table layer), never a
  // fabricated 0.
  double Quantile(double q) const;
  // P(X <= x). Empty sample set -> 0 (no sample is <= x).
  double CdfAt(double x) const;
  // NaN when empty. Sums in sorted order.
  double Mean() const;
  // NaN when empty; 0 for a single sample.
  double StdDev() const;
  // count = 0 and every statistic NaN when empty.
  SummaryStats Summary() const;

  // Evaluates the ECDF at `n` log-spaced points spanning [min, max]; used by benches
  // to print CDF curves. Returns (x, F(x)) pairs.
  std::vector<std::pair<double, double>> CurveLogX(int n) const;

  const std::vector<double>& sorted_samples() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sealed_ = true;
};

}  // namespace coldstart::stats

#endif  // COLDSTART_STATS_ECDF_H_
