// Maximum-likelihood distribution fitting and goodness-of-fit, for Figure 10.
//
// The paper fits a LogNormal to pooled cold-start times and a Weibull to cold-start
// inter-arrival times and reports the fitted distributions' moments.
#ifndef COLDSTART_STATS_FITTING_H_
#define COLDSTART_STATS_FITTING_H_

#include <vector>

#include "stats/distributions.h"

namespace coldstart::stats {

struct FitQuality {
  double ks_distance = 1.0;  // Kolmogorov-Smirnov sup |F_emp - F_fit|.
  double log_likelihood = 0.0;
};

// Closed-form MLE: mu/sigma are the mean/std of log(x). Non-positive samples are
// rejected via CHECK (cold-start times are strictly positive).
LogNormalParams FitLogNormalMle(const std::vector<double>& samples);

// Weibull MLE via Newton-Raphson on the profile likelihood for the shape; falls back to
// bisection if Newton leaves (0, inf). Requires positive samples.
WeibullParams FitWeibullMle(const std::vector<double>& samples);

// K-S distance between sorted samples and an analytic CDF.
template <typename Dist>
double KsDistance(const std::vector<double>& sorted_samples, const Dist& dist) {
  const size_t n = sorted_samples.size();
  double d = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double f = dist.Cdf(sorted_samples[i]);
    const double lo = static_cast<double>(i) / static_cast<double>(n);
    const double hi = static_cast<double>(i + 1) / static_cast<double>(n);
    d = std::max(d, std::max(f - lo, hi - f));
  }
  return d;
}

// KS distance (exactly KsDistance's) and log-likelihood in one pass.
FitQuality EvaluateLogNormalFit(const std::vector<double>& sorted_samples,
                                const LogNormalParams& p);
FitQuality EvaluateWeibullFit(const std::vector<double>& sorted_samples,
                              const WeibullParams& p);

}  // namespace coldstart::stats

#endif  // COLDSTART_STATS_FITTING_H_
