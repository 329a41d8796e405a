#include "stats/fitting.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace coldstart::stats {

LogNormalParams FitLogNormalMle(const std::vector<double>& samples) {
  COLDSTART_CHECK_GE(samples.size(), 2u);
  double sum = 0;
  for (const double x : samples) {
    COLDSTART_CHECK_GT(x, 0.0);
    sum += std::log(x);
  }
  const double n = static_cast<double>(samples.size());
  const double mu = sum / n;
  double ss = 0;
  for (const double x : samples) {
    const double d = std::log(x) - mu;
    ss += d * d;
  }
  LogNormalParams p;
  p.mu = mu;
  p.sigma = std::sqrt(ss / n);
  if (p.sigma <= 0) {
    p.sigma = 1e-12;  // Degenerate (all samples equal): keep the params valid.
  }
  return p;
}

namespace {

// KS distance (as KsDistance) and log-likelihood in one pass over sorted samples.
template <typename Dist>
FitQuality EvaluateFit(const std::vector<double>& sorted_samples, const Dist& dist) {
  const size_t n = sorted_samples.size();
  FitQuality q;
  q.ks_distance = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double f = dist.Cdf(sorted_samples[i]);
    const double lo = static_cast<double>(i) / static_cast<double>(n);
    const double hi = static_cast<double>(i + 1) / static_cast<double>(n);
    q.ks_distance = std::max(q.ks_distance, std::max(f - lo, hi - f));
    q.log_likelihood += std::log(std::max(dist.Pdf(sorted_samples[i]), 1e-300));
  }
  return q;
}

}  // namespace

WeibullParams FitWeibullMle(const std::vector<double>& samples) {
  COLDSTART_CHECK_GE(samples.size(), 2u);
  const double n = static_cast<double>(samples.size());
  std::vector<double> logs;  // log(x), taken once per sample, not per Newton step.
  logs.reserve(samples.size());
  double sum_log = 0;
  for (const double x : samples) {
    COLDSTART_CHECK_GT(x, 0.0);
    logs.push_back(std::log(x));
    sum_log += logs.back();
  }
  const double mean_log = sum_log / n;

  // Profile likelihood equation in k:
  //   g(k) = sum(x^k ln x)/sum(x^k) - 1/k - mean(ln x) = 0
  // g is increasing in k on (0, inf); solve by Newton with bisection safeguard.
  auto g_and_gprime = [&](double k, double& g, double& gp) {
    double swk = 0, swklog = 0, swklog2 = 0;
    for (size_t i = 0; i < samples.size(); ++i) {
      const double lx = logs[i];
      const double w = std::pow(samples[i], k);
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
      next = 0.5 * (lo + hi);  // Newton left the bracket; bisect.
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

FitQuality EvaluateLogNormalFit(const std::vector<double>& sorted_samples,
                                const LogNormalParams& p) {
  return EvaluateFit(sorted_samples, p);
}

FitQuality EvaluateWeibullFit(const std::vector<double>& sorted_samples,
                              const WeibullParams& p) {
  return EvaluateFit(sorted_samples, p);
}

}  // namespace coldstart::stats
