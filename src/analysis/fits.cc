#include "analysis/fits.h"

#include "common/check.h"

namespace coldstart::analysis {

std::vector<stats::Ecdf> ColdStartTimeCdfs(const trace::TraceStore& store) {
  std::vector<std::vector<double>> samples(trace::kNumRegions + 1);
  for (const auto& c : store.cold_starts()) {
    const double s = ToSeconds(c.cold_start_us);
    samples[c.region].push_back(s);
    samples[trace::kNumRegions].push_back(s);
  }
  std::vector<stats::Ecdf> out;
  out.reserve(samples.size());
  for (auto& v : samples) {
    out.emplace_back(std::move(v));
  }
  return out;
}

namespace {

// Inter-arrival times (seconds) per region, with the pooled sample last. They need
// the sealed time order: on an unsealed store an out-of-order pair would be a
// negative gap, silently dropped.
std::vector<std::vector<double>> InterArrivalSamples(const trace::TraceStore& store) {
  COLDSTART_CHECK(store.sealed() && "inter-arrival times need the sealed time order");
  std::vector<SimTime> last(trace::kNumRegions, -1);
  std::vector<std::vector<double>> samples(trace::kNumRegions + 1);
  for (const auto& c : store.cold_starts()) {
    if (last[c.region] >= 0) {
      const double iat = ToSeconds(c.timestamp - last[c.region]);
      if (iat > 0) {
        samples[c.region].push_back(iat);
        samples[trace::kNumRegions].push_back(iat);
      }
    }
    last[c.region] = c.timestamp;
  }
  return samples;
}

}  // namespace

std::vector<stats::Ecdf> ColdStartInterArrivalCdfs(const trace::TraceStore& store) {
  std::vector<stats::Ecdf> out;
  for (auto& v : InterArrivalSamples(store)) {
    out.emplace_back(std::move(v));
  }
  return out;
}

DistributionFits FitColdStartDistributions(const trace::TraceStore& store) {
  DistributionFits fits;

  std::vector<double> cs;
  cs.reserve(store.cold_starts().size());
  for (const auto& c : store.cold_starts()) {
    if (c.cold_start_us > 0) {
      cs.push_back(ToSeconds(c.cold_start_us));
    }
  }
  if (cs.size() >= 2) {
    fits.cold_start_lognormal = stats::FitLogNormalMle(cs);
    stats::SortSamples(cs);
    fits.cold_start_quality = stats::EvaluateLogNormalFit(cs, fits.cold_start_lognormal);
    fits.cold_start_mean = fits.cold_start_lognormal.Mean();
    fits.cold_start_stddev = fits.cold_start_lognormal.StdDev();
  }

  // Only the pooled inter-arrival sample is fitted, so only it is sorted.
  std::vector<double> iat = std::move(InterArrivalSamples(store).back());
  stats::SortSamples(iat);
  if (iat.size() >= 2) {
    fits.iat_weibull = stats::FitWeibullMle(iat);
    fits.iat_quality = stats::EvaluateWeibullFit(iat, fits.iat_weibull);
    fits.iat_mean = fits.iat_weibull.Mean();
    fits.iat_stddev = fits.iat_weibull.StdDev();
  }
  return fits;
}

}  // namespace coldstart::analysis
