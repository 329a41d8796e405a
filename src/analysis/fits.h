// Cold-start time and inter-arrival distributions with analytic fits (Figure 10).
#ifndef COLDSTART_ANALYSIS_FITS_H_
#define COLDSTART_ANALYSIS_FITS_H_

#include <vector>

#include "stats/ecdf.h"
#include "stats/fitting.h"
#include "trace/trace_store.h"

namespace coldstart::analysis {

// Fig. 10a: cold-start times (seconds) per region (index = region; last entry = all
// regions pooled).
std::vector<stats::Ecdf> ColdStartTimeCdfs(const trace::TraceStore& store);

// Fig. 10c: inter-arrival times between consecutive cold starts (seconds), per region
// with pooled last entry, within each region's time order: the store must be sealed.
std::vector<stats::Ecdf> ColdStartInterArrivalCdfs(const trace::TraceStore& store);

struct DistributionFits {
  stats::LogNormalParams cold_start_lognormal;  // Fit over pooled cold-start times.
  stats::FitQuality cold_start_quality;
  double cold_start_mean = 0;    // Moments of the *fitted* distribution, as the paper
  double cold_start_stddev = 0;  // reports them (mean 3.24, sd 7.10).
  stats::WeibullParams iat_weibull;  // Fit over pooled inter-arrival times.
  stats::FitQuality iat_quality;
  double iat_mean = 0;  // Paper: mean 1.25, sd 3.66.
  double iat_stddev = 0;
};

// Fig. 10b/d: MLE fits over the pooled samples. Needs a sealed store, as above.
DistributionFits FitColdStartDistributions(const trace::TraceStore& store);

}  // namespace coldstart::analysis

#endif  // COLDSTART_ANALYSIS_FITS_H_
