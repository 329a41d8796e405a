#include "policy/cross_region.h"

#include "common/byte_serde.h"
#include "common/check.h"

namespace coldstart::policy {

CrossRegionPolicy::CrossRegionPolicy() : CrossRegionPolicy(Options{}) {}
CrossRegionPolicy::CrossRegionPolicy(Options options) : options_(options) {}

trace::RegionId CrossRegionPolicy::RouteColdStart(const workload::FunctionSpec& spec,
                                                  SimTime) {
  if (platform_ == nullptr) {
    return spec.region;
  }
  if (!options_.offload_synchronous && trace::IsSynchronous(spec.primary_trigger)) {
    return spec.region;
  }
  const auto& home = platform_->load(spec.region);
  if (home.active_cold_starts < options_.home_pressure_threshold) {
    return spec.region;
  }
  // Pick the quietest peer region; offload only if it is genuinely idle.
  const int num_regions = static_cast<int>(platform_->profiles().size());
  int best = -1;
  int best_load = options_.peer_quiet_threshold;
  for (int r = 0; r < num_regions; ++r) {
    if (r == spec.region) {
      continue;
    }
    const int load = platform_->load(static_cast<trace::RegionId>(r)).active_cold_starts;
    if (load < best_load) {
      best_load = load;
      best = r;
    }
  }
  if (best < 0) {
    return spec.region;
  }
  ++offloads_;
  return static_cast<trace::RegionId>(best);
}

bool CrossRegionPolicy::SavePolicyState(std::string* out) const {
  ByteWriter w;
  w.I64(offloads_);
  *out = w.Take();
  return true;
}

bool CrossRegionPolicy::RestorePolicyState(std::string_view blob) {
  COLDSTART_CHECK(offloads_ == 0);
  ByteReader r(blob);
  offloads_ = r.I64();
  COLDSTART_CHECK_GE(offloads_, 0);
  COLDSTART_CHECK(r.AtEnd());
  return true;
}

}  // namespace coldstart::policy
