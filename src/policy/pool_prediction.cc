#include "policy/pool_prediction.h"

#include <algorithm>
#include <cmath>

#include "common/byte_serde.h"
#include "common/check.h"

namespace coldstart::policy {

PoolPredictionPolicy::PoolPredictionPolicy() : PoolPredictionPolicy(Options{}) {}
PoolPredictionPolicy::PoolPredictionPolicy(Options options) : options_(std::move(options)) {}

namespace {
constexpr int kMinutesPerDay = 1440;
}

void PoolPredictionPolicy::OnAttach(platform::Platform& platform) {
  platform_ = &platform;
  const int n =
      static_cast<int>(platform.profiles().size()) * trace::kNumResourceConfigs;
  predictors_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    predictors_.push_back(MakePredictor(options_.predictor, kMinutesPerDay));
  }
  demand_this_minute_.assign(static_cast<size_t>(n), 0.0);
}

void PoolPredictionPolicy::OnColdStart(const workload::FunctionSpec& spec, SimTime,
                                       SimDuration) {
  COLDSTART_CHECK(platform_ != nullptr);
  demand_this_minute_[static_cast<size_t>(IndexOf(spec.region, spec.config))] += 1.0;
}

void PoolPredictionPolicy::OnMinuteTick(SimTime) {
  COLDSTART_CHECK(platform_ != nullptr);
  const int num_regions = static_cast<int>(platform_->profiles().size());
  for (int r = 0; r < num_regions; ++r) {
    for (int c = 0; c < trace::kNumResourceConfigs; ++c) {
      const int idx = IndexOf(static_cast<trace::RegionId>(r),
                              static_cast<trace::ResourceConfig>(c));
      auto& predictor = *predictors_[static_cast<size_t>(idx)];
      predictor.Observe(demand_this_minute_[static_cast<size_t>(idx)]);
      demand_this_minute_[static_cast<size_t>(idx)] = 0.0;
      const int target = std::clamp(
          static_cast<int>(std::ceil(options_.headroom * predictor.Predict())),
          options_.min_target, options_.max_target);
      platform_->pool(static_cast<trace::RegionId>(r),
                      static_cast<trace::ResourceConfig>(c))
          .SetTarget(target);
    }
  }
}

bool PoolPredictionPolicy::SavePolicyState(std::string* out) const {
  // Demand counted since the last tick is state too: cold starts after a
  // day's last tick are still in it when the boundary checkpoint is taken.
  ByteWriter w;
  w.U64(predictors_.size());
  for (size_t i = 0; i < predictors_.size(); ++i) {
    w.Str(predictors_[i]->name());
    predictors_[i]->SaveState(w);
    w.F64(demand_this_minute_[i]);
  }
  *out = w.Take();
  return true;
}

bool PoolPredictionPolicy::RestorePolicyState(std::string_view blob) {
  COLDSTART_CHECK(platform_ != nullptr);
  ByteReader r(blob);
  COLDSTART_CHECK_EQ(r.U64(), predictors_.size());
  for (size_t i = 0; i < predictors_.size(); ++i) {
    // Identity check: the blob must come from the same predictor kind.
    COLDSTART_CHECK(r.Str() == predictors_[i]->name());
    predictors_[i]->RestoreState(r);
    demand_this_minute_[i] = r.F64();
  }
  COLDSTART_CHECK(r.AtEnd());
  return true;
}

}  // namespace coldstart::policy
