// Predictive resource-pool sizing (§5 "Resource pool prediction").
//
// Observes per-(region, config) pod-start demand each minute and retargets the
// inactive-pod pools with a forecaster, instead of the static targets of the baseline:
// "directly predicts required resources" rather than predicting invocations first.
// A checkpoint carries each predictor's name and state, and the demand counted
// since the last tick.
#ifndef COLDSTART_POLICY_POOL_PREDICTION_H_
#define COLDSTART_POLICY_POOL_PREDICTION_H_

#include <memory>
#include <string>
#include <vector>

#include "platform/platform.h"
#include "policy/predictors.h"

namespace coldstart::policy {

class PoolPredictionPolicy : public platform::PlatformPolicy {
 public:
  struct Options {
    std::string predictor = "seasonal-naive";  // See MakePredictor().
    double headroom = 1.5;                     // Pool target = headroom x prediction.
    int min_target = 1;
    int max_target = 512;
  };

  PoolPredictionPolicy();
  explicit PoolPredictionPolicy(Options options);

  void OnAttach(platform::Platform& platform) override;
  void OnColdStart(const workload::FunctionSpec& spec, SimTime now,
                   SimDuration total) override;
  void OnMinuteTick(SimTime now) override;

  // Restore CHECKs that the predictor count and names match this instance's.
  bool SavePolicyState(std::string* out) const override;
  bool RestorePolicyState(std::string_view blob) override;

  // One predictor per (region, config) with no cross-region coupling: shards cleanly.
  std::unique_ptr<platform::PlatformPolicy> CloneForShard() const override {
    return std::make_unique<PoolPredictionPolicy>(options_);
  }

 private:
  int IndexOf(trace::RegionId region, trace::ResourceConfig config) const {
    return static_cast<int>(region) * trace::kNumResourceConfigs + static_cast<int>(config);
  }

  Options options_;
  platform::Platform* platform_ = nullptr;
  std::vector<std::unique_ptr<SeriesPredictor>> predictors_;  // [region x config].
  std::vector<double> demand_this_minute_;
};

}  // namespace coldstart::policy

#endif  // COLDSTART_POLICY_POOL_PREDICTION_H_
