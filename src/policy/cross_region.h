// Cross-region cold-start scheduling (§5 "Cross-region workload scheduling").
//
// When the home region is congested (deep pool searches, long scheduler queues) and a
// peer region is quiet, new pods are started in the peer region instead. The platform
// charges the home region's inter-region RTT on the scheduling component, so the
// policy's benefit is exactly the paper's trade: tens of milliseconds of RTT against
// seconds of congested cold start.
#ifndef COLDSTART_POLICY_CROSS_REGION_H_
#define COLDSTART_POLICY_CROSS_REGION_H_

#include <string>
#include <string_view>
#include <vector>

#include "platform/platform.h"

namespace coldstart::policy {

// Routes cold starts across regions, so it is not region-local
// (is_region_local() == false) and always runs as the one-shard plan, on the
// caller's instance. Its only state, the offloads_ counter, checkpoints.
// LINT-ALLOW(policy-hooks): not region-local, so the shard planner never clones it and CloneForShard is unreachable
class CrossRegionPolicy : public platform::PlatformPolicy {
 public:
  struct Options {
    int home_pressure_threshold = 10;  // Active cold starts to consider offloading.
    int peer_quiet_threshold = 3;      // Peer must be below this to accept.
    // Only offload latency-tolerant (asynchronous) work by default.
    bool offload_synchronous = false;
  };

  CrossRegionPolicy();
  explicit CrossRegionPolicy(Options options);

  void OnAttach(platform::Platform& platform) override { platform_ = &platform; }
  trace::RegionId RouteColdStart(const workload::FunctionSpec& spec, SimTime now) override;

  // Routing decisions read every region's load and move pods across regions, so
  // the planner runs this policy as one shard that owns every region.
  bool is_region_local() const override { return false; }

  bool SavePolicyState(std::string* out) const override;
  bool RestorePolicyState(std::string_view blob) override;

  int64_t offloads() const { return offloads_; }

 private:
  Options options_;
  platform::Platform* platform_ = nullptr;
  int64_t offloads_ = 0;
};

}  // namespace coldstart::policy

#endif  // COLDSTART_POLICY_CROSS_REGION_H_
