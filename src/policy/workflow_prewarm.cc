#include "policy/workflow_prewarm.h"

#include <algorithm>

#include "common/byte_serde.h"
#include "common/check.h"

namespace coldstart::policy {

WorkflowPrewarmPolicy::WorkflowPrewarmPolicy() : WorkflowPrewarmPolicy(Options{}) {}
WorkflowPrewarmPolicy::WorkflowPrewarmPolicy(Options options) : options_(options) {}

void WorkflowPrewarmPolicy::OnParentRequestStart(const workload::FunctionSpec& parent,
                                                 SimTime now) {
  if (platform_ == nullptr) {
    return;
  }
  for (const auto& edge : parent.children) {
    if (edge.probability < options_.min_edge_probability) {
      continue;
    }
    if (edge.child >= last_prewarm_.size()) {
      last_prewarm_.resize(edge.child + size_t{1}, -1);
    }
    SimTime& last = last_prewarm_[edge.child];
    if (last >= 0 && now - last < options_.per_child_cooldown) {
      continue;
    }
    if (platform_->HasAvailablePod(edge.child)) {
      continue;
    }
    const workload::FunctionSpec& child = platform_->spec(edge.child);
    platform_->SpawnPrewarmedPod(edge.child, child.region, options_.prewarm_keep_alive);
    last = now;
    ++prewarms_issued_;
  }
}

bool WorkflowPrewarmPolicy::SavePolicyState(std::string* out) const {
  // Prewarmed children only, in ascending function id.
  const auto prewarmed = static_cast<uint64_t>(std::count_if(
      last_prewarm_.begin(), last_prewarm_.end(), [](SimTime t) { return t >= 0; }));
  ByteWriter w;
  w.I64(prewarms_issued_);
  w.U64(prewarmed);
  for (size_t child = 0; child < last_prewarm_.size(); ++child) {
    if (last_prewarm_[child] >= 0) {
      w.U64(child);
      w.I64(last_prewarm_[child]);
    }
  }
  *out = w.Take();
  return true;
}

bool WorkflowPrewarmPolicy::RestorePolicyState(std::string_view blob) {
  COLDSTART_CHECK(last_prewarm_.empty());
  ByteReader r(blob);
  prewarms_issued_ = r.I64();
  const uint64_t n = r.U64();
  int64_t prev = -1;
  for (uint64_t i = 0; i < n; ++i) {
    const trace::FunctionId child = platform::NextAscendingFid(r.U64(), prev);
    last_prewarm_.resize(child + size_t{1}, -1);
    last_prewarm_[child] = r.I64();
    // Prewarm times are simulation times, never negative.
    COLDSTART_CHECK_GE(last_prewarm_[child], 0);
  }
  COLDSTART_CHECK(r.AtEnd());
  return true;
}

}  // namespace coldstart::policy
