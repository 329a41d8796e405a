#include "probe.h"

#include <algorithm>

namespace perfbench {

using coldstart::SimDuration;
using coldstart::SimTime;
namespace platform = coldstart::platform;
namespace trace = coldstart::trace;
namespace workload = coldstart::workload;

const char* PolicyHookName(int hook) {
  static constexpr const char* kNames[kNumPolicyHooks] = {
      "OnAttach",       "AdmissionDelay",       "KeepAliveFor",
      "RouteColdStart", "OnArrival",            "OnColdStart",
      "OnParentRequestStart", "OnMinuteTick",   "CloneForShard",
      "AbsorbShardStats", "SavePolicyState",    "RestorePolicyState"};
  return kNames[hook];
}

const char* SinkRecordName(int record) {
  static constexpr const char* kNames[kNumSinkRecords] = {
      "function", "request", "cold_start", "pod", "horizon", "region_cost"};
  return kNames[record];
}

// --- ProbedSink ---------------------------------------------------------------

void ProbedSink::OnFunction(const trace::FunctionRecord& r) {
  ProbeScope scope(probe_, kSink);
  ++probe_.records[kRecFunction];
  inner_.OnFunction(r);
}

void ProbedSink::OnRequest(const trace::RequestRecord& r) {
  ProbeScope scope(probe_, kSink);
  ++probe_.records[kRecRequest];
  ++probe_.requests_by_function[r.function_id];
  inner_.OnRequest(r);
}

void ProbedSink::OnColdStart(const trace::ColdStartRecord& r) {
  ProbeScope scope(probe_, kSink);
  ++probe_.records[kRecColdStart];
  inner_.OnColdStart(r);
}

void ProbedSink::OnPodLifetime(const trace::PodLifetimeRecord& r) {
  ProbeScope scope(probe_, kSink);
  ++probe_.records[kRecPod];
  probe_.pods_useful += r.requests_served > 0 ? 1 : 0;
  probe_.pod_lifetime_sum_us += r.death_time - r.cold_start_begin;
  inner_.OnPodLifetime(r);
}

void ProbedSink::OnHorizon(SimTime horizon) {
  ProbeScope scope(probe_, kSink);
  ++probe_.records[kRecHorizon];
  inner_.OnHorizon(horizon);
}

void ProbedSink::OnRegionCost(const trace::RegionCostRecord& r) {
  ProbeScope scope(probe_, kSink);
  ++probe_.records[kRecRegionCost];
  inner_.OnRegionCost(r);
}

// --- ProbedArrivalStream ----------------------------------------------------------

bool ProbedArrivalStream::NextChunk(workload::ArrivalChunk* chunk) {
  bool more;
  {
    ProbeScope scope(probe_, kArrivals);
    more = inner_->NextChunk(chunk);
  }
  if (more) {
    const size_t day = static_cast<size_t>(chunk->day);
    if (probe_.arrivals_per_day.size() <= day) {
      probe_.arrivals_per_day.resize(day + 1, 0);
    }
    probe_.arrivals_per_day[day] += chunk->events.size();
    probe_.arrivals += chunk->events.size();
    std::fill(probe_.last_day_arrivals_by_function.begin(),
              probe_.last_day_arrivals_by_function.end(), 0);
    for (const workload::ArrivalEvent& e : chunk->events) {
      ++probe_.arrivals_by_function[e.function];
      ++probe_.last_day_arrivals_by_function[e.function];
    }
  }
  return more;
}

// --- ProbedPolicy -------------------------------------------------------------

std::unique_ptr<platform::PlatformPolicy> ProbedPolicy::CloneForShard() const {
  ++probe_->policy_calls[kHookCloneForShard];
  std::unique_ptr<platform::PlatformPolicy> clone = inner_->CloneForShard();
  if (clone == nullptr) {
    return nullptr;
  }
  return std::make_unique<ProbedPolicy>(std::move(clone), probe_);
}

void ProbedPolicy::AbsorbShardStats(const platform::PlatformPolicy& shard) {
  ++probe_->policy_calls[kHookAbsorbShardStats];
  // Shards of a probed prototype are probed clones (CloneForShard above).
  inner_->AbsorbShardStats(*static_cast<const ProbedPolicy&>(shard).inner_);
}

void ProbedPolicy::OnAttach(platform::Platform& platform) {
  ProbeScope scope(*probe_, kPolicy);
  ++probe_->policy_calls[kHookOnAttach];
  inner_->OnAttach(platform);
}

SimDuration ProbedPolicy::AdmissionDelay(const workload::FunctionSpec& spec, SimTime now,
                                         const platform::RegionLoadState& load) {
  ProbeScope scope(*probe_, kPolicy);
  ++probe_->policy_calls[kHookAdmissionDelay];
  return inner_->AdmissionDelay(spec, now, load);
}

SimDuration ProbedPolicy::KeepAliveFor(const workload::FunctionSpec& spec, SimTime now) {
  ProbeScope scope(*probe_, kPolicy);
  ++probe_->policy_calls[kHookKeepAliveFor];
  return inner_->KeepAliveFor(spec, now);
}

trace::RegionId ProbedPolicy::RouteColdStart(const workload::FunctionSpec& spec,
                                             SimTime now) {
  ProbeScope scope(*probe_, kPolicy);
  ++probe_->policy_calls[kHookRouteColdStart];
  return inner_->RouteColdStart(spec, now);
}

void ProbedPolicy::OnArrival(const workload::FunctionSpec& spec, SimTime now) {
  ProbeScope scope(*probe_, kPolicy);
  ++probe_->policy_calls[kHookOnArrival];
  inner_->OnArrival(spec, now);
}

void ProbedPolicy::OnColdStart(const workload::FunctionSpec& spec, SimTime now,
                               SimDuration total) {
  ProbeScope scope(*probe_, kPolicy);
  ++probe_->policy_calls[kHookOnColdStart];
  inner_->OnColdStart(spec, now, total);
}

void ProbedPolicy::OnParentRequestStart(const workload::FunctionSpec& parent,
                                        SimTime now) {
  ProbeScope scope(*probe_, kPolicy);
  ++probe_->policy_calls[kHookOnParentRequestStart];
  inner_->OnParentRequestStart(parent, now);
}

void ProbedPolicy::OnMinuteTick(SimTime now) {
  ProbeScope scope(*probe_, kPolicy);
  ++probe_->policy_calls[kHookOnMinuteTick];
  inner_->OnMinuteTick(now);
}

bool ProbedPolicy::SavePolicyState(std::string* out) const {
  ++probe_->policy_calls[kHookSavePolicyState];
  return inner_->SavePolicyState(out);
}

bool ProbedPolicy::RestorePolicyState(std::string_view blob) {
  ++probe_->policy_calls[kHookRestorePolicyState];
  return inner_->RestorePolicyState(blob);
}

}  // namespace perfbench
