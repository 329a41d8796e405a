// Outside-in layer tracing for the traced benchmark run.
//
// The simulator has no in-program spans yet, so the traced run measures layers
// at the interfaces a caller can already wrap: the trace sink, the arrival
// stream and the platform policy. Each decorator forwards every call to the
// wrapped object unchanged (results stay bit-identical, which the benchmark
// checks by digest) and brackets it with a span on the shard's ShardProbe.
//
// Per-call spans are folded into per-layer busy time on the fly: a month emits
// tens of millions of sink calls, far too many to keep. Busy time is exclusive
// ("self") time: a span's duration minus the part its nested child spans cover,
// so a sink call made from inside a policy hook is charged to the sink. Coarse
// spans (one per shard, day of checkpointing, merge, seal and analysis step)
// are kept in memory and written out once the run ends.
#ifndef PERFBENCH_WORKER_PROBE_H_
#define PERFBENCH_WORKER_PROBE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "platform/policy_hooks.h"
#include "trace/trace_sink.h"
#include "workload/arrival_stream.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Layers whose calls arrive interleaved inside Simulator::RunUntil. kSim is
// the RunUntil span itself: queue, platform and cold-start model together,
// which cannot be told apart from outside.
enum Layer : int { kSim = 0, kArrivals, kSink, kPolicy, kNumLayers };

enum SinkRecord : int {
  kRecFunction = 0,
  kRecRequest,
  kRecColdStart,
  kRecPod,
  kRecHorizon,
  kRecRegionCost,
  kNumSinkRecords
};

enum PolicyHook : int {
  kHookOnAttach = 0,
  kHookAdmissionDelay,
  kHookKeepAliveFor,
  kHookRouteColdStart,
  kHookOnArrival,
  kHookOnColdStart,
  kHookOnParentRequestStart,
  kHookOnMinuteTick,
  kHookCloneForShard,
  kHookAbsorbShardStats,
  kHookSavePolicyState,
  kHookRestorePolicyState,
  kNumPolicyHooks
};
const char* PolicyHookName(int hook);
const char* SinkRecordName(int record);

// A coarse span kept for the span file: `parent` indexes the span list, -1 for
// a root.
struct Span {
  std::string name;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Counters and exclusive-time accounting for one shard. Used from one thread
// at a time; an untimed probe only counts (no clock reads), which is the
// baseline the traced run's overhead is measured against.
class ShardProbe {
 public:
  ShardProbe(bool timed, size_t num_functions)
      : arrivals_by_function(num_functions, 0),
        last_day_arrivals_by_function(num_functions, 0),
        requests_by_function(num_functions, 0),
        timed_(timed) {}

  void Enter(Layer layer) {
    if (timed_) {
      stack_[depth_++] = Frame{layer, NowNs(), 0};
    }
  }
  void Exit() {
    if (!timed_) {
      return;
    }
    const Frame f = stack_[--depth_];
    const int64_t dur = NowNs() - f.start;
    self_ns[f.layer] += dur - f.child;
    if (depth_ > 0) {
      stack_[depth_ - 1].child += dur;
    }
  }

  std::array<int64_t, kNumLayers> self_ns{};
  std::array<uint64_t, kNumSinkRecords> records{};
  std::array<uint64_t, kNumPolicyHooks> policy_calls{};
  uint64_t arrivals = 0;
  std::vector<uint64_t> arrivals_per_day;
  std::vector<uint64_t> arrivals_by_function;
  std::vector<uint64_t> last_day_arrivals_by_function;  // The latest chunk only.
  std::vector<uint64_t> requests_by_function;
  uint64_t pods_useful = 0;
  int64_t pod_lifetime_sum_us = 0;

 private:
  struct Frame {
    Layer layer;
    int64_t start;
    int64_t child;
  };
  bool timed_;
  int depth_ = 0;
  std::array<Frame, 16> stack_{};
};

class ProbeScope {
 public:
  ProbeScope(ShardProbe& probe, Layer layer) : probe_(probe) { probe_.Enter(layer); }
  ~ProbeScope() { probe_.Exit(); }
  ProbeScope(const ProbeScope&) = delete;
  ProbeScope& operator=(const ProbeScope&) = delete;

 private:
  ShardProbe& probe_;
};

class ProbedSink final : public coldstart::trace::TraceSink {
 public:
  ProbedSink(coldstart::trace::TraceSink& inner, ShardProbe& probe)
      : inner_(inner), probe_(probe) {}

  void OnFunction(const coldstart::trace::FunctionRecord& r) override;
  void OnRequest(const coldstart::trace::RequestRecord& r) override;
  void OnColdStart(const coldstart::trace::ColdStartRecord& r) override;
  void OnPodLifetime(const coldstart::trace::PodLifetimeRecord& r) override;
  void OnHorizon(coldstart::SimTime horizon) override;
  void OnRegionCost(const coldstart::trace::RegionCostRecord& r) override;

 private:
  coldstart::trace::TraceSink& inner_;
  ShardProbe& probe_;
};

class ProbedArrivalStream final : public coldstart::workload::ArrivalStream {
 public:
  ProbedArrivalStream(std::unique_ptr<coldstart::workload::ArrivalStream> inner,
                      ShardProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  bool NextChunk(coldstart::workload::ArrivalChunk* chunk) override;
  bool SaveState(coldstart::ByteWriter& w) const override { return inner_->SaveState(w); }
  bool RestoreState(coldstart::ByteReader& r) override { return inner_->RestoreState(r); }

 private:
  std::unique_ptr<coldstart::workload::ArrivalStream> inner_;
  ShardProbe& probe_;
};

// Wraps a policy prototype or a shard clone. Clones made by CloneForShard
// share the prototype's probe until the caller points them at their shard's
// probe with set_probe().
class ProbedPolicy final : public coldstart::platform::PlatformPolicy {
 public:
  ProbedPolicy(std::unique_ptr<coldstart::platform::PlatformPolicy> inner,
               ShardProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  coldstart::platform::PlatformPolicy& inner() { return *inner_; }
  void set_probe(ShardProbe* probe) { probe_ = probe; }

  bool is_region_local() const override { return inner_->is_region_local(); }
  bool is_function_local() const override { return inner_->is_function_local(); }
  std::unique_ptr<coldstart::platform::PlatformPolicy> CloneForShard() const override;
  void AbsorbShardStats(const coldstart::platform::PlatformPolicy& shard) override;
  void OnAttach(coldstart::platform::Platform& platform) override;
  coldstart::SimDuration AdmissionDelay(const coldstart::workload::FunctionSpec& spec,
                                        coldstart::SimTime now,
                                        const coldstart::platform::RegionLoadState& load) override;
  coldstart::SimDuration KeepAliveFor(const coldstart::workload::FunctionSpec& spec,
                                      coldstart::SimTime now) override;
  coldstart::trace::RegionId RouteColdStart(const coldstart::workload::FunctionSpec& spec,
                                            coldstart::SimTime now) override;
  void OnArrival(const coldstart::workload::FunctionSpec& spec,
                 coldstart::SimTime now) override;
  void OnColdStart(const coldstart::workload::FunctionSpec& spec, coldstart::SimTime now,
                   coldstart::SimDuration total) override;
  void OnParentRequestStart(const coldstart::workload::FunctionSpec& parent,
                            coldstart::SimTime now) override;
  void OnMinuteTick(coldstart::SimTime now) override;
  // Serde is counted but not timed as policy work: its time belongs to the
  // checkpoint span that asked for it.
  bool SavePolicyState(std::string* out) const override;
  bool RestorePolicyState(std::string_view blob) override;

 private:
  std::unique_ptr<coldstart::platform::PlatformPolicy> inner_;
  ShardProbe* probe_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKER_PROBE_H_
