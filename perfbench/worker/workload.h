// The benchmark's workloads, the outputs every run is checked on, and the two
// ways of running a workload: the untraced run through core::Experiment, and
// the rebuild of the same run from public calls that the traced run uses.
#ifndef PERFBENCH_WORKER_WORKLOAD_H_
#define PERFBENCH_WORKER_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "probe.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  coldstart::core::TraceMode mode = coldstart::core::TraceMode::kFull;
  bool sharded = false;     // Region-sharded on `threads` workers, else serial.
  bool forecast = false;    // Default ForecastPrewarmPolicy attached.
  bool checkpoint = false;  // Checkpoint every day into a fresh directory.
  bool analysis = false;    // Paper analysis pass over the sealed store.
};

// Returns false for an unknown name.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

// The paper scenario (or, for the self-test, SmallScenario) with the benchmark
// seed applied. The population and platform keep the scenario's own seed; the
// benchmark seed re-draws the arrival process over that population, so seeds
// vary the traffic without changing what is being simulated.
coldstart::core::ScenarioConfig MakeConfig(const WorkloadSpec& spec, uint64_t seed,
                                           bool small);

// What a run produced, reduced to the values the benchmark checks and reports.
struct RunOutputs {
  uint64_t digest = 0;           // Trace (or aggregates) + ledger + region stats.
  uint64_t analysis_digest = 0;  // Analysis pass results; 0 without analysis.
  uint64_t events = 0;
  int64_t cold_starts = 0;       // User-visible, summed over regions.
  double p99_cold_start_s = 0;
  double pod_hours = 0;
  std::vector<std::string> failed_checks;
};

// Per-step host seconds of the analysis pass, in AnalysisStepName order.
inline constexpr int kNumAnalysisSteps = 6;
const char* AnalysisStepName(int step);

struct UntracedRun {
  RunOutputs outputs;
  double wall_s = 0;
  double setup_s = 0;  // Median over setup repetitions.
};

// Times Experiment::Run (plus the analysis pass where the workload has one).
// `setup_reps` times GeneratePopulation + OpenStream that many times first.
UntracedRun RunUntraced(const WorkloadSpec& spec, const coldstart::core::ScenarioConfig& config,
                        int threads, int setup_reps, const std::string& checkpoint_dir);

// The rebuild's per-layer report. Times are host seconds.
struct LayerReport {
  std::array<double, kNumLayers> self_s{};
  std::array<uint64_t, kNumSinkRecords> records{};
  std::array<uint64_t, kNumPolicyHooks> policy_calls{};
  uint64_t arrivals = 0;
  uint64_t max_day_arrivals = 0;
  int64_t cold_starts = 0;
  int64_t scratch_allocations = 0;
  int64_t delayed_allocations = 0;
  int64_t prewarm_spawns = 0;
  uint64_t pods_created = 0;
  uint64_t pods_useful = 0;
  int64_t prewarms_issued = 0;
  std::vector<double> shard_busy_s;  // Per region.
  double merge_s = 0;
  double seal_s = 0;
  double checkpoint_write_s = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t checkpoint_commits = 0;
  std::array<double, kNumAnalysisSteps> analysis_s{};
  std::vector<Span> spans;
};

struct RebuiltRun {
  RunOutputs outputs;
  LayerReport layers;
  double wall_s = 0;
};

// Rebuilds the run from public calls: Simulator + Platform per region shard,
// region-filtered OpenStream, AppendFrom/MergeFrom, Seal, and checkpoint
// commits through the Save* calls and checkpoint::WriteCheckpointFile. Every
// sink, stream and policy goes through the probe decorators. `timed` reads
// the clock at every decorated call; `parallel` runs the shards on `threads`
// workers instead of one after another (only for checking: busy times from a
// parallel rebuild include contention). `analysis` false skips the workload's
// analysis pass: its results are a function of the store, which the trace
// digest already pins.
RebuiltRun RunRebuild(const WorkloadSpec& spec, const coldstart::core::ScenarioConfig& config,
                      bool timed, bool parallel, bool analysis, int threads,
                      const std::string& checkpoint_dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKER_WORKLOAD_H_
