#include "workload.h"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <optional>

#include "analysis/components.h"
#include "analysis/fits.h"
#include "analysis/pool_size.h"
#include "analysis/region_stats.h"
#include "analysis/utility.h"
#include "checkpoint/checkpoint.h"
#include "common/byte_serde.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "policy/forecast.h"
#include "workload/workload_source.h"

namespace perfbench {

namespace core = coldstart::core;
namespace platform = coldstart::platform;
namespace trace = coldstart::trace;
namespace workload = coldstart::workload;
using coldstart::ByteWriter;
using coldstart::HashString;
using coldstart::kDay;
using coldstart::MixHash;
using coldstart::MixHashDouble;
using coldstart::SimTime;

namespace {

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// The synthetic generator with its arrival seed replaced by the benchmark
// seed. Part of the scenario fingerprint, so checkpoints of different seeds
// never mix.
class ReseededSource final : public workload::WorkloadSource {
 public:
  explicit ReseededSource(uint64_t arrival_seed) : arrival_seed_(arrival_seed) {}

  const char* name() const override { return "perfbench:reseeded-synthetic"; }
  uint64_t Fingerprint() const override {
    return MixHash(HashString(name()), arrival_seed_);
  }
  std::unique_ptr<workload::ArrivalStream> OpenStream(
      const workload::Population& pop, const std::vector<workload::RegionProfile>& profiles,
      const workload::Calendar& calendar, uint64_t /*seed*/,
      std::optional<trace::RegionId> region,
      std::optional<workload::CellSlice> cell_slice) const override {
    return workload::DefaultSyntheticSource().OpenStream(pop, profiles, calendar,
                                                         arrival_seed_, region, cell_slice);
  }

 private:
  uint64_t arrival_seed_;
};

uint64_t HashBytes(const ByteWriter& w) { return HashString(w.data()); }

uint64_t SumRegionStats(uint64_t h, const std::vector<int64_t>& v) {
  for (const int64_t x : v) {
    h = MixHash(h, static_cast<uint64_t>(x));
  }
  return h;
}

// Digest, conservation checks and the simulated end-to-end metrics of a
// finished run. The rebuild fills the same ExperimentResult fields the
// untraced run does, so both are judged by this one function.
RunOutputs Summarize(const WorkloadSpec& spec, const core::ExperimentResult& result,
                     uint64_t analysis_digest) {
  RunOutputs out;
  out.analysis_digest = analysis_digest;
  out.events = result.events_processed;
  const bool streaming = spec.mode == core::TraceMode::kStreaming;
  uint64_t h;
  if (streaming) {
    ByteWriter w;
    result.streaming.SaveState(w);
    h = HashBytes(w);
  } else {
    h = trace::Digest(result.store);
  }
  {
    ByteWriter w;
    result.cost_ledger.SaveState(w);
    h = MixHash(h, HashBytes(w));
  }
  for (const auto* v : {&result.visible_cold_starts, &result.prewarm_spawns,
                        &result.delayed_allocations, &result.scratch_allocations,
                        &result.cold_start_latency_sum_us}) {
    h = SumRegionStats(h, *v);
  }
  out.digest = h;

  for (const int64_t c : result.visible_cold_starts) {
    out.cold_starts += c;
  }
  const trace::RegionCostRecord cost = result.cost_ledger.TotalRecord();
  out.pod_hours = cost.pod_seconds() / 3600.0;

  // Every pod starts cold; only prewarm spawns go unrecorded as cold starts.
  int64_t prewarm_spawns = 0;
  for (const int64_t p : result.prewarm_spawns) {
    prewarm_spawns += p;
  }
  const auto check_pods = [&out, prewarm_spawns](uint64_t cold_start_records,
                                                 uint64_t pod_records) {
    if (cold_start_records + static_cast<uint64_t>(prewarm_spawns) != pod_records) {
      out.failed_checks.push_back("cold-start records + prewarm spawns != pod records");
    }
  };
  if (streaming) {
    const trace::StreamCounters totals = result.streaming.Totals();
    check_pods(totals.cold_starts, totals.pods);
    out.p99_cold_start_s = result.streaming.MergedColdStartHist().Quantile(0.99);
  } else {
    const trace::TraceStore& store = result.store;
    check_pods(store.cold_starts().size(), store.pods().size());
    __int128 lifetimes = 0;
    for (const trace::PodLifetimeRecord& p : store.pods()) {
      lifetimes += p.death_time - p.cold_start_begin;
    }
    if (lifetimes != cost.pod_us) {
      out.failed_checks.push_back("ledger pod-seconds != summed pod lifetimes");
    }
    std::vector<uint32_t> cs;
    cs.reserve(store.cold_starts().size());
    for (const trace::ColdStartRecord& r : store.cold_starts()) {
      cs.push_back(r.cold_start_us);
    }
    if (!cs.empty()) {
      const size_t k = std::min(cs.size() - 1, static_cast<size_t>(0.99 * cs.size()));
      std::nth_element(cs.begin(), cs.begin() + static_cast<ptrdiff_t>(k), cs.end());
      out.p99_cold_start_s = cs[k] * 1e-6;
    }
  }
  return out;
}

uint64_t MixEcdf(uint64_t h, const coldstart::stats::Ecdf& e) {
  h = MixHash(h, e.size());
  if (e.size() > 0) {
    h = MixHashDouble(h, e.Quantile(0.5));
    h = MixHashDouble(h, e.Quantile(0.99));
  }
  return h;
}

// The paper analysis pass: region sizes (Fig. 1), cold-start CDFs (Fig. 10a),
// hourly components (Fig. 11), utility ratio (Fig. 17), distribution fits
// (Fig. 10b/d) and pool size (Fig. 13). Returns a digest of the results;
// fills per-step host seconds and spans when asked.
uint64_t RunAnalysis(const trace::TraceStore& store, int regions,
                     std::array<double, kNumAnalysisSteps>* step_s,
                     std::vector<Span>* spans, int parent) {
  uint64_t h = HashString("perfbench-analysis-v1");
  for (int step = 0; step < kNumAnalysisSteps; ++step) {
    const int64_t t0 = NowNs();
    switch (step) {
      case 0:
        for (const auto& s : coldstart::analysis::ComputeRegionSizes(store)) {
          for (const uint64_t v : {uint64_t{s.region}, s.functions, s.users, s.requests,
                                   s.pods, s.cold_starts}) {
            h = MixHash(h, v);
          }
        }
        break;
      case 1:
        for (const auto& e : coldstart::analysis::ColdStartTimeCdfs(store)) {
          h = MixEcdf(h, e);
        }
        break;
      case 2:
        for (int r = 0; r < regions; ++r) {
          const trace::ComponentSeries s = coldstart::analysis::HourlyComponents(store, r);
          for (const auto* v : {&s.total, &s.pod_alloc, &s.deploy_code, &s.deploy_dep,
                                &s.scheduling, &s.count}) {
            double sum = 0;
            for (const double x : *v) {
              sum += x;
            }
            h = MixHashDouble(h, sum);
          }
        }
        break;
      case 3:
        for (int r = 0; r < regions; ++r) {
          h = MixEcdf(h, coldstart::analysis::UtilityByRuntime(store, r, -1));
        }
        break;
      case 4: {
        const auto fits = coldstart::analysis::FitColdStartDistributions(store);
        for (const double v : {fits.cold_start_lognormal.mu, fits.cold_start_lognormal.sigma,
                               fits.iat_weibull.shape, fits.iat_weibull.scale}) {
          h = MixHashDouble(h, v);
        }
        break;
      }
      default:
        for (const auto& s : coldstart::analysis::ComputePoolSizeSummaries(store)) {
          h = MixHash(h, s.stats.count);
          h = MixHashDouble(h, s.stats.mean);
          h = MixHashDouble(h, s.stats.p99);
        }
        break;
    }
    const int64_t t1 = NowNs();
    if (step_s != nullptr) {
      (*step_s)[static_cast<size_t>(step)] = Seconds(t1 - t0);
    }
    if (spans != nullptr) {
      spans->push_back({std::string("analysis.") + AnalysisStepName(step), parent, t0, t1});
    }
  }
  return h;
}

platform::Platform::Options PlatformOptionsFor(const core::ScenarioConfig& config) {
  platform::Platform::Options options;
  options.seed = config.seed;
  options.record_requests = config.record_requests;
  options.default_keep_alive = config.default_keep_alive;
  return options;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "paper_month_full") {
    s.mode = core::TraceMode::kFull;
    s.sharded = true;
    s.analysis = true;
  } else if (name == "paper_month_streaming") {
    s.mode = core::TraceMode::kStreaming;
  } else if (name == "forecast_month_ckpt") {
    s.mode = core::TraceMode::kStreaming;
    s.sharded = true;
    s.forecast = true;
    s.checkpoint = true;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

core::ScenarioConfig MakeConfig(const WorkloadSpec& spec, uint64_t seed, bool small) {
  core::ScenarioConfig config = small ? core::SmallScenario() : core::PaperScenario();
  config.trace_mode = spec.mode;
  config.workload = std::make_shared<ReseededSource>(seed);
  return config;
}

const char* AnalysisStepName(int step) {
  static constexpr const char* kNames[kNumAnalysisSteps] = {
      "region_sizes", "cold_start_cdfs", "hourly_components",
      "utility",      "fits",            "pool_size"};
  return kNames[step];
}

UntracedRun RunUntraced(const WorkloadSpec& spec, const core::ScenarioConfig& config,
                        int threads, int setup_reps, const std::string& checkpoint_dir) {
  UntracedRun run;
  {
    const workload::Calendar calendar = config.MakeCalendar();
    const std::vector<workload::RegionProfile> profiles = config.ScaledProfiles();
    std::vector<double> setups;
    for (int i = 0; i < setup_reps; ++i) {
      const int64_t t0 = NowNs();
      workload::Population pop = workload::GeneratePopulation(profiles, config.seed);
      auto stream =
          config.workload_source().OpenStream(pop, profiles, calendar, config.seed);
      setups.push_back(Seconds(NowNs() - t0));
    }
    if (!setups.empty()) {
      std::sort(setups.begin(), setups.end());
      run.setup_s = setups[setups.size() / 2];
    }
  }

  core::Experiment experiment(config);
  std::unique_ptr<coldstart::policy::ForecastPrewarmPolicy> policy;
  if (spec.forecast) {
    policy = std::make_unique<coldstart::policy::ForecastPrewarmPolicy>();
  }
  core::CheckpointPolicy checkpoint;
  checkpoint.every_n_days = 1;
  checkpoint.dir = checkpoint_dir;
  if (spec.checkpoint) {
    COLDSTART_CHECK(!checkpoint_dir.empty());
  }

  const int64_t t0 = NowNs();
  const core::ExperimentResult result =
      experiment.Run(policy.get(), spec.sharded ? threads : 1,
                     spec.checkpoint ? &checkpoint : nullptr);
  uint64_t analysis_digest = 0;
  if (spec.analysis) {
    analysis_digest = RunAnalysis(result.store, static_cast<int>(config.profiles.size()),
                                  nullptr, nullptr, -1);
  }
  run.wall_s = Seconds(NowNs() - t0);
  run.outputs = Summarize(spec, result, analysis_digest);
  return run;
}

RebuiltRun RunRebuild(const WorkloadSpec& spec, const core::ScenarioConfig& config,
                      bool timed, bool parallel, bool analysis, int threads,
                      const std::string& checkpoint_dir) {
  const int64_t run_start = NowNs();
  RebuiltRun out;
  LayerReport& rep = out.layers;
  const bool streaming = spec.mode == core::TraceMode::kStreaming;
  COLDSTART_CHECK(config.cells_per_region <= 1 && "rebuild covers region sharding only");
  COLDSTART_CHECK((!spec.checkpoint || streaming) && "rebuild checkpoints kStreaming only");

  core::ExperimentResult result;
  result.mode = config.trace_mode;
  const workload::Calendar calendar = config.MakeCalendar();
  const SimTime horizon = calendar.horizon();
  const std::vector<workload::RegionProfile> profiles = config.ScaledProfiles();
  const size_t regions = profiles.size();
  result.population = workload::GeneratePopulation(profiles, config.seed);
  const workload::Population& population = result.population;
  const size_t num_functions = population.functions.size();

  // Prototype-level policy calls (CloneForShard, AbsorbShardStats, the
  // checkpointability probe) land on the run probe.
  ShardProbe run_probe(timed, num_functions);
  std::unique_ptr<ProbedPolicy> policy;
  if (spec.forecast) {
    policy = std::make_unique<ProbedPolicy>(
        std::make_unique<coldstart::policy::ForecastPrewarmPolicy>(), &run_probe);
  }
  // The shard plan of Experiment::Run: one shard per region when the policy
  // (if any) is region-local and clonable.
  COLDSTART_CHECK(regions > 1 && (policy == nullptr || policy->is_region_local()));
  std::vector<std::unique_ptr<platform::PlatformPolicy>> clones(regions);
  if (policy != nullptr) {
    for (auto& clone : clones) {
      clone = policy->CloneForShard();
      COLDSTART_CHECK(clone != nullptr && "policy cannot be cloned per shard");
    }
  }

  const uint64_t fingerprint = config.Fingerprint();
  coldstart::checkpoint::Manifest manifest;
  std::mutex manifest_mu;
  if (spec.checkpoint) {
    COLDSTART_CHECK(!checkpoint_dir.empty());
    if (policy != nullptr) {
      std::string probe_blob;
      COLDSTART_CHECK(policy->SavePolicyState(&probe_blob) && "policy is not checkpointable");
    }
    std::filesystem::create_directories(checkpoint_dir);
    manifest.fingerprint = fingerprint;
    manifest.trace_mode = static_cast<uint8_t>(config.trace_mode);
    manifest.num_regions = static_cast<uint32_t>(regions);
    manifest.sharded = true;
    manifest.shards_per_region = 1;
  }

  struct Shard {
    trace::TraceStore store;
    trace::StreamingAggregates streaming;
    std::unique_ptr<ShardProbe> probe;
    uint64_t events = 0;
    uint64_t pods_created = 0;
    int64_t visible_cold_starts = 0;
    int64_t prewarm_spawns = 0;
    int64_t delayed_allocations = 0;
    int64_t scratch_allocations = 0;
    int64_t cold_start_latency_sum_us = 0;
    platform::ResourceCostLedger cost_ledger;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t checkpoint_ns = 0;
    uint64_t checkpoint_bytes = 0;
    uint64_t checkpoint_commits = 0;
    std::vector<Span> checkpoint_spans;
  };
  std::vector<Shard> shards(regions);
  for (Shard& sh : shards) {
    sh.probe = std::make_unique<ShardProbe>(timed, num_functions);
  }

  // One checkpoint commit: the payload layout Experiment writes (clock,
  // policy blob, sink state, platform state), framed by WriteCheckpointFile,
  // then the manifest.
  const auto commit = [&](uint32_t s, int64_t day, const coldstart::sim::Simulator& sim,
                          const platform::PlatformPolicy* shard_policy,
                          const platform::Platform& plat) {
    Shard& sh = shards[s];
    const int64_t t0 = NowNs();
    ByteWriter w;
    w.I64(sim.now());
    w.U64(sim.next_seq());
    w.U64(sim.events_processed());
    if (shard_policy != nullptr) {
      std::string blob;
      COLDSTART_CHECK(shard_policy->SavePolicyState(&blob));
      w.U8(1);
      w.Str(blob);
    } else {
      w.U8(0);
    }
    sh.streaming.SaveState(w);
    plat.SaveCheckpointState(w);
    coldstart::checkpoint::CheckpointMeta meta;
    meta.fingerprint = fingerprint;
    meta.trace_mode = manifest.trace_mode;
    meta.shard = s;
    meta.day = day;
    meta.num_regions = manifest.num_regions;
    const std::string file = coldstart::checkpoint::CheckpointFileName(day, s);
    const std::string path = checkpoint_dir + "/" + file;
    COLDSTART_CHECK(coldstart::checkpoint::WriteCheckpointFile(path, meta, w.data()));
    {
      std::lock_guard<std::mutex> lock(manifest_mu);
      bool found = false;
      for (auto& e : manifest.entries) {
        if (e.shard == s) {
          e.day = day;
          e.file = file;
          found = true;
        }
      }
      if (!found) {
        manifest.entries.push_back({s, day, file});
      }
      COLDSTART_CHECK(coldstart::checkpoint::WriteManifest(checkpoint_dir, manifest));
      sh.checkpoint_bytes +=
          std::filesystem::file_size(coldstart::checkpoint::ManifestPath(checkpoint_dir));
    }
    sh.checkpoint_bytes += std::filesystem::file_size(path);
    ++sh.checkpoint_commits;
    const int64_t t1 = NowNs();
    sh.checkpoint_ns += t1 - t0;
    sh.checkpoint_spans.push_back({"checkpoint.day" + std::to_string(day), -1, t0, t1});
  };

  const auto run_shard = [&](size_t s) {
    Shard& sh = shards[s];
    sh.start_ns = NowNs();
    ShardProbe& probe = *sh.probe;
    const auto region = static_cast<trace::RegionId>(s);
    trace::TraceSink& raw_sink = streaming ? static_cast<trace::TraceSink&>(sh.streaming)
                                           : static_cast<trace::TraceSink&>(sh.store);
    ProbedSink sink(raw_sink, probe);
    ProbedPolicy* shard_policy = static_cast<ProbedPolicy*>(clones[s].get());
    if (shard_policy != nullptr) {
      shard_policy->set_probe(&probe);
    }
    coldstart::sim::Simulator sim;
    std::optional<platform::Platform> plat;
    {
      ProbeScope scope(probe, kSim);
      plat.emplace(population, profiles, calendar, sim, sink, PlatformOptionsFor(config),
                   shard_policy);
      std::unique_ptr<workload::ArrivalStream> stream;
      {
        ProbeScope open(probe, kArrivals);
        stream = config.workload_source().OpenStream(population, profiles, calendar,
                                                     config.seed, region);
      }
      plat->AttachArrivalStream(
          std::make_unique<ProbedArrivalStream>(std::move(stream), probe));
    }
    if (spec.checkpoint) {
      for (int64_t day = 1; day * kDay < horizon; ++day) {
        {
          ProbeScope scope(probe, kSim);
          sim.RunUntil(day * kDay - 1);
        }
        commit(static_cast<uint32_t>(s), day, sim, shard_policy, *plat);
      }
    }
    {
      ProbeScope scope(probe, kSim);
      sim.RunUntil(horizon);
      plat->Finalize();
    }
    sh.events = sim.events_processed();
    sh.pods_created = plat->pods_created();
    sh.visible_cold_starts = plat->cold_starts(region);
    sh.prewarm_spawns = plat->prewarm_spawns(region);
    sh.delayed_allocations = plat->delayed_allocations(region);
    sh.scratch_allocations = plat->scratch_allocations(region);
    sh.cold_start_latency_sum_us = plat->cold_start_latency_sum_us(region);
    sh.cost_ledger = plat->cost_ledger();
    plat.reset();
    sh.end_ns = NowNs();
  };

  if (parallel) {
    core::ParallelSweep sweep(threads);
    for (size_t s = 0; s < regions; ++s) {
      sweep.Add([&run_shard, s] { run_shard(s); });
    }
    sweep.Run();
  } else {
    for (size_t s = 0; s < regions; ++s) {
      run_shard(s);
    }
  }

  if (policy != nullptr) {
    for (const auto& clone : clones) {
      policy->AbsorbShardStats(*clone);
    }
    rep.prewarms_issued =
        static_cast<coldstart::policy::ForecastPrewarmPolicy&>(policy->inner())
            .prewarms_issued();
  }

  // Merge in shard order, as Experiment does.
  const int64_t merge_start = NowNs();
  if (streaming) {
    result.streaming = std::move(shards[0].streaming);
    for (size_t s = 1; s < regions; ++s) {
      result.streaming.MergeFrom(shards[s].streaming);
    }
  } else {
    result.store = std::move(shards[0].store);
    for (size_t s = 1; s < regions; ++s) {
      result.store.AppendFrom(std::move(shards[s].store));
    }
  }
  result.visible_cold_starts.assign(regions, 0);
  result.prewarm_spawns.assign(regions, 0);
  result.delayed_allocations.assign(regions, 0);
  result.scratch_allocations.assign(regions, 0);
  result.cold_start_latency_sum_us.assign(regions, 0);
  result.cost_ledger = platform::ResourceCostLedger(regions);
  for (size_t s = 0; s < regions; ++s) {
    result.events_processed += shards[s].events;
    result.visible_cold_starts[s] = shards[s].visible_cold_starts;
    result.prewarm_spawns[s] = shards[s].prewarm_spawns;
    result.delayed_allocations[s] = shards[s].delayed_allocations;
    result.scratch_allocations[s] = shards[s].scratch_allocations;
    result.cold_start_latency_sum_us[s] = shards[s].cold_start_latency_sum_us;
    result.cost_ledger.MergeFrom(shards[s].cost_ledger);
  }
  const int64_t merge_end = NowNs();
  // Experiment seals in both modes; in kStreaming the store is empty.
  result.store.Seal();
  const int64_t seal_end = NowNs();

  std::vector<Span>& spans = rep.spans;
  spans.push_back({"run", -1, run_start, 0});
  for (size_t s = 0; s < regions; ++s) {
    const int shard_span = static_cast<int>(spans.size());
    spans.push_back({"shard.R" + std::to_string(s + 1), 0, shards[s].start_ns,
                     shards[s].end_ns});
    for (Span sp : shards[s].checkpoint_spans) {
      sp.parent = shard_span;
      spans.push_back(std::move(sp));
    }
  }
  spans.push_back({"shard.merge", 0, merge_start, merge_end});
  spans.push_back({"sink.seal", 0, merge_end, seal_end});
  uint64_t analysis_digest = 0;
  if (spec.analysis && analysis) {
    const int analysis_span = static_cast<int>(spans.size());
    spans.push_back({"analysis", 0, seal_end, 0});
    analysis_digest = RunAnalysis(result.store, static_cast<int>(regions),
                                  &rep.analysis_s, &spans, analysis_span);
    spans[static_cast<size_t>(analysis_span)].end_ns = NowNs();
  }
  const int64_t run_end = NowNs();
  spans[0].end_ns = run_end;
  out.wall_s = Seconds(run_end - run_start);
  out.outputs = Summarize(spec, result, analysis_digest);

  // Fold the shard probes into the layer report.
  std::vector<uint64_t> arrivals_by_function(num_functions, 0);
  std::vector<uint64_t> requests_by_function(num_functions, 0);
  std::vector<uint64_t> last_day_arrivals_by_function(num_functions, 0);
  std::vector<uint64_t> arrivals_per_day;
  int64_t pod_lifetime_sum_us = 0;
  std::vector<const ShardProbe*> probes = {&run_probe};
  for (const Shard& sh : shards) {
    probes.push_back(sh.probe.get());
  }
  for (const ShardProbe* p : probes) {
    for (int l = 0; l < kNumLayers; ++l) {
      rep.self_s[static_cast<size_t>(l)] += Seconds(p->self_ns[static_cast<size_t>(l)]);
    }
    for (int k = 0; k < kNumSinkRecords; ++k) {
      rep.records[static_cast<size_t>(k)] += p->records[static_cast<size_t>(k)];
    }
    for (int k = 0; k < kNumPolicyHooks; ++k) {
      rep.policy_calls[static_cast<size_t>(k)] += p->policy_calls[static_cast<size_t>(k)];
    }
    rep.arrivals += p->arrivals;
    rep.pods_useful += p->pods_useful;
    pod_lifetime_sum_us += p->pod_lifetime_sum_us;
    if (arrivals_per_day.size() < p->arrivals_per_day.size()) {
      arrivals_per_day.resize(p->arrivals_per_day.size(), 0);
    }
    for (size_t d = 0; d < p->arrivals_per_day.size(); ++d) {
      arrivals_per_day[d] += p->arrivals_per_day[d];
    }
    for (size_t f = 0; f < num_functions; ++f) {
      arrivals_by_function[f] += p->arrivals_by_function[f];
      requests_by_function[f] += p->requests_by_function[f];
      last_day_arrivals_by_function[f] += p->last_day_arrivals_by_function[f];
    }
  }
  for (const uint64_t n : arrivals_per_day) {
    rep.max_day_arrivals = std::max(rep.max_day_arrivals, n);
  }
  for (const Shard& sh : shards) {
    rep.cold_starts += sh.visible_cold_starts;
    rep.scratch_allocations += sh.scratch_allocations;
    rep.delayed_allocations += sh.delayed_allocations;
    rep.prewarm_spawns += sh.prewarm_spawns;
    rep.pods_created += sh.pods_created;
    rep.shard_busy_s.push_back(Seconds(sh.end_ns - sh.start_ns));
    rep.checkpoint_write_s += Seconds(sh.checkpoint_ns);
    rep.checkpoint_bytes += sh.checkpoint_bytes;
    rep.checkpoint_commits += sh.checkpoint_commits;
  }
  rep.merge_s = Seconds(merge_end - merge_start);
  rep.seal_s = Seconds(seal_end - merge_end);

  // Conservation checks only the rebuild can make, since they need the
  // decorators' view of every record and every pulled arrival.
  std::vector<bool> is_child(num_functions, false);
  for (const workload::FunctionSpec& f : population.functions) {
    for (const workload::WorkflowEdge& e : f.children) {
      is_child[e.child] = true;
    }
  }
  for (size_t f = 0; f < num_functions; ++f) {
    // Requests are recorded when they complete, so the ones still running at
    // the horizon are missing; they can only have arrived on the final day.
    // Workflow children also run when their parents call them, so for them
    // only the lower bound holds.
    const uint64_t requests = requests_by_function[f];
    const uint64_t arrivals = arrivals_by_function[f];
    const bool ok = requests + last_day_arrivals_by_function[f] >= arrivals &&
                    (is_child[f] || requests <= arrivals);
    if (!ok) {
      out.outputs.failed_checks.push_back(
          "recorded requests != arrivals pulled (function " + std::to_string(f) + ": " +
          std::to_string(requests) + " requests, " + std::to_string(arrivals) +
          " arrivals)");
      break;
    }
  }
  if (rep.records[kRecColdStart] + static_cast<uint64_t>(rep.prewarm_spawns) !=
      rep.records[kRecPod]) {
    out.outputs.failed_checks.push_back(
        "cold-start records + prewarm spawns != pod records (sink view)");
  }
  if (pod_lifetime_sum_us != result.cost_ledger.TotalRecord().pod_us) {
    out.outputs.failed_checks.push_back("ledger pod-seconds != summed pod lifetimes (sink view)");
  }
  return out;
}

}  // namespace perfbench
