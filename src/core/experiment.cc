#include "core/experiment.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/byte_serde.h"
#include "common/check.h"
#include "common/env.h"
#include "core/sweep.h"
#include "trace/binary_io.h"
#include "workload/arrivals.h"
#include "workload/function_cells.h"

namespace coldstart::core {

namespace {

platform::Platform::Options PlatformOptions(const ScenarioConfig& config) {
  platform::Platform::Options options;
  options.seed = config.seed;
  options.record_requests = config.record_requests;
  options.default_keep_alive = config.default_keep_alive;
  options.cells_per_region = std::max<uint32_t>(config.cells_per_region, 1u);
  return options;
}

// The function-to-cell map shared by every platform of a cells > 1 run (null
// otherwise). Each platform instance — serial or any shard — must see the same
// map, or pod-id/RNG namespaces would disagree across shards.
std::shared_ptr<const std::vector<uint32_t>> MakeFunctionCells(
    const ScenarioConfig& config, const workload::Population& population) {
  if (config.cells_per_region <= 1) {
    return nullptr;
  }
  return std::make_shared<const std::vector<uint32_t>>(
      workload::ComputeFunctionCells(population, config.cells_per_region));
}

// Accumulates (+=) so sub-region shards of the same region fold into one row;
// callers zero the vectors (ResizeStats) first.
void CollectRegionStats(const platform::Platform& platform, trace::RegionId region,
                        ExperimentResult& result) {
  result.visible_cold_starts[region] += platform.cold_starts(region);
  result.prewarm_spawns[region] += platform.prewarm_spawns(region);
  result.delayed_allocations[region] += platform.delayed_allocations(region);
  result.scratch_allocations[region] += platform.scratch_allocations(region);
  result.cold_start_latency_sum_us[region] += platform.cold_start_latency_sum_us(region);
}

// The five per-region counter series, in trace-cache blob order.
template <typename Result>
auto CounterSeries(Result& result) {
  return std::array{&result.visible_cold_starts, &result.prewarm_spawns,
                    &result.delayed_allocations, &result.scratch_allocations,
                    &result.cold_start_latency_sum_us};
}

void ResizeStats(ExperimentResult& result, size_t regions) {
  for (std::vector<int64_t>* series : CounterSeries(result)) {
    series->assign(regions, 0);
  }
  result.cost_ledger = platform::ResourceCostLedger(regions);
}

// --- Checkpoint plumbing -----------------------------------------------------

// Record tables travel as raw bytes, like trace/binary_io.cc does for the
// cache format: a checkpoint is consumed on the machine that wrote it.
template <typename Record>
void SaveTable(const std::vector<Record>& table, ByteWriter& w) {
  w.Count(table.size());
  if (!table.empty()) {
    w.Raw(table.data(), table.size() * sizeof(Record));
  }
}

template <typename Record>
std::vector<Record> RestoreTable(ByteReader& r) {
  std::vector<Record> table(r.Count(sizeof(Record)));
  if (!table.empty()) {
    r.Raw(table.data(), table.size() * sizeof(Record));
  }
  return table;
}

void SaveSinkState(bool streaming, const trace::TraceStore& store,
                   const trace::StreamingAggregates& aggregates, ByteWriter& w) {
  if (streaming) {
    aggregates.SaveState(w);
    return;
  }
  SaveTable(store.requests(), w);
  SaveTable(store.cold_starts(), w);
  SaveTable(store.functions(), w);
  SaveTable(store.pods(), w);
  w.I64(store.horizon());
}

void RestoreSinkState(bool streaming, trace::TraceStore& store,
                      trace::StreamingAggregates& aggregates, ByteReader& r) {
  if (streaming) {
    aggregates.RestoreState(r);
    return;
  }
  auto requests = RestoreTable<trace::RequestRecord>(r);
  auto cold_starts = RestoreTable<trace::ColdStartRecord>(r);
  auto functions = RestoreTable<trace::FunctionRecord>(r);
  auto pods = RestoreTable<trace::PodLifetimeRecord>(r);
  const SimTime horizon = r.I64();
  store.RestoreTables(std::move(requests), std::move(cold_starts),
                      std::move(functions), std::move(pods), horizon);
}

// One shard's full state, in the order RestoreShard consumes it: simulator
// clock/counters, policy blob, sink state, platform state.
std::string BuildCheckpointPayload(const sim::Simulator& sim,
                                   const platform::PlatformPolicy* policy,
                                   bool streaming, const trace::TraceStore& store,
                                   const trace::StreamingAggregates& aggregates,
                                   const platform::Platform& platform) {
  ByteWriter w;
  w.I64(sim.now());
  w.U64(sim.next_seq());
  w.U64(sim.events_processed());
  if (policy != nullptr) {
    std::string blob;
    COLDSTART_CHECK(policy->SavePolicyState(&blob));
    w.U8(1);
    w.Str(blob);
  } else {
    w.U8(0);
  }
  SaveSinkState(streaming, store, aggregates, w);
  platform.SaveCheckpointState(w);
  return w.Take();
}

// Restores one shard from its committed checkpoint file and returns the
// completed-day count. The platform must be freshly constructed with
// Options.resuming and the simulator untouched.
int64_t RestoreShard(const std::string& dir, const checkpoint::ManifestEntry& entry,
                     uint64_t fingerprint, uint8_t trace_mode, uint32_t num_regions,
                     uint32_t shard, sim::Simulator& sim,
                     platform::PlatformPolicy* policy, bool streaming,
                     trace::TraceStore& store,
                     trace::StreamingAggregates& aggregates,
                     platform::Platform& platform,
                     std::unique_ptr<workload::ArrivalStream> stream) {
  checkpoint::CheckpointMeta meta;
  std::string payload;
  const std::string path = dir + "/" + entry.file;
  COLDSTART_CHECK(checkpoint::ReadCheckpointFile(path, &meta, &payload) &&
                  "manifest names a checkpoint file that does not exist");
  COLDSTART_CHECK_EQ(meta.fingerprint, fingerprint);
  COLDSTART_CHECK_EQ(meta.trace_mode, trace_mode);
  COLDSTART_CHECK_EQ(meta.shard, shard);
  COLDSTART_CHECK_EQ(meta.day, entry.day);
  COLDSTART_CHECK_EQ(meta.num_regions, num_regions);
  ByteReader r(payload);
  const SimTime now = r.I64();
  const uint64_t next_seq = r.U64();
  const uint64_t events = r.U64();
  sim.RestoreClock(now, next_seq, events);
  if (r.U8() != 0) {
    COLDSTART_CHECK(policy != nullptr &&
                    "checkpoint carries policy state but no policy was passed");
    COLDSTART_CHECK(policy->RestorePolicyState(r.Str()));
  } else {
    COLDSTART_CHECK(policy == nullptr &&
                    "checkpoint has no policy state but a policy was passed");
  }
  RestoreSinkState(streaming, store, aggregates, r);
  platform.RestoreCheckpointState(r, std::move(stream));
  COLDSTART_CHECK(r.AtEnd());
  return meta.day;
}

// Serializes manifest updates across shard threads: each Commit writes the
// shard's checkpoint file, installs its manifest entry, and atomically
// rewrites the manifest — so the manifest always names fully committed files.
// Entries are kept sorted by shard id, so the manifest's bytes do not depend
// on which shard thread committed first.
class CheckpointCommitter {
 public:
  CheckpointCommitter(const CheckpointPolicy& policy, uint64_t fingerprint,
                      uint8_t trace_mode, uint32_t num_regions, bool sharded,
                      uint32_t shards_per_region)
      : policy_(policy) {
    manifest_.fingerprint = fingerprint;
    manifest_.trace_mode = trace_mode;
    manifest_.num_regions = num_regions;
    manifest_.sharded = sharded;
    manifest_.shards_per_region = shards_per_region;
    std::error_code ec;
    std::filesystem::create_directories(policy.dir, ec);
  }

  // Carries forward the entries of the manifest the run resumed from, so a
  // shard that has not checkpointed again yet keeps its old entry.
  void SeedFrom(const checkpoint::Manifest& manifest) {
    manifest_.entries = manifest.entries;
    std::sort(manifest_.entries.begin(), manifest_.entries.end(), ShardLess);
  }

  void Commit(int64_t day, uint32_t shard, const std::string& payload) {
    checkpoint::CheckpointMeta meta;
    meta.fingerprint = manifest_.fingerprint;
    meta.trace_mode = manifest_.trace_mode;
    meta.shard = shard;
    meta.day = day;
    meta.num_regions = manifest_.num_regions;
    const std::string file = checkpoint::CheckpointFileName(day, shard);
    COLDSTART_CHECK(
        checkpoint::WriteCheckpointFile(policy_.dir + "/" + file, meta, payload) &&
        "failed to write checkpoint file");
    std::string superseded;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const checkpoint::ManifestEntry entry{shard, day, file};
      auto it = std::lower_bound(manifest_.entries.begin(), manifest_.entries.end(),
                                 entry, ShardLess);
      if (it != manifest_.entries.end() && it->shard == shard) {
        it->day = day;
        superseded = std::exchange(it->file, file);
      } else {
        manifest_.entries.insert(it, entry);
      }
      COLDSTART_CHECK(checkpoint::WriteManifest(policy_.dir, manifest_) &&
                      "failed to write checkpoint manifest");
    }
    // The durable manifest no longer names the shard's previous file, so a
    // crash from here on resumes from the new one; drop the old one.
    if (!superseded.empty() && superseded != file) {
      std::error_code ec;
      std::filesystem::remove(policy_.dir + "/" + superseded, ec);
    }
    if (policy_.on_checkpoint) {
      policy_.on_checkpoint(day, shard);
    }
  }

 private:
  static bool ShardLess(const checkpoint::ManifestEntry& a,
                        const checkpoint::ManifestEntry& b) {
    return a.shard < b.shard;
  }

  const CheckpointPolicy& policy_;
  checkpoint::Manifest manifest_;
  std::mutex mu_;
};

// Runs one shard from its start day to the horizon. With a CheckpointPolicy,
// execution is split at day boundaries — provably equivalent to one long
// RunUntil (docs/determinism.md "Checkpoint contract") — and `commit` fires at
// the configured cadence. Returns -1 on completion (Finalize ran), else the
// boundary where the stop flag ended the run (a checkpoint was committed).
int64_t RunShardDays(sim::Simulator& sim, platform::Platform& platform,
                     SimTime horizon, int64_t start_day,
                     const CheckpointPolicy* checkpoint,
                     const std::function<void(int64_t)>& commit) {
  if (checkpoint != nullptr) {
    const int every = checkpoint->every_n_days > 0 ? checkpoint->every_n_days : 1;
    for (int64_t day = start_day + 1; day * kDay < horizon; ++day) {
      sim.RunUntil(day * kDay - 1);
      const bool stop = checkpoint->stop != nullptr &&
                        checkpoint->stop->load(std::memory_order_relaxed);
      if (stop || day % every == 0) {
        commit(day);
      }
      if (stop) {
        return day;
      }
    }
  }
  sim.RunUntil(horizon);
  platform.Finalize();
  return -1;
}

const checkpoint::ManifestEntry* FindEntry(const checkpoint::Manifest* manifest,
                                           uint32_t shard) {
  if (manifest == nullptr) {
    return nullptr;
  }
  for (const checkpoint::ManifestEntry& e : manifest->entries) {
    if (e.shard == shard) {
      return &e;
    }
  }
  return nullptr;
}

// Entries are matched by linear (shard, day) scan, so a stale entry — written
// under a different shard geometry, or duplicated by a corrupt merge — would
// silently restore the wrong state slice. Reject the whole manifest loudly
// instead: every entry must name a shard inside the run's regions × K id
// space (or kSerialShard for a serial manifest), exactly once.
void ValidateManifestEntries(const checkpoint::Manifest& manifest,
                             size_t num_regions) {
  const uint64_t limit =
      static_cast<uint64_t>(num_regions) * manifest.shards_per_region;
  std::vector<uint32_t> seen;
  seen.reserve(manifest.entries.size());
  for (const checkpoint::ManifestEntry& e : manifest.entries) {
    if (manifest.sharded) {
      COLDSTART_CHECK(e.shard < limit &&
                      "manifest entry names a shard outside regions x "
                      "shards_per_region (stale entry from a different K?)");
    } else {
      COLDSTART_CHECK(e.shard == checkpoint::kSerialShard &&
                      "serial manifest carries a sharded entry");
    }
    COLDSTART_CHECK(std::find(seen.begin(), seen.end(), e.shard) == seen.end() &&
                    "manifest lists the same shard twice");
    seen.push_back(e.shard);
  }
  COLDSTART_CHECK((manifest.sharded || !seen.empty()) &&
                  "serial manifest has no entry");
}

// How one run splits into shards. Sharded: regions × k shards, shard s owning
// region s / k and cell group s % k, running its own clone of the policy and
// checkpointing under id s. Whole: one shard that owns every region, runs the
// caller's policy instance and checkpoints under kSerialShard.
struct ShardPlan {
  bool sharded = false;
  uint32_t k = 1;  // Shards per region.
  // One per shard, when sharded with a policy; empty otherwise.
  std::vector<std::unique_ptr<platform::PlatformPolicy>> clones;
};

// The one planner behind Run, ResumeFrom and CanShard. A resume adopts the
// manifest's geometry verbatim: shard ids must line up with its entries. A
// fresh run shards only with more than one thread. K == 1 is plain region
// sharding — the only geometry open to capacity-coupled policies, since
// splitting a region's cells also splits its pools and load state. K > 1
// (sub-region sharding) engages only when the scenario decomposes (cells > 1)
// and the policy never reads region-coupled state (is_function_local), and
// sizes itself to the thread budget: just enough groups per region to keep
// `threads` workers busy. A sharded plan runs one policy clone per shard (the
// caller's instance is only the configuration prototype); a policy that cannot
// clone runs as the whole shard — same results, one thread.
ShardPlan PlanShards(const ScenarioConfig& config, platform::PlatformPolicy* policy,
                     int threads, const checkpoint::Manifest* resume) {
  ShardPlan plan;
  const size_t regions = config.profiles.size();
  const uint32_t cells = std::max<uint32_t>(config.cells_per_region, 1u);
  const bool region_local = policy == nullptr || policy->is_region_local();
  const bool function_local = policy == nullptr || policy->is_function_local();
  // A single-region scenario can only shard along the cell axis, which further
  // requires the policy to be function-local.
  const bool shardable =
      region_local && (regions > 1 || (cells > 1 && function_local));
  if (resume != nullptr) {
    if (!resume->sharded) {
      return plan;
    }
    COLDSTART_CHECK(shardable &&
                    "sharded checkpoint requires a shardable config and policy");
    plan.k = resume->shards_per_region;
  } else if (threads <= 1 || !shardable) {
    return plan;
  } else if (cells > 1 && function_local) {
    const uint32_t want = static_cast<uint32_t>(
        (static_cast<size_t>(threads) + regions - 1) / regions);
    plan.k = std::min(cells, std::max<uint32_t>(want, 1u));
  }
  COLDSTART_CHECK((plan.k == 1 || function_local) &&
                  "sub-region (K > 1) geometry with a policy that reads "
                  "region-coupled state");
  if (policy != nullptr) {
    plan.clones.resize(regions * plan.k);
    for (auto& clone : plan.clones) {
      clone = policy->CloneForShard();
      if (clone == nullptr) {
        COLDSTART_CHECK(resume == nullptr &&
                        "sharded checkpoint requires a shard-clonable policy");
        return ShardPlan();
      }
    }
  }
  plan.sharded = true;
  return plan;
}

// The trace cache's blob: the per-region platform counters, the event count
// and the cost ledger, i.e. everything a cache hit restores besides the store.
void SaveCachedCounters(ByteWriter& w, const ExperimentResult& result) {
  w.U64(result.visible_cold_starts.size());
  for (const std::vector<int64_t>* series : CounterSeries(result)) {
    for (const int64_t v : *series) {
      w.I64(v);
    }
  }
  w.U64(result.events_processed);
  result.cost_ledger.SaveState(w);
}

// Returns false when the blob is empty, covers another region count, or has
// bytes left over.
bool RestoreCachedCounters(ByteReader& r, size_t regions, ExperimentResult* result) {
  if (r.Remaining() < sizeof(uint64_t) || r.U64() != regions) {
    return false;
  }
  ResizeStats(*result, regions);
  for (std::vector<int64_t>* series : CounterSeries(*result)) {
    for (int64_t& v : *series) {
      v = r.I64();
    }
  }
  result->events_processed = r.U64();
  result->cost_ledger.RestoreState(r);
  return r.AtEnd();
}

}  // namespace

bool Experiment::CanShard(platform::PlatformPolicy* policy) const {
  // Any budget above one thread: the plan then shards whenever it can.
  return PlanShards(config_, policy, /*threads=*/2, nullptr).sharded;
}

ExperimentResult Experiment::Run(platform::PlatformPolicy* policy,
                                 int num_threads,
                                 const CheckpointPolicy* checkpoint) const {
  return RunShards(policy, num_threads, checkpoint);
}

ExperimentResult Experiment::ResumeFrom(const std::string& dir,
                                        platform::PlatformPolicy* policy,
                                        int num_threads,
                                        const CheckpointPolicy* checkpoint) const {
  checkpoint::Manifest manifest;
  COLDSTART_CHECK(checkpoint::ReadManifest(dir, &manifest) &&
                  "no checkpoint manifest in the resume directory");
  // The resumed run must be the checkpointed run: same fingerprint (config,
  // workload, trace mode) and region count. Anything else diverges silently.
  COLDSTART_CHECK_EQ(manifest.fingerprint, config_.Fingerprint());
  COLDSTART_CHECK_EQ(manifest.trace_mode,
                     static_cast<uint8_t>(config_.trace_mode));
  COLDSTART_CHECK_EQ(manifest.num_regions, config_.profiles.size());
  COLDSTART_CHECK_GE(manifest.shards_per_region, 1u);
  COLDSTART_CHECK_LE(manifest.shards_per_region,
                     std::max<uint32_t>(config_.cells_per_region, 1u));
  ValidateManifestEntries(manifest, config_.profiles.size());
  // The planner follows the manifest, and honors num_threads as given: the
  // shard loop runs correctly on one worker (shards execute sequentially), so
  // an explicit num_threads=1 must not be silently promoted to 2.
  return RunShards(policy, num_threads, checkpoint, &manifest, dir);
}

ExperimentResult Experiment::RunShards(platform::PlatformPolicy* policy,
                                       int num_threads,
                                       const CheckpointPolicy* checkpoint,
                                       const checkpoint::Manifest* resume,
                                       const std::string& resume_dir) const {
  const int threads =
      num_threads > 0 ? num_threads : ParallelSweep::DefaultThreads();
  const ShardPlan plan = PlanShards(config_, policy, threads, resume);
  const size_t regions = config_.profiles.size();
  const uint32_t cells = std::max<uint32_t>(config_.cells_per_region, 1u);
  const uint32_t k = plan.k;
  const size_t num_shards = plan.sharded ? regions * k : 1;

  // LINT-ALLOW(wall-clock): diagnostics-only wall timing for sim_wall_seconds; never reaches traces or aggregates
  const auto wall_start = std::chrono::steady_clock::now();

  ExperimentResult result;
  result.mode = config_.trace_mode;
  const bool streaming = config_.trace_mode == TraceMode::kStreaming;
  const workload::Calendar calendar = config_.MakeCalendar();
  const std::vector<workload::RegionProfile> profiles = config_.ScaledProfiles();
  COLDSTART_CHECK_EQ(profiles.size(), regions);

  // Workload generation is shared only through immutable inputs: every shard
  // simulates against the same population (read-only) and opens its *own*
  // arrival stream — synthetic or replayed, the runner does not care. The
  // per-shard streams partition the whole shard's stream with relative order
  // preserved (the ArrivalStream contract), so nothing is materialized or
  // repartitioned up front: each shard pulls one day of its slice's arrivals at
  // a time.
  result.population = workload::GeneratePopulation(profiles, config_.seed);
  const std::shared_ptr<const std::vector<uint32_t>> function_cells =
      MakeFunctionCells(config_, result.population);

  // One sink per shard; each shard also has its own simulator and platform.
  // Shards share only immutable inputs, so they are free of data races by
  // construction; the TSan job pins that. Region stat rows can be written by up
  // to K shards, so each shard folds its stats into `result` under `fold_mu`.
  struct ShardSink {
    trace::TraceStore store;                  // kFull.
    trace::StreamingAggregates streaming;     // kStreaming.
  };
  std::vector<ShardSink> shards(num_shards);
  ResizeStats(result, regions);
  std::mutex fold_mu;
  const ScenarioConfig& config = config_;
  const workload::Population& population = result.population;
  const uint64_t fingerprint = config_.Fingerprint();

  std::optional<CheckpointCommitter> committer;
  if (checkpoint != nullptr) {
    COLDSTART_CHECK(!checkpoint->dir.empty());
    committer.emplace(*checkpoint, fingerprint,
                      static_cast<uint8_t>(config_.trace_mode),
                      static_cast<uint32_t>(regions), plan.sharded, k);
    if (resume != nullptr) {
      committer->SeedFrom(*resume);
    }
  }

  // A single job runs inline, so the whole shard stays on the calling thread.
  ParallelSweep sweep(threads);
  for (size_t s = 0; s < num_shards; ++s) {
    sweep.Add([&, s] {
      const uint32_t id =
          plan.sharded ? static_cast<uint32_t>(s) : checkpoint::kSerialShard;
      platform::PlatformPolicy* shard_policy =
          plan.clones.empty() ? policy : plan.clones[s].get();
      trace::TraceSink& sink =
          streaming ? static_cast<trace::TraceSink&>(shards[s].streaming)
                    : static_cast<trace::TraceSink&>(shards[s].store);
      const checkpoint::ManifestEntry* entry = FindEntry(resume, id);
      platform::Platform::Options options = PlatformOptions(config);
      options.function_cells = function_cells;
      options.resuming = entry != nullptr;
      sim::Simulator sim;
      platform::Platform platform(population, profiles, calendar, sim,
                                  sink, options, shard_policy);
      // The whole shard reads the unfiltered stream. A sharded K == 1 shard
      // filters by region, the legacy per-region partition. K > 1: the
      // region's cells split into K contiguous groups — group g simulates
      // cells [g * cells / K, (g + 1) * cells / K).
      std::optional<trace::RegionId> region;
      std::optional<workload::CellSlice> slice;
      if (plan.sharded) {
        region = static_cast<trace::RegionId>(s / k);
        const uint32_t group = static_cast<uint32_t>(s % k);
        if (k > 1) {
          slice = workload::CellSlice{function_cells, group * cells / k,
                                      (group + 1) * cells / k};
        }
      }
      auto stream = config.workload_source().OpenStream(
          population, profiles, calendar, config.seed, region, slice);
      int64_t start_day = 0;
      if (entry != nullptr) {
        start_day = RestoreShard(resume_dir, *entry, fingerprint,
                                 static_cast<uint8_t>(config.trace_mode),
                                 static_cast<uint32_t>(regions), id, sim,
                                 shard_policy, streaming, shards[s].store,
                                 shards[s].streaming, platform, std::move(stream));
      } else {
        platform.AttachArrivalStream(std::move(stream));
      }
      std::function<void(int64_t)> commit;
      if (checkpoint != nullptr) {
        commit = [&, s](int64_t day) {
          committer->Commit(day, id,
                            BuildCheckpointPayload(sim, shard_policy, streaming,
                                                   shards[s].store,
                                                   shards[s].streaming, platform));
        };
      }
      // The stop flag is global, but shards notice it at their own next day
      // boundary, so an interrupted run's shards may rest at different days —
      // each shard's manifest entry records its own.
      const int64_t stop_day = RunShardDays(sim, platform, calendar.horizon(),
                                            start_day, checkpoint, commit);
      // On the shard's own thread, after its last checkpoint commit, interrupted or not.
      shards[s].store.Seal();
      // This platform only ever saw its own shard's arrivals, so its region
      // rows hold exactly this shard's contribution. Integer (and 128-bit
      // fixed-point) adds: fold order cannot change the sums, so the folded
      // stats and ledger match at any thread count, bit for bit.
      const std::lock_guard<std::mutex> lock(fold_mu);
      const size_t first = plan.sharded ? s / k : 0;
      const size_t last = plan.sharded ? first + 1 : regions;
      for (size_t r = first; r < last; ++r) {
        CollectRegionStats(platform, static_cast<trace::RegionId>(r), result);
      }
      result.cost_ledger.MergeFrom(platform.cost_ledger());
      result.events_processed += sim.events_processed();
      result.interrupted_at_day = std::max(result.interrupted_at_day, stop_day);
    });
  }
  sweep.Run();

  // Fold shard counters back into the caller's prototype so policy statistics
  // (prewarms_issued() and friends) read the same whether the run sharded or not.
  for (const auto& clone : plan.clones) {
    policy->AbsorbShardStats(*clone);
  }

  // Deterministic merge. kFull: every shard emitted the identical function table
  // and sealed its event tables into the canonical (time, region, id) order, which
  // is total, so the merged store is byte-identical to the whole shard's
  // regardless of shard scheduling or geometry. kStreaming: shard aggregates fold
  // in shard-id order; every accumulator is a sum, count, max, or fixed-point
  // total — associative and commutative — so any partition of the whole shard's
  // record sequence merges to the identical aggregates at any thread count and
  // any K.
  if (streaming) {
    result.streaming = std::move(shards[0].streaming);
    for (size_t s = 1; s < num_shards; ++s) {
      result.streaming.MergeFrom(shards[s].streaming);
    }
    result.store.Seal();  // Empty: a streaming run keeps no records.
  } else {
    std::vector<trace::TraceStore> parts;
    for (ShardSink& shard : shards) {
      parts.push_back(std::move(shard.store));
    }
    result.store = trace::TraceStore::MergeSealed(std::move(parts));
  }

  result.sim_wall_seconds =
      // LINT-ALLOW(wall-clock): diagnostics-only wall timing for sim_wall_seconds; never reaches traces or aggregates
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return result;
}

WorkloadStream OpenWorkloadStream(const ScenarioConfig& config) {
  WorkloadStream ws;
  const workload::Calendar calendar = config.MakeCalendar();
  const std::vector<workload::RegionProfile> profiles = config.ScaledProfiles();
  ws.population = workload::GeneratePopulation(profiles, config.seed);
  ws.arrivals = config.workload_source().OpenStream(ws.population, profiles,
                                                    calendar, config.seed);
  return ws;
}

std::string Experiment::DefaultCacheDir() {
  return ParseEnvString("COLDSTART_CACHE_DIR", "coldstart_cache");
}

ExperimentResult Experiment::RunCached(const std::string& cache_dir,
                                       platform::PlatformPolicy* policy) const {
  // Policy runs must use Run(): a policy changes the emitted trace, and caching it
  // under the baseline fingerprint would silently poison every later baseline read.
  COLDSTART_CHECK(policy == nullptr && "RunCached is baseline-only; use Run(policy)");
  // The cache persists full traces; a streaming run has no store to cache.
  COLDSTART_CHECK(config_.trace_mode == TraceMode::kFull &&
                  "RunCached requires TraceMode::kFull");
  namespace fs = std::filesystem;
  // v7 filename scheme, bumped with the fingerprint salt or the file format:
  // v6 folded the per-profile cold-start model selection into the fingerprint
  // and persisted the resource-cost ledger; v7 moved the file into the common
  // frame. Files written under older schemes are never picked up.
  char name[64];
  std::snprintf(name, sizeof(name), "scenario_v7_%016" PRIx64 ".bin",
                config_.Fingerprint());
  const std::string path = (fs::path(cache_dir) / name).string();

  {
    ExperimentResult cached;
    std::string counters;
    if (trace::ReadBinaryTrace(path, cached.store, &counters)) {
      ByteReader r(counters);
      if (RestoreCachedCounters(r, config_.profiles.size(), &cached)) {
        cached.store.Seal();
        cached.from_cache = true;
        return cached;
      }
    }
    // Missing, corrupt or stale-format cache: run fresh and rewrite it.
  }

  ExperimentResult result = Run(nullptr);
  std::error_code ec;
  fs::create_directories(cache_dir, ec);
  ByteWriter counters;
  SaveCachedCounters(counters, result);
  if (!trace::WriteBinaryTrace(result.store, path, counters.data())) {
    std::fprintf(stderr, "warning: failed to write trace cache at %s\n", path.c_str());
  }
  return result;
}

}  // namespace coldstart::core
