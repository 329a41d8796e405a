#include "platform/platform.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "platform/provider_models.h"

namespace coldstart::platform {

using trace::ColdStartRecord;
using trace::FunctionId;
using trace::PodId;
using trace::RegionId;
using workload::FunctionSpec;

namespace {

// Smallest b with (1 << b) >= n; 0 for n == 1.
uint32_t CeilLog2(uint32_t n) {
  uint32_t bits = 0;
  while ((uint32_t{1} << bits) < n) {
    ++bits;
  }
  return bits;
}

}  // namespace

Platform::Platform(const workload::Population& population,
                   const std::vector<workload::RegionProfile>& profiles,
                   const workload::Calendar& calendar, sim::Simulator& sim,
                   trace::TraceSink& sink, Options options, PlatformPolicy* policy)
    : population_(population),
      profiles_(profiles),
      calendar_(calendar),
      sim_(sim),
      sink_(sink),
      options_(options),
      policy_(policy),
      arrival_cursor_(this) {
  COLDSTART_CHECK(!profiles_.empty());
  // One independent substream, pod-id namespace, and request-id namespace per
  // (region, cell): a cell's draw sequence must not depend on what other cells
  // (or regions) do, or a sub-region sharded run could not reproduce the serial
  // run. The pod-id region field holds indices 0 .. 2^(32-shift) - 1, so
  // exactly 2^(32-shift) regions fit.
  COLDSTART_CHECK_LE(profiles_.size(),
                     static_cast<size_t>(1) << (32 - kPodIdRegionShift));
  cells_ = options_.cells_per_region;
  COLDSTART_CHECK_GE(cells_, 1u);
  if (cells_ > 1) {
    COLDSTART_CHECK(options_.function_cells != nullptr);
    COLDSTART_CHECK_EQ(options_.function_cells->size(),
                       population_.functions.size());
  }
  cell_bits_ = CeilLog2(cells_);
  COLDSTART_CHECK_LT(cell_bits_, static_cast<uint32_t>(kPodIdRegionShift));
  pod_seq_bits_ = static_cast<uint32_t>(kPodIdRegionShift) - cell_bits_;
  pod_seq_mask_ = (trace::PodId{1} << pod_seq_bits_) - 1;
  const uint64_t rng_base = MixHash(options.seed, HashString("platform"));
  const size_t num_states = profiles_.size() * cells_;
  rngs_.reserve(num_states);
  for (size_t r = 0; r < profiles_.size(); ++r) {
    if (cells_ == 1) {
      // The legacy per-region stream, bit for bit (the golden digest pins it).
      rngs_.emplace_back(MixHash(rng_base, r));
    } else {
      for (uint32_t c = 0; c < cells_; ++c) {
        rngs_.emplace_back(MixHash(MixHash(rng_base, r), c));
      }
    }
  }
  next_pod_seq_.assign(num_states, 0);
  next_request_seq_.assign(num_states, 0);
  models_.reserve(num_states);
  pools_.reserve(num_states);
  for (const auto& profile : profiles_) {
    for (uint32_t cell = 0; cell < cells_; ++cell) {
      // One model instance per cell (not per region): any mutable model state is
      // cell-scoped, so serial and sub-region-sharded runs accumulate it
      // identically. Stateless models make the per-cell copies indistinguishable
      // from the old one-pipeline-per-region layout.
      models_.push_back(MakeColdStartModel(profile, calendar_));
      std::vector<ResourcePool> cell_pools;
      cell_pools.reserve(trace::kNumResourceConfigs);
      for (int c = 0; c < trace::kNumResourceConfigs; ++c) {
        const int base = profile.pool_base_size[static_cast<size_t>(c)];
        // Cells split the region's pool capacity without losing a unit to
        // rounding: cell k of C gets base*(k+1)/C - base*k/C (the whole base at
        // C == 1). Refill splits as an exact double division (x / 1.0 == x).
        const int target =
            base * static_cast<int>(cell + 1) / static_cast<int>(cells_) -
            base * static_cast<int>(cell) / static_cast<int>(cells_);
        cell_pools.emplace_back(target, profile.pool_refill_per_min / cells_);
      }
      pools_.push_back(std::move(cell_pools));
    }
  }
  loads_.resize(num_states);
  visible_cold_starts_.assign(profiles_.size(), 0);
  cold_start_latency_sum_us_.assign(profiles_.size(), 0);
  cost_ledger_ = ResourceCostLedger(profiles_.size());
  states_.resize(population_.functions.size());

  // Function-level table (one row per function, like the paper's third stream).
  // A resuming platform skips the emission: the restored sink already holds it.
  if (!options_.resuming) {
    for (const auto& f : population_.functions) {
      trace::FunctionRecord rec;
      rec.function_id = f.id;
      rec.user_id = f.user;
      rec.region = f.region;
      rec.runtime = f.runtime;
      rec.primary_trigger = f.primary_trigger;
      rec.trigger_mask = f.trigger_mask;
      rec.config = f.config;
      sink_.OnFunction(rec);
    }
  }

  if (policy_ != nullptr) {
    policy_->OnAttach(*this);
    // The minute tick is a platform Event: one seq here, then one per tick,
    // taken after the tick body has run. A resuming platform gets its pending
    // tick back from the checkpoint instead.
    if (!options_.resuming && calendar_.horizon() > 0) {
      Schedule(0, {.kind = Event::Kind::kPolicyTick});
    }
  }
}

void Platform::Schedule(SimTime t, Event e) {
  e.platform = this;
  sim_.ScheduleAt(t, e);
}

void Platform::Event::operator()() const {
  Platform& p = *platform;
  switch (kind) {
    case Kind::kDayStart:
      p.OpenDayChunk(arg);
      return;
    case Kind::kPolicyTick:
      p.RunPolicyTick();
      return;
    case Kind::kLoadDecrement:
      p.RunLoadDecrement(static_cast<size_t>(arg), flag);
      return;
    case Kind::kKeepAlive:
      p.RunKeepAlive(pod, static_cast<uint64_t>(arg));
      return;
    case Kind::kCompletion:
      // The completion is queued at its exec end.
      p.OnRequestComplete(pod, arg, p.sim_.now(), exec_us,
                          p.population_.functions[function]);
      return;
    case Kind::kInvoke:
      p.HandleArrival(function, flag);
      return;
    case Kind::kPrewarm:
      p.RunPrewarm(function, arg);
      return;
  }
}

void Platform::RunPolicyTick() {
  // The body runs first and the next tick takes its seq afterwards, so events
  // the body queues order ahead of it.
  policy_->OnMinuteTick(sim_.now());
  const SimTime next = sim_.now() + kMinute;
  if (next < calendar_.horizon()) {
    Schedule(next, {.kind = Event::Kind::kPolicyTick});
  }
}

Platform::~Platform() {
  if (source_attached_) {
    sim_.AttachSource(nullptr);
  }
}

void Platform::ArrivalCursor::Open(size_t count, uint64_t seq_base) {
  // Day batches never overlap: every arrival of the previous day is strictly
  // earlier than the next day's starter event.
  COLDSTART_CHECK_EQ(next_, limit_);
  next_ = 0;
  limit_ = count;
  seq_base_ = seq_base;
}

bool Platform::ArrivalCursor::Head(SimTime* time, uint64_t* seq) {
  if (next_ == limit_) {
    return false;
  }
  *time = platform_->chunk_.events[next_].time;
  *seq = seq_base_ + next_;
  return true;
}

void Platform::ArrivalCursor::RunHead() {
  const workload::ArrivalEvent* events = platform_->chunk_.events.data();
  const workload::ArrivalEvent& arrival = events[next_];
  // The stream contract requires sorted arrivals (the old per-arrival closures
  // re-ordered them through the queue; the cursor replays them as-is). Fail
  // loudly rather than silently rewinding the clock.
  COLDSTART_CHECK_GE(arrival.time, last_time_);
  last_time_ = arrival.time;
  if (!platform_->options_.batched_arrivals) {
    ++next_;
    platform_->HandleArrival(arrival.function, false);
    return;
  }
  // Batched drain: dispatch the whole same-timestamp run in one call. The day
  // chunk's seq range is contiguous and reserved at the day starter, so every
  // queued event at this timestamp has a seq strictly below the run's first
  // arrival (it already fired) or strictly above its last (it fires after) —
  // no queued event can interleave, and nothing the run itself schedules lands
  // at the same instant (all platform delays are > 0). See docs/determinism.md.
  const size_t begin = next_;
  size_t end = begin + 1;
  while (end < limit_ && events[end].time == arrival.time) {
    ++end;
  }
  next_ = end;
  platform_->HandleArrivalRun(events + begin, end - begin);
  // The simulator counted this RunHead as one event; account for the rest of
  // the run so events_processed matches the per-event path.
  platform_->sim_.AddProcessedEvents(end - begin - 1);
}

void Platform::OpenDayChunk(int64_t day) {
  if (arrival_stream_ == nullptr || !arrival_stream_->NextChunk(&chunk_)) {
    chunk_.events.clear();
    return;  // Exhausted stream: the remaining starters are no-ops.
  }
  // Contract checks are O(1) per day: chunks arrive in day order and their
  // (sorted) events lie inside the day window — a violation would corrupt the
  // (time, seq) total order, so fail loudly here rather than deep in the run.
  COLDSTART_CHECK_EQ(chunk_.day, day);
  if (chunk_.events.empty()) {
    return;
  }
  COLDSTART_CHECK_GE(chunk_.events.front().time, day * kDay);
  COLDSTART_CHECK_LT(chunk_.events.back().time,
                     std::min<SimTime>((day + 1) * kDay, calendar_.horizon()));
  arrival_cursor_.Open(chunk_.events.size(),
                       sim_.ReserveSeqRange(chunk_.events.size()));
}

void Platform::AttachArrivalStream(std::unique_ptr<workload::ArrivalStream> stream) {
  // Arrivals flow through the attached cursor one day-batch at a time: each
  // starter event pulls its day's chunk and reserves the batch's contiguous seq
  // range (the same sequence numbers per-arrival closures would have consumed),
  // so a year of arrivals costs one live chunk plus one starter per day instead
  // of one queued closure per arrival. Scheduling every starter up front (at
  // attach time) keeps starter seq numbers below every run-time event's, exactly
  // like the eagerly scheduled batches they replace — see docs/determinism.md.
  COLDSTART_CHECK(arrival_stream_ == nullptr && !source_attached_);
  arrival_stream_ = std::move(stream);
  if (arrival_stream_ == nullptr) {
    return;
  }
  const SimTime horizon = calendar_.horizon();
  bool any = false;
  for (int64_t day = 0; day * kDay < horizon; ++day) {
    // Wake exactly at the day boundary (covers the t=0 first arrival: day_start
    // is never negative). Anchoring the batch's seq reservation at day start —
    // rather than at "first arrival - 1", which depends on which regions the
    // stream contains — keeps the (time, seq) interleaving of arrivals and
    // handler-scheduled events identical between the serial run and per-region
    // shards.
    Schedule(day * kDay, {.kind = Event::Kind::kDayStart, .arg = day});
    any = true;
  }
  if (any) {
    sim_.AttachSource(&arrival_cursor_);
    source_attached_ = true;
  }
}

const workload::FunctionSpec& Platform::spec(FunctionId function) const {
  return population_.functions.at(function);
}

ResourcePool& Platform::pool(RegionId region, trace::ResourceConfig config) {
  // Capacity-coupled policies see one pool per region; cells > 1 would make
  // this accessor ambiguous, and such policies pin their runs to one cell.
  COLDSTART_CHECK_EQ(cells_, 1u);
  return pools_.at(region).at(static_cast<size_t>(config));
}

const RegionLoadState& Platform::load(RegionId region) const {
  COLDSTART_CHECK_EQ(cells_, 1u);
  return loads_.at(region);
}

bool Platform::HasAvailablePod(FunctionId function) const {
  const int concurrency = population_.functions.at(function).pod_concurrency;
  for (const Pod* pod : states_[function].pods) {
    if (hot(*pod).slots_used < concurrency) {
      return true;
    }
  }
  return false;
}

int Platform::alive_pod_count(FunctionId function) const {
  return static_cast<int>(states_.at(function).pods.size());
}

int64_t Platform::cold_starts(RegionId region) const {
  return visible_cold_starts_.at(region);
}

int64_t Platform::total_cold_starts() const {
  int64_t total = 0;
  for (const int64_t c : visible_cold_starts_) {
    total += c;
  }
  return total;
}

int64_t Platform::cold_start_latency_sum_us(RegionId region) const {
  return cold_start_latency_sum_us_.at(region);
}

uint64_t Platform::pods_created() const {
  uint64_t total = 0;
  for (const trace::PodId seq : next_pod_seq_) {
    total += seq;
  }
  return total;
}

trace::PodId Platform::NewPodId(RegionId region, uint32_t cell) {
  const trace::PodId seq = next_pod_seq_[StateIndex(region, cell)]++;
  // Strict: the last (region, cell, seq) combination would collide with
  // kInvalidPod. At cells_ == 1 this is the legacy region | seq layout exactly.
  COLDSTART_CHECK_LT(seq, pod_seq_mask_);
  return (static_cast<trace::PodId>(region) << kPodIdRegionShift) |
         (static_cast<trace::PodId>(cell) << pod_seq_bits_) | seq;
}

int64_t Platform::scratch_allocations(RegionId region) const {
  int64_t total = 0;
  for (uint32_t cell = 0; cell < cells_; ++cell) {
    for (const auto& pool : pools_.at(StateIndex(region, cell))) {
      total += pool.scratch_count();
    }
  }
  return total;
}

int64_t Platform::prewarm_spawns(RegionId region) const {
  int64_t total = 0;
  for (uint32_t cell = 0; cell < cells_; ++cell) {
    total += loads_.at(StateIndex(region, cell)).prewarm_spawns;
  }
  return total;
}

int64_t Platform::delayed_allocations(RegionId region) const {
  int64_t total = 0;
  for (uint32_t cell = 0; cell < cells_; ++cell) {
    total += loads_.at(StateIndex(region, cell)).delayed_allocations;
  }
  return total;
}

Pod* Platform::FindPodWithSlot(FunctionState& state, int concurrency,
                               SimTime now) const {
  // The scan touches only the SoA hot entries: `concurrency` is hoisted by the
  // caller, so no per-pod spec lookup, and the cold Pod fields stay untouched.
  Pod* best_warm = nullptr;
  Pod* best_warming = nullptr;
  SimTime best_warm_lru = 0;
  SimTime best_warming_ready = 0;
  for (Pod* pod : state.pods) {
    const PodHot& h = hot(*pod);
    if (h.slots_used >= concurrency) {
      continue;
    }
    if (h.ready_time <= now) {
      // Prefer the warm pod that has been idle longest (LRU keeps the fleet compact).
      if (best_warm == nullptr || h.last_busy_end < best_warm_lru) {
        best_warm = pod;
        best_warm_lru = h.last_busy_end;
      }
    } else if (best_warming == nullptr || h.ready_time < best_warming_ready) {
      best_warming = pod;
      best_warming_ready = h.ready_time;
    }
  }
  return best_warm != nullptr ? best_warm : best_warming;
}

trace::ClusterId Platform::PickCluster(const FunctionSpec& spec,
                                       const FunctionState& state, RegionId region) {
  if (spec.single_cluster) {
    return spec.home_cluster;
  }
  // Hash-affinity with power-of-two spillover: compare the home cluster against one
  // random alternative and place the pod where this function has fewer pods (§2.1's
  // "balance traffic between clusters, starting pods in a new cluster").
  const trace::ClusterId alt = static_cast<trace::ClusterId>(
      (spec.home_cluster + 1 +
       rng(region, CellOf(spec.id)).NextBounded(trace::kClustersPerRegion - 1)) %
      trace::kClustersPerRegion);
  int home_count = 0;
  int alt_count = 0;
  for (const Pod* pod : state.pods) {
    if (pod->region != region) {
      continue;
    }
    if (pod->cluster == spec.home_cluster) {
      ++home_count;
    } else if (pod->cluster == alt) {
      ++alt_count;
    }
  }
  return home_count <= alt_count ? spec.home_cluster : alt;
}

Pod* Platform::StartColdStart(const FunctionSpec& spec, RegionId region, bool prewarmed,
                              SimDuration extra_sched_us) {
  const SimTime now = sim_.now();
  FunctionState& state = states_[spec.id];
  const uint32_t cell = CellOf(spec.id);
  const size_t idx = StateIndex(region, cell);
  RegionLoadState& load = loads_[idx];

  ResourcePool& pool = pools_[idx][static_cast<size_t>(spec.config)];
  load.ObserveColdStart(now);  // The event contributes to its own congestion window.
  ColdStartComponents comp =
      models_[idx]->Compute(spec, pool, load, now, rng(region, cell));
  comp.scheduling += extra_sched_us;
  if (comp.from_scratch) {
    cost_ledger_.AddScratchCreation(region);
  }

  auto [pod, handle] = pod_slab_.Allocate();
  if (pod_hot_.size() < pod_slab_.capacity()) {
    pod_hot_.resize(pod_slab_.capacity());
  }
  pod->self = handle;
  pod->id = NewPodId(region, cell);
  pod->function = spec.id;
  pod->region = region;
  pod->cluster = PickCluster(spec, state, region);
  pod->config = spec.config;
  pod->cold_start_begin = now;
  pod->cold_start_us = static_cast<uint32_t>(std::min<SimDuration>(comp.total(), UINT32_MAX));
  pod->prewarmed = prewarmed;
  // Reset the slot's hot entry (it may carry a freed predecessor's values).
  PodHot& h = pod_hot_[handle.index];
  h.ready_time = now + comp.total();
  h.last_busy_end = h.ready_time;
  h.slots_used = 0;

  // Load counters stay elevated for the duration of the pipeline; the decrements are
  // what make congestion oscillate with the cold-start rate.
  ++load.active_cold_starts;
  ++load.active_code_deploys;
  const bool has_deps = spec.dep_size_kb > 0;
  if (has_deps) {
    ++load.active_dep_deploys;
  }
  Schedule(h.ready_time, {.kind = Event::Kind::kLoadDecrement,
                          .flag = has_deps,
                          .arg = static_cast<int64_t>(idx)});
  ++load.total_cold_starts;

  if (prewarmed) {
    ++load.prewarm_spawns;
  } else {
    ++visible_cold_starts_[region];
    cold_start_latency_sum_us_[region] += comp.total();
    ColdStartRecord rec;
    rec.timestamp = now;
    rec.pod_id = pod->id;
    rec.function_id = spec.id;
    rec.user_id = spec.user;
    rec.region = region;
    rec.cluster = pod->cluster;
    rec.cold_start_us = pod->cold_start_us;
    rec.pod_alloc_us = static_cast<uint32_t>(comp.pod_alloc);
    rec.deploy_code_us = static_cast<uint32_t>(comp.deploy_code);
    rec.deploy_dep_us = static_cast<uint32_t>(comp.deploy_dep);
    rec.scheduling_us = static_cast<uint32_t>(comp.scheduling);
    sink_.OnColdStart(rec);
    if (policy_ != nullptr) {
      policy_->OnColdStart(spec, now, comp.total());
    }
  }

  state.pods.push_back(pod);
  return pod;
}

void Platform::RunLoadDecrement(size_t load_index, bool has_deps) {
  RegionLoadState& l = loads_[load_index];
  --l.active_cold_starts;
  --l.active_code_deploys;
  if (has_deps) {
    --l.active_dep_deploys;
  }
}

void Platform::AssignRequest(Pod* pod, const FunctionSpec& spec, SimTime arrival) {
  PodHot& h = hot(*pod);
  const SimTime exec_start = std::max(arrival, h.ready_time);
  if (h.slots_used == 0 && exec_start > h.last_busy_end) {
    // The pod sat warm and empty from its last busy end until this request;
    // the interval is warm-idle capacity the cost ledger charges at death.
    pod->idle_us += exec_start - h.last_busy_end;
  }
  ++h.slots_used;
  // Any pending keep-alive is void: the pod is busy again.
  ++pod->keepalive_gen;
  double exec_us = std::exp(std::log(spec.exec_median_us) +
                            spec.exec_sigma *
                                rng(pod->region, CellOf(spec.id)).NextGaussian());
  exec_us = std::clamp(exec_us, 100.0, 600e6);
  const uint32_t exec = static_cast<uint32_t>(exec_us);
  const SimTime exec_end = exec_start + exec;

  Schedule(exec_end, {.kind = Event::Kind::kCompletion,
                      .function = spec.id,
                      .exec_us = exec,
                      .pod = pod->self,
                      .arg = exec_start});
}

void Platform::OnRequestComplete(SlabHandle handle, SimTime exec_start,
                                 SimTime exec_end, uint32_t exec_us,
                                 const FunctionSpec& spec) {
  Pod* pod = pod_slab_.Resolve(handle);
  COLDSTART_CHECK(pod != nullptr);  // A pod with a bound request cannot die.
  PodHot& h = hot(*pod);
  COLDSTART_CHECK_GT(h.slots_used, 0);
  --h.slots_used;
  ++pod->served;
  h.last_busy_end = std::max(h.last_busy_end, exec_end);

  // The pod's function equals spec.id here, so one cell lookup covers the id
  // mint, the resource draws, and the fan-out below.
  const uint32_t cell = CellOf(spec.id);
  const size_t idx = StateIndex(pod->region, cell);
  if (options_.record_requests) {
    trace::RequestRecord rec;
    rec.timestamp = exec_start;
    // Request ids mix a per-(region, cell) counter under a matching salt, so the
    // id stream is identical whether the cell ran alone (sharded) or alongside
    // the others. At cells_ == 1 the salt is the legacy per-region one exactly.
    uint64_t salt = MixHash(0x9e3779b9, pod->region);
    if (cells_ > 1) {
      salt = MixHash(salt, cell);
    }
    rec.request_id = MixHash(salt, next_request_seq_[idx]++);
    rec.pod_id = pod->id;
    rec.function_id = spec.id;
    rec.user_id = spec.user;
    rec.region = pod->region;
    rec.cluster = pod->cluster;
    rec.execution_time_us = exec_us;
    double cpu =
        spec.cpu_mean_cores * std::exp(0.3 * rng(pod->region, cell).NextGaussian());
    cpu = std::clamp(cpu, 0.005,
                     static_cast<double>(CpuMillicoresOf(spec.config)) / 1000.0);
    rec.cpu_millicores = static_cast<uint16_t>(cpu * 1000.0);
    double mem_kb =
        spec.mem_mean_kb * std::exp(0.25 * rng(pod->region, cell).NextGaussian());
    mem_kb = std::clamp(mem_kb, 1024.0,
                        1024.0 * static_cast<double>(MemoryMbOf(spec.config)));
    rec.memory_kb = static_cast<uint32_t>(mem_kb);
    sink_.OnRequest(rec);
  }
  ++loads_[idx].total_requests;

  // Workflow fan-out: downstream functions are invoked when the parent finishes.
  // Draws come from the parent's home-(region, cell) stream (children are wired
  // within the region and share the parent's cell by construction —
  // workload/function_cells.h — so sharded runs replay exactly this sequence).
  for (const auto& edge : spec.children) {
    Rng& fanout_rng = rng(spec.region, cell);
    if (fanout_rng.NextBool(edge.probability)) {
      const SimDuration delay = FromSeconds(fanout_rng.Uniform(0.005, 0.05));
      ScheduleInvoke(exec_end + delay, edge.child, /*delay_exempt=*/false);
    }
  }

  if (h.slots_used == 0) {
    ArmKeepAlive(pod);
  }
}

void Platform::ScheduleInvoke(SimTime t, FunctionId fid, bool delay_exempt) {
  Schedule(t, {.kind = Event::Kind::kInvoke, .flag = delay_exempt, .function = fid});
}

void Platform::RunKeepAlive(SlabHandle handle, uint64_t gen) {
  Pod* p = pod_slab_.Resolve(handle);
  if (p == nullptr) {
    return;  // Already dead (the slot's generation moved on).
  }
  if (p->keepalive_gen != gen || hot(*p).slots_used > 0) {
    return;  // Was re-used since; a newer keep-alive owns it.
  }
  KillPod(p, sim_.now());
}

void Platform::ScheduleKeepAlive(Pod* pod, SimTime t) {
  const uint64_t gen = ++pod->keepalive_gen;
  Schedule(t, {.kind = Event::Kind::kKeepAlive,
               .pod = pod->self,
               .arg = static_cast<int64_t>(gen)});
}

void Platform::ArmKeepAlive(Pod* pod) {
  const FunctionSpec& spec = population_.functions[pod->function];
  const SimDuration keep_alive = policy_ != nullptr
                                     ? policy_->KeepAliveFor(spec, sim_.now())
                                     : options_.default_keep_alive;
  ScheduleKeepAlive(pod, sim_.now() + keep_alive);
}

void Platform::KillPod(Pod* pod, SimTime death_time) {
  const FunctionSpec& spec = population_.functions[pod->function];
  const PodHot& h = hot(*pod);
  if (workload::TraitsOf(spec.runtime).pool_backed) {
    pools_[StateIndex(pod->region, CellOf(pod->function))]
          [static_cast<size_t>(pod->config)]
              .Release(death_time);
  }

  trace::PodLifetimeRecord rec;
  rec.pod_id = pod->id;
  rec.function_id = pod->function;
  rec.region = pod->region;
  rec.cluster = pod->cluster;
  rec.config = pod->config;
  rec.cold_start_begin = pod->cold_start_begin;
  rec.ready_time = h.ready_time;
  rec.last_busy_end = h.last_busy_end;
  rec.death_time = death_time;
  rec.cold_start_us = pod->cold_start_us;
  rec.requests_served = pod->served;
  sink_.OnPodLifetime(rec);

  // Resource accounting: lifetime, warm-idle total (completed intervals plus the
  // final idle tail), and the model's snapshot surcharge over the lifetime. All
  // integer µs, so the ledger's sums are order-invariant across geometries.
  const int64_t lifetime_us = death_time - pod->cold_start_begin;
  int64_t warm_idle_us = pod->idle_us;
  if (death_time > h.last_busy_end && h.slots_used == 0) {
    warm_idle_us += death_time - h.last_busy_end;
  }
  const double snapshot_mb =
      models_[StateIndex(pod->region, CellOf(pod->function))]
          ->snapshot_memory_mb_per_pod();
  cost_ledger_.AddPodDeath(pod->region, lifetime_us, warm_idle_us, snapshot_mb);

  auto& pods = states_[pod->function].pods;
  const auto it = std::find(pods.begin(), pods.end(), pod);
  COLDSTART_CHECK(it != pods.end());
  *it = pods.back();
  pods.pop_back();
  pod_slab_.Free(pod->self);
}

void Platform::HandleArrival(FunctionId fid, bool delay_exempt) {
  HandleArrivalBatch(fid, 1, delay_exempt);
}

void Platform::HandleArrivalRun(const workload::ArrivalEvent* events, size_t count) {
  // The chunk is (time, function)-sorted, so a same-timestamp run visits each
  // function's arrivals as one contiguous group — batching is free.
  size_t i = 0;
  while (i < count) {
    size_t j = i + 1;
    while (j < count && events[j].function == events[i].function) {
      ++j;
    }
    HandleArrivalBatch(events[i].function, j - i, /*delay_exempt=*/false);
    i = j;
  }
}

void Platform::HandleArrivalBatch(FunctionId fid, size_t count, bool delay_exempt) {
  // The spec/state/cell lookups are hoisted across the batch; everything else
  // runs per arrival, in order, exactly as `count` HandleArrival calls would —
  // each iteration must observe the slot/load mutations of the previous one.
  const FunctionSpec& fspec = population_.functions.at(fid);
  const SimTime now = sim_.now();
  const size_t load_idx = StateIndex(fspec.region, CellOf(fid));
  FunctionState& state = states_[fid];
  const int concurrency = fspec.pod_concurrency;

  for (size_t k = 0; k < count; ++k) {
    if (policy_ != nullptr) {
      policy_->OnArrival(fspec, now);
      if (!fspec.children.empty()) {
        policy_->OnParentRequestStart(fspec, now);
      }
      if (!delay_exempt && !trace::IsSynchronous(fspec.primary_trigger)) {
        const SimDuration delay = policy_->AdmissionDelay(fspec, now, loads_[load_idx]);
        if (delay > 0) {
          ++loads_[load_idx].delayed_allocations;
          ScheduleInvoke(now + delay, fid, /*delay_exempt=*/true);
          continue;
        }
      }
    }

    Pod* pod = FindPodWithSlot(state, concurrency, now);
    if (pod == nullptr) {
      RegionId region = fspec.region;
      SimDuration extra_sched = 0;
      if (policy_ != nullptr) {
        const RegionId routed = policy_->RouteColdStart(fspec, now);
        if (routed != fspec.region && routed < profiles_.size()) {
          region = routed;
          extra_sched = FromSeconds(profiles_[fspec.region].inter_region_rtt_ms / 1000.0);
        }
      }
      pod = StartColdStart(fspec, region, /*prewarmed=*/false, extra_sched);
    }
    AssignRequest(pod, fspec, now);
  }
}

void Platform::SpawnPrewarmedPod(FunctionId function, RegionId region,
                                 SimDuration initial_keep_alive) {
  const FunctionSpec& fspec = population_.functions.at(function);
  Pod* pod = StartColdStart(fspec, region, /*prewarmed=*/true, 0);
  // The prewarmed pod idles from readiness; give it the requested survival window.
  ScheduleKeepAlive(pod, hot(*pod).ready_time + initial_keep_alive);
}

void Platform::SchedulePrewarm(SimTime t, FunctionId function, SimDuration keep_alive) {
  COLDSTART_CHECK_LT(function, population_.functions.size());
  COLDSTART_CHECK_GT(keep_alive, 0);
  Schedule(t, {.kind = Event::Kind::kPrewarm, .function = function, .arg = keep_alive});
}

void Platform::RunPrewarm(FunctionId function, SimDuration keep_alive) {
  if (!HasAvailablePod(function)) {
    SpawnPrewarmedPod(function, population_.functions[function].region, keep_alive);
  }
}

namespace {

// Slab structure serialization: capacity, the LIFO freelist, and each slot's
// (generation, alive) pair. Payloads are written by the caller, field by field,
// over the alive slots in index order.
template <typename T>
void SaveSlabStructure(const Slab<T>& slab, ByteWriter& w) {
  const uint32_t cap = static_cast<uint32_t>(slab.capacity());
  w.Count(cap);
  const std::vector<uint32_t>& free_list = slab.free_list();
  w.Count(free_list.size());
  for (const uint32_t i : free_list) {
    w.U32(i);
  }
  for (uint32_t i = 0; i < cap; ++i) {
    w.U32(slab.slot_generation(i));
  }
  for (uint32_t i = 0; i < cap; ++i) {
    w.U8(slab.slot_alive(i) ? 1 : 0);
  }
}

// Mirror of SaveSlabStructure on an empty slab; returns the alive slot indices
// (in index order) so the caller can fill the payloads.
template <typename T>
std::vector<uint32_t> RestoreSlabStructure(Slab<T>& slab, ByteReader& r) {
  // Every slot carries a u32 generation and a u8 alive flag.
  const uint64_t cap = r.Count(sizeof(uint32_t) + sizeof(uint8_t));
  COLDSTART_CHECK_LE(cap, UINT32_MAX);
  std::vector<uint32_t> free_list(r.Count(sizeof(uint32_t)));
  for (uint32_t& i : free_list) {
    i = r.U32();
  }
  std::vector<uint32_t> generations(cap);
  for (uint32_t& g : generations) {
    g = r.U32();
  }
  std::vector<uint8_t> alive(cap);
  for (uint8_t& a : alive) {
    a = r.U8();
  }
  std::vector<uint32_t> alive_indices;
  for (uint32_t i = 0; i < cap; ++i) {
    if (alive[i] != 0) {
      alive_indices.push_back(i);
    }
  }
  slab.RestoreStructure(static_cast<uint32_t>(cap), std::move(free_list),
                        generations, alive);
  return alive_indices;
}

// A pending platform event with its queue key.
struct PendingEvent {
  SimTime time = 0;
  uint64_t seq = 0;
  Platform::Event event;
};

// Bytes one saved PendingEvent takes: time, seq, kind, flag, function,
// exec_us, pod handle (index, generation), arg.
constexpr size_t kSavedEventBytes = 8 + 8 + 1 + 1 + 4 + 4 + 4 + 4 + 8;

}  // namespace

void Platform::SaveCheckpointState(ByteWriter& w) const {
  const SimTime now = sim_.now();
  // Quiescent day boundary: every event < the boundary fired and the live
  // chunk is drained, so the queue holds all the pending work.
  COLDSTART_CHECK_EQ((now + 1) % kDay, 0);
  COLDSTART_CHECK(arrival_cursor_.drained());

  // The pending events, straight from the queue, sorted by (time, seq) so the
  // bytes do not depend on the heap's layout. Superseded keep-alives stay:
  // they fire as no-ops after a resume exactly as they would have without one.
  std::vector<PendingEvent> pending;
  pending.reserve(sim_.pending_events());
  sim_.ForEachPending([&](SimTime t, uint64_t seq, const InlineHandler& handler) {
    const Event* e = handler.target<Event>();
    COLDSTART_CHECK(e != nullptr && e->platform == this &&
                    "checkpoint: a pending event is not a platform event");
    pending.push_back({t, seq, *e});
  });
  std::sort(pending.begin(), pending.end(),
            [](const PendingEvent& a, const PendingEvent& b) {
              return a.time != b.time ? a.time < b.time : a.seq < b.seq;
            });
  // Slots of pods with a pending keep-alive of their current generation.
  std::vector<uint8_t> armed(pod_slab_.capacity(), 0);
  for (const PendingEvent& p : pending) {
    const Pod* pod = p.event.kind == Event::Kind::kKeepAlive
                         ? pod_slab_.Resolve(p.event.pod)
                         : nullptr;
    if (pod != nullptr && pod->keepalive_gen == static_cast<uint64_t>(p.event.arg)) {
      armed[p.event.pod.index] = 1;
    }
  }

  // RNG substreams and id namespaces.
  w.U64(rngs_.size());
  for (const Rng& r : rngs_) {
    uint64_t words[4];
    r.SaveState(words);
    w.Raw(words, sizeof(words));
  }
  for (const trace::PodId v : next_pod_seq_) {
    w.U64(v);
  }
  for (const uint64_t v : next_request_seq_) {
    w.U64(v);
  }
  for (const int64_t v : visible_cold_starts_) {
    w.I64(v);
  }
  for (const int64_t v : cold_start_latency_sum_us_) {
    w.I64(v);
  }

  // Per-region load counters (doubles travel as bit patterns).
  for (const RegionLoadState& l : loads_) {
    w.I64(l.active_cold_starts);
    w.I64(l.active_code_deploys);
    w.I64(l.active_dep_deploys);
    w.I64(l.total_cold_starts);
    w.I64(l.total_requests);
    w.I64(l.prewarm_spawns);
    w.I64(l.delayed_allocations);
    w.F64(l.cold_start_window);
    w.I64(l.window_updated);
  }

  // Resource pools ([region][config], fixed layout from the profiles).
  for (const auto& region_pools : pools_) {
    for (const ResourcePool& pool : region_pools) {
      const ResourcePool::CheckpointState cs = pool.checkpoint_state();
      w.I64(cs.free);
      w.I64(cs.target);
      w.F64(cs.refill_credit);
      w.I64(cs.last_refill);
      w.I64(cs.scratch_count);
    }
  }

  // Cold-start models, per (region, cell): identity plus any mutable model
  // state as a framed blob. Restore re-creates the models from the scenario and
  // refuses to load state written under a different model.
  for (const auto& model : models_) {
    w.Str(std::string(model->name()));
    ByteWriter mw;
    model->SaveModelState(mw);
    w.Str(mw.data());
  }

  // Resource-cost ledger (order-invariant 128-bit sums, two words each).
  cost_ledger_.SaveState(w);

  // Pod slab: structure, then the alive pods field by field (slot index order).
  // `self` is not written — it is re-derived from (index, generation) on restore.
  SaveSlabStructure(pod_slab_, w);
  for (uint32_t i = 0; i < pod_slab_.capacity(); ++i) {
    if (!pod_slab_.slot_alive(i)) {
      continue;
    }
    const Pod& p = pod_slab_.slot_value(i);
    const PodHot& h = pod_hot_[i];
    w.U64(p.id);
    w.U64(p.function);
    w.U32(p.region);
    w.U32(p.cluster);
    w.U8(static_cast<uint8_t>(p.config));
    w.I64(p.cold_start_begin);
    w.I64(h.ready_time);
    w.U32(p.cold_start_us);
    w.I64(h.slots_used);
    w.I64(h.last_busy_end);
    w.U32(p.served);
    w.U64(p.keepalive_gen);
    w.U8(p.prewarmed ? 1 : 0);
    w.I64(p.idle_us);
    // An idle alive pod must have a pending keep-alive of its current
    // generation — the event that will kill it.
    if (h.slots_used == 0) {
      COLDSTART_CHECK(armed[i] != 0);
    }
  }

  // Per-function pod lists, as slot indices in list order (order matters:
  // FindPodWithSlot and PickCluster iterate these).
  w.U64(states_.size());
  for (const FunctionState& state : states_) {
    w.Count(state.pods.size());
    for (const Pod* pod : state.pods) {
      w.U32(pod->self.index);
    }
  }

  // Arrival cursor guard.
  w.I64(arrival_cursor_.last_time());

  // The pending events (field order: kSavedEventBytes).
  w.Count(pending.size());
  for (const PendingEvent& p : pending) {
    const Event& e = p.event;
    w.I64(p.time);
    w.U64(p.seq);
    w.U8(static_cast<uint8_t>(e.kind));
    w.U8(e.flag ? 1 : 0);
    w.U32(e.function);
    w.U32(e.exec_us);
    w.U32(e.pod.index);
    w.U32(e.pod.gen);
    w.I64(e.arg);
  }

  // Arrival stream: a presence byte and the (possibly empty) state blob,
  // both written unconditionally so the write/read op sequences stay
  // symmetric (lint:serde-pair).
  std::string stream_state;
  if (arrival_stream_ != nullptr) {
    ByteWriter sw;
    COLDSTART_CHECK(arrival_stream_->SaveState(sw));
    stream_state = sw.Take();
  }
  w.U8(arrival_stream_ != nullptr ? 1 : 0);
  w.Str(stream_state);
}

void Platform::RestoreCheckpointState(
    ByteReader& r, std::unique_ptr<workload::ArrivalStream> stream) {
  const SimTime now = sim_.now();
  COLDSTART_CHECK(options_.resuming);
  COLDSTART_CHECK_EQ((now + 1) % kDay, 0);
  COLDSTART_CHECK(arrival_stream_ == nullptr && !source_attached_);
  COLDSTART_CHECK_EQ(pod_slab_.capacity(), 0u);

  COLDSTART_CHECK_EQ(r.U64(), rngs_.size());
  for (Rng& rng : rngs_) {
    uint64_t words[4];
    r.Raw(words, sizeof(words));
    rng.RestoreState(words);
  }
  for (trace::PodId& v : next_pod_seq_) {
    v = static_cast<trace::PodId>(r.U64());
  }
  for (uint64_t& v : next_request_seq_) {
    v = r.U64();
  }
  for (int64_t& v : visible_cold_starts_) {
    v = r.I64();
  }
  for (int64_t& v : cold_start_latency_sum_us_) {
    v = r.I64();
  }

  for (RegionLoadState& l : loads_) {
    l.active_cold_starts = static_cast<int>(r.I64());
    l.active_code_deploys = static_cast<int>(r.I64());
    l.active_dep_deploys = static_cast<int>(r.I64());
    l.total_cold_starts = r.I64();
    l.total_requests = r.I64();
    l.prewarm_spawns = r.I64();
    l.delayed_allocations = r.I64();
    l.cold_start_window = r.F64();
    l.window_updated = r.I64();
  }

  for (auto& region_pools : pools_) {
    for (ResourcePool& pool : region_pools) {
      ResourcePool::CheckpointState cs;
      cs.free = static_cast<int>(r.I64());
      cs.target = static_cast<int>(r.I64());
      cs.refill_credit = r.F64();
      cs.last_refill = r.I64();
      cs.scratch_count = r.I64();
      pool.restore_checkpoint_state(cs);
    }
  }

  for (auto& model : models_) {
    // Identity check: the checkpoint must have been written under the same model
    // configuration this platform was constructed with.
    const std::string saved_name = r.Str();
    COLDSTART_CHECK(saved_name == model->name());
    const std::string model_state = r.Str();
    ByteReader mr(model_state);
    model->RestoreModelState(mr);
    COLDSTART_CHECK(mr.AtEnd());
  }

  cost_ledger_.RestoreState(r);
  COLDSTART_CHECK_EQ(cost_ledger_.num_regions(), profiles_.size());

  const std::vector<uint32_t> alive_pods = RestoreSlabStructure(pod_slab_, r);
  pod_hot_.assign(pod_slab_.capacity(), PodHot{});
  for (const uint32_t i : alive_pods) {
    Pod& p = pod_slab_.slot_value(i);
    PodHot& h = pod_hot_[i];
    p.self = SlabHandle{i, pod_slab_.slot_generation(i)};
    p.id = static_cast<trace::PodId>(r.U64());
    const uint64_t function = r.U64();
    const uint32_t region = r.U32();
    p.cluster = static_cast<trace::ClusterId>(r.U32());
    const uint8_t config = r.U8();
    // These index the per-function, per-region and per-config tables.
    COLDSTART_CHECK_LT(function, population_.functions.size());
    COLDSTART_CHECK_LT(region, profiles_.size());
    COLDSTART_CHECK_LT(config, trace::kNumResourceConfigs);
    p.function = static_cast<trace::FunctionId>(function);
    p.region = static_cast<trace::RegionId>(region);
    p.config = static_cast<trace::ResourceConfig>(config);
    p.cold_start_begin = r.I64();
    h.ready_time = r.I64();
    p.cold_start_us = r.U32();
    h.slots_used = static_cast<int>(r.I64());
    h.last_busy_end = r.I64();
    p.served = r.U32();
    p.keepalive_gen = r.U64();
    p.prewarmed = r.U8() != 0;
    p.idle_us = r.I64();
  }

  COLDSTART_CHECK_EQ(r.U64(), states_.size());
  for (FunctionState& state : states_) {
    COLDSTART_CHECK(state.pods.empty());
    const uint64_t n = r.Count(sizeof(uint32_t));
    state.pods.reserve(n);
    for (uint64_t k = 0; k < n; ++k) {
      const uint32_t index = r.U32();
      COLDSTART_CHECK_LT(index, pod_slab_.capacity());
      state.pods.push_back(&pod_slab_.slot_value(index));
    }
  }

  arrival_cursor_.RestoreGuard(r.I64());

  // Re-queue every pending event under its original (time, seq) key, after
  // checking each field the event's body would trust.
  const uint64_t num_pending = r.Count(kSavedEventBytes);
  for (uint64_t k = 0; k < num_pending; ++k) {
    const SimTime t = r.I64();
    const uint64_t seq = r.U64();
    const uint8_t kind = r.U8();
    Event e{.platform = this};
    e.flag = r.U8() != 0;
    e.function = r.U32();
    e.exec_us = r.U32();
    e.pod.index = r.U32();
    e.pod.gen = r.U32();
    e.arg = r.I64();
    COLDSTART_CHECK_LT(kind, Event::kNumKinds);
    e.kind = static_cast<Event::Kind>(kind);
    COLDSTART_CHECK_GT(t, now);
    if (e.kind == Event::Kind::kCompletion || e.kind == Event::Kind::kInvoke ||
        e.kind == Event::Kind::kPrewarm) {
      COLDSTART_CHECK_LT(e.function, population_.functions.size());
    }
    if (e.kind == Event::Kind::kPrewarm) {
      COLDSTART_CHECK_GT(e.arg, 0);
    }
    if (e.kind == Event::Kind::kLoadDecrement) {
      COLDSTART_CHECK(e.arg >= 0 && static_cast<uint64_t>(e.arg) < loads_.size());
    }
    if (e.kind == Event::Kind::kCompletion) {
      COLDSTART_CHECK(pod_slab_.Resolve(e.pod) != nullptr);
    }
    if (e.kind == Event::Kind::kPolicyTick) {
      COLDSTART_CHECK(policy_ != nullptr);
    }
    sim_.RestoreEvent(t, seq, e);
  }

  const bool has_stream = r.U8() != 0;
  const std::string stream_state = r.Str();
  COLDSTART_CHECK_EQ(has_stream, stream != nullptr);
  if (has_stream) {
    arrival_stream_ = std::move(stream);
    ByteReader sr(stream_state);
    COLDSTART_CHECK(arrival_stream_->RestoreState(sr));
    COLDSTART_CHECK(sr.AtEnd());
    sim_.AttachSource(&arrival_cursor_);
    source_attached_ = true;
  }
}

void Platform::Finalize() {
  sink_.OnHorizon(calendar_.horizon());
  // Pods alive at the end of the trace are censored at the horizon, mirroring how the
  // dataset's month boundary truncates pod lifetimes.
  std::vector<Pod*> remaining;
  remaining.reserve(pod_slab_.alive_count());
  pod_slab_.ForEachAlive([&remaining](Pod& pod) { remaining.push_back(&pod); });
  // Flush in pod-id order (slot order reflects freelist reuse, not creation).
  std::sort(remaining.begin(), remaining.end(),
            [](const Pod* a, const Pod* b) { return a->id < b->id; });
  for (Pod* pod : remaining) {
    // Censor at the horizon, but never before the pod's own activity (a request can
    // still be executing when the trace ends).
    const PodHot& h = hot(*pod);
    KillPod(pod, std::max({calendar_.horizon(), h.ready_time, h.last_busy_end}));
  }
  // Cost-ledger totals, one record per region in index order — after the pod
  // flush so censored pods are included. Shards emit their partial sums; the
  // sink-side merge is integer addition, so geometry cannot perturb a bit.
  for (size_t r = 0; r < profiles_.size(); ++r) {
    sink_.OnRegionCost(cost_ledger_.region_record(static_cast<trace::RegionId>(r)));
  }
}

}  // namespace coldstart::platform
