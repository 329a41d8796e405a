// Tests for the analysis layer on hand-built trace stores.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>

#include "analysis/components.h"
#include "analysis/fits.h"
#include "analysis/group_cdfs.h"
#include "analysis/groups.h"
#include "analysis/holiday.h"
#include "analysis/peaks.h"
#include "analysis/pool_size.h"
#include "analysis/region_stats.h"
#include "analysis/utility.h"
#include "core/experiment.h"

namespace coldstart::analysis {
namespace {

using trace::ColdStartRecord;
using trace::FunctionRecord;
using trace::PodLifetimeRecord;
using trace::RequestRecord;
using trace::TraceStore;

FunctionRecord Fn(trace::FunctionId id, trace::RegionId region, trace::Runtime rt,
                  trace::Trigger trig,
                  trace::ResourceConfig cfg = trace::ResourceConfig::k300m128,
                  trace::UserId user = 0) {
  FunctionRecord f;
  f.function_id = id;
  f.user_id = user;
  f.region = region;
  f.runtime = rt;
  f.primary_trigger = trig;
  f.trigger_mask = trace::TriggerBit(trig);
  f.config = cfg;
  return f;
}

RequestRecord Req(SimTime t, trace::FunctionId fn, trace::RegionId region,
                  uint32_t exec_us = 1000, trace::UserId user = 0) {
  RequestRecord r;
  r.timestamp = t;
  r.function_id = fn;
  r.user_id = user;
  r.region = region;
  r.execution_time_us = exec_us;
  r.cpu_millicores = 100;
  r.memory_kb = 1024;
  return r;
}

ColdStartRecord Cs(SimTime t, trace::FunctionId fn, trace::RegionId region,
                   uint32_t alloc, uint32_t code, uint32_t dep, uint32_t sched) {
  ColdStartRecord c;
  c.timestamp = t;
  c.function_id = fn;
  c.region = region;
  c.pod_alloc_us = alloc;
  c.deploy_code_us = code;
  c.deploy_dep_us = dep;
  c.scheduling_us = sched;
  c.cold_start_us = alloc + code + dep + sched;
  return c;
}

PodLifetimeRecord Pod(trace::PodId id, trace::FunctionId fn, trace::RegionId region,
                      SimTime begin, uint32_t cs_us, SimTime death,
                      trace::ResourceConfig cfg = trace::ResourceConfig::k300m128) {
  PodLifetimeRecord p;
  p.pod_id = id;
  p.function_id = fn;
  p.region = region;
  p.config = cfg;
  p.cold_start_begin = begin;
  p.ready_time = begin + cs_us;
  p.cold_start_us = cs_us;
  p.death_time = death;
  p.last_busy_end = death - kMinute;
  return p;
}

TEST(RegionStatsTest, SizesCountPerRegion) {
  TraceStore store;
  store.AddFunction(Fn(0, 0, trace::Runtime::kPython3, trace::Trigger::kTimer));
  store.AddFunction(Fn(1, 1, trace::Runtime::kJava, trace::Trigger::kApigSync,
                       trace::ResourceConfig::k300m128, 5));
  store.AddRequest(Req(kSecond, 0, 0));
  store.AddRequest(Req(2 * kSecond, 0, 0));
  store.AddRequest(Req(kSecond, 1, 1));
  store.set_horizon(kDay);
  store.Seal();
  const auto sizes = ComputeRegionSizes(store);
  EXPECT_EQ(sizes[0].functions, 1u);
  EXPECT_EQ(sizes[0].requests, 2u);
  EXPECT_EQ(sizes[1].requests, 1u);
  EXPECT_EQ(sizes[0].users, 1u);
}

TEST(RegionStatsTest, RequestsPerDayPerFunction) {
  TraceStore store;
  store.AddFunction(Fn(0, 0, trace::Runtime::kPython3, trace::Trigger::kTimer));
  for (int i = 0; i < 20; ++i) {
    store.AddRequest(Req(i * kHour, 0, 0));
  }
  store.set_horizon(2 * kDay);
  store.Seal();
  const auto ecdf = RequestsPerDayPerFunction(store, 0);
  ASSERT_EQ(ecdf.size(), 1u);
  EXPECT_DOUBLE_EQ(ecdf.Quantile(0.5), 10.0);
}

TEST(UtilityTest, RatioFormula) {
  // Lifetime 10min, keep-alive 1min, cold start 30s: useful = 10 - 1 - 0.5 = 8.5 min.
  const PodLifetimeRecord p = Pod(0, 0, 0, 0, 30 * 1000 * 1000, 10 * kMinute);
  EXPECT_NEAR(PodUtilityRatio(p), 8.5 * 60 / 30.0, 1e-9);
}

TEST(UtilityTest, ShortLivedPodBelowOne) {
  // Pod served one 1s request with a 10s cold start: useful ~ 1s -> ratio ~ 0.1.
  const SimTime begin = 0;
  const uint32_t cs = 10 * 1000 * 1000;
  const SimTime death = begin + cs + kSecond + kMinute;
  const auto p = Pod(0, 0, 0, begin, cs, death);
  EXPECT_NEAR(PodUtilityRatio(p), 0.1, 1e-6);
}

TEST(UtilityTest, FlooredPositive) {
  // Death before keep-alive would imply negative useful lifetime; floor at 1ms.
  const auto p = Pod(0, 0, 0, 0, 1000000, 30 * kSecond);
  EXPECT_GT(PodUtilityRatio(p), 0.0);
}

TEST(UtilityTest, GroupFiltering) {
  TraceStore store;
  store.AddFunction(Fn(0, 0, trace::Runtime::kGo1x, trace::Trigger::kTimer));
  store.AddFunction(Fn(1, 0, trace::Runtime::kJava, trace::Trigger::kApigSync));
  store.AddPodLifetime(Pod(0, 0, 0, 0, 1000000, kHour));
  store.AddPodLifetime(Pod(1, 1, 0, 0, 1000000, 2 * kMinute));
  store.set_horizon(kDay);
  store.Seal();
  EXPECT_EQ(UtilityByRuntime(store, 0, static_cast<int>(trace::Runtime::kGo1x)).size(), 1u);
  EXPECT_EQ(UtilityByRuntime(store, 0, -1).size(), 2u);
  EXPECT_EQ(
      UtilityByTrigger(store, 0, static_cast<int>(trace::TriggerGroup::kTimerA)).size(),
      1u);
}

TEST(GroupsTest, SharesSumToOne) {
  TraceStore store;
  store.AddFunction(Fn(0, 1, trace::Runtime::kPython3, trace::Trigger::kTimer));
  store.AddFunction(Fn(1, 1, trace::Runtime::kJava, trace::Trigger::kApigSync));
  store.AddColdStart(Cs(kSecond, 0, 1, 100, 100, 0, 100));
  store.AddColdStart(Cs(2 * kSecond, 1, 1, 100, 100, 0, 100));
  store.AddPodLifetime(Pod(0, 0, 1, 0, 300, kHour));
  store.AddPodLifetime(Pod(1, 1, 1, 0, 300, 2 * kHour));
  store.set_horizon(kDay);
  store.Seal();
  for (const auto axis :
       {GroupAxis::kTrigger, GroupAxis::kRuntime, GroupAxis::kConfig}) {
    const auto shares = ComputeGroupShares(store, 1, axis);
    double pods = 0, cs = 0, fns = 0;
    for (int k = 0; k < NumKeys(axis); ++k) {
      pods += shares.pods[static_cast<size_t>(k)];
      cs += shares.cold_starts[static_cast<size_t>(k)];
      fns += shares.functions[static_cast<size_t>(k)];
    }
    EXPECT_NEAR(pods, 1.0, 1e-9);
    EXPECT_NEAR(cs, 1.0, 1e-9);
    EXPECT_NEAR(fns, 1.0, 1e-9);
  }
}

TEST(GroupsTest, PodShareWeighsLifetime) {
  TraceStore store;
  store.AddFunction(Fn(0, 0, trace::Runtime::kPython3, trace::Trigger::kTimer));
  store.AddFunction(Fn(1, 0, trace::Runtime::kJava, trace::Trigger::kApigSync));
  store.AddPodLifetime(Pod(0, 0, 0, 0, 1000, kHour));          // 1 hour alive.
  store.AddPodLifetime(Pod(1, 1, 0, 0, 1000, 3 * kHour));      // 3 hours alive.
  store.set_horizon(kDay);
  store.Seal();
  const auto shares = ComputeGroupShares(store, 0, GroupAxis::kRuntime);
  EXPECT_NEAR(shares.pods[static_cast<size_t>(trace::Runtime::kJava)], 0.75, 1e-9);
}

TEST(GroupsTest, TriggerMixRowsNormalized) {
  TraceStore store;
  store.AddFunction(Fn(0, 1, trace::Runtime::kPython3, trace::Trigger::kTimer));
  store.AddFunction(Fn(1, 1, trace::Runtime::kPython3, trace::Trigger::kApigSync));
  store.AddFunction(Fn(2, 1, trace::Runtime::kPython3, trace::Trigger::kTimer));
  store.set_horizon(kDay);
  store.Seal();
  const auto mix = TriggerMixByRuntime(store, 1);
  const auto& py3 = mix[static_cast<size_t>(trace::Runtime::kPython3)];
  EXPECT_NEAR(py3[static_cast<size_t>(trace::TriggerGroup::kTimerA)], 2.0 / 3, 1e-9);
  EXPECT_NEAR(py3[static_cast<size_t>(trace::TriggerGroup::kApigS)], 1.0 / 3, 1e-9);
}

TEST(FitsTest, InterArrivalComputedWithinRegion) {
  TraceStore store;
  store.AddFunction(Fn(0, 0, trace::Runtime::kPython3, trace::Trigger::kTimer));
  store.AddFunction(Fn(1, 1, trace::Runtime::kPython3, trace::Trigger::kTimer));
  // R1 cold starts at 0s, 10s; R2 at 5s. IATs must not mix regions.
  store.AddColdStart(Cs(0, 0, 0, 100, 100, 0, 100));
  store.AddColdStart(Cs(5 * kSecond, 1, 1, 100, 100, 0, 100));
  store.AddColdStart(Cs(10 * kSecond, 0, 0, 100, 100, 0, 100));
  store.set_horizon(kMinute);
  store.Seal();
  const auto iats = ColdStartInterArrivalCdfs(store);
  ASSERT_EQ(iats[0].size(), 1u);
  EXPECT_DOUBLE_EQ(iats[0].Quantile(0.5), 10.0);
  EXPECT_EQ(iats[1].size(), 0u);
  // The pooled stream concatenates per-region IATs (R2 has a single event, so no IAT).
  EXPECT_EQ(iats.back().size(), 1u);
}

TEST(FitsTest, InterArrivalsRequireSealedStore) {
  // Unsealed, the cold starts are in emission order: an out-of-order pair would be
  // a negative gap, silently dropped. Both IAT consumers refuse such a store.
  TraceStore store;
  store.AddFunction(Fn(0, 0, trace::Runtime::kPython3, trace::Trigger::kTimer));
  store.AddColdStart(Cs(10 * kSecond, 0, 0, 100, 100, 0, 100));
  store.AddColdStart(Cs(0, 0, 0, 100, 100, 0, 100));
  store.AddColdStart(Cs(5 * kSecond, 0, 0, 100, 100, 0, 100));
  store.set_horizon(kMinute);
  EXPECT_DEATH(ColdStartInterArrivalCdfs(store), "CHECK");
  EXPECT_DEATH(FitColdStartDistributions(store), "CHECK");
  store.Seal();
  EXPECT_EQ(ColdStartInterArrivalCdfs(store).back().size(), 2u);
}

TEST(FitsTest, RecoverKnownLogNormal) {
  TraceStore store;
  store.AddFunction(Fn(0, 0, trace::Runtime::kPython3, trace::Trigger::kTimer));
  Rng rng(31);
  const stats::LogNormalParams truth{0.0, 0.7};  // Seconds.
  SimTime t = 0;
  for (int i = 0; i < 20000; ++i) {
    const double seconds = truth.Sample(rng);
    auto c = Cs(t, 0, 0, 0, 0, 0, 0);
    c.cold_start_us = static_cast<uint32_t>(seconds * 1e6);
    c.pod_alloc_us = c.cold_start_us;
    store.AddColdStart(c);
    t += kSecond;
  }
  store.set_horizon(t + kMinute);
  store.Seal();
  const auto fits = FitColdStartDistributions(store);
  EXPECT_NEAR(fits.cold_start_lognormal.mu, 0.0, 0.03);
  EXPECT_NEAR(fits.cold_start_lognormal.sigma, 0.7, 0.03);
  EXPECT_LT(fits.cold_start_quality.ks_distance, 0.02);
}

TEST(ComponentsTest, CorrelationDetectsCoupledSeries) {
  TraceStore store;
  store.AddFunction(Fn(0, 0, trace::Runtime::kPython3, trace::Trigger::kTimer));
  Rng rng(37);
  // Scheduling tracks a slow sinusoid; alloc is independent noise.
  for (int minute = 0; minute < 2000; ++minute) {
    const double level = 2.0 + std::sin(minute / 50.0);
    const auto sched = static_cast<uint32_t>(level * 1e5 * (0.9 + 0.2 * rng.NextDouble()));
    const auto alloc = static_cast<uint32_t>(1e5 * (0.5 + rng.NextDouble()));
    store.AddColdStart(Cs(minute * kMinute, 0, 0, alloc, 1000, 0, sched));
  }
  store.set_horizon(2000 * kMinute);
  store.Seal();
  const auto m = ComponentCorrelationMatrix(store, 0);
  // Variable order: 0 total, 1 code, 2 dep, 3 sched, 4 alloc.
  EXPECT_GT(m[0][3].rho, 0.7);        // Total tracks scheduling.
  EXPECT_LT(std::abs(m[3][4].rho), 0.2);  // Scheduling vs alloc: independent.
  EXPECT_TRUE(m[0][3].significant());
}

TEST(PoolSizeTest, SplitsBySizeClassAndExcludesZeroDep) {
  TraceStore store;
  store.AddFunction(Fn(0, 0, trace::Runtime::kPython3, trace::Trigger::kTimer,
                       trace::ResourceConfig::k300m128));
  store.AddFunction(Fn(1, 0, trace::Runtime::kJava, trace::Trigger::kApigSync,
                       trace::ResourceConfig::k1000m1024));
  store.AddColdStart(Cs(0, 0, 0, 100, 100, 0, 100));        // Small, no deps.
  store.AddColdStart(Cs(kSecond, 1, 0, 500, 100, 700, 100));  // Large, with deps.
  store.set_horizon(kMinute);
  store.Seal();
  EXPECT_EQ(PoolSizeDistribution(store, 0, trace::PoolSizeClass::kSmall,
                                 ColdStartComponent::kTotal)
                .size(),
            1u);
  EXPECT_EQ(PoolSizeDistribution(store, 0, trace::PoolSizeClass::kSmall,
                                 ColdStartComponent::kDeployDep)
                .size(),
            0u);  // Zero dep excluded.
  EXPECT_EQ(PoolSizeDistribution(store, 0, trace::PoolSizeClass::kLarge,
                                 ColdStartComponent::kDeployDep)
                .size(),
            1u);
  EXPECT_EQ(ComputePoolSizeSummaries(store).size(),
            static_cast<size_t>(trace::kNumRegions * 2 * kNumColdStartComponents));
}

TEST(GroupCdfsTest, RequestsVsColdStartsPerFunction) {
  TraceStore store;
  store.AddFunction(Fn(0, 1, trace::Runtime::kPython3, trace::Trigger::kTimer));
  store.AddFunction(Fn(1, 1, trace::Runtime::kJava, trace::Trigger::kApigSync));
  for (int i = 0; i < 10; ++i) {
    store.AddRequest(Req(i * kMinute, 0, 1));
  }
  store.AddColdStart(Cs(0, 0, 1, 100, 100, 0, 100));
  store.set_horizon(kDay);
  store.Seal();
  const auto entries = ComputeRequestsVsColdStarts(store, 1);
  ASSERT_EQ(entries.size(), 1u);  // Function 1 has zero requests: skipped.
  EXPECT_EQ(entries[0].total_requests, 10u);
  EXPECT_EQ(entries[0].cold_starts, 1u);
  EXPECT_EQ(entries[0].trigger, trace::TriggerGroup::kTimerA);
}

TEST(PeaksTest, DailyPeakDetection) {
  TraceStore store;
  store.AddFunction(Fn(0, 0, trace::Runtime::kPython3, trace::Trigger::kApigSync));
  // Two days with a burst at hour 14 each day.
  for (int day = 0; day < 2; ++day) {
    for (int i = 0; i < 100; ++i) {
      store.AddRequest(Req(day * kDay + 14 * kHour + i * kSecond, 0, 0));
    }
    store.AddRequest(Req(day * kDay + 2 * kHour, 0, 0));  // Background.
  }
  store.set_horizon(2 * kDay);
  store.Seal();
  const auto peaks = ComputeRegionPeaks(store);
  ASSERT_EQ(peaks[0].daily_peaks.size(), 2u);
  for (const auto& p : peaks[0].daily_peaks) {
    const double hour = static_cast<double>(p.index % 1440) / 60.0;
    EXPECT_NEAR(hour, 14.0, 1.0);
  }
}

TEST(PeaksTest, FunctionPeakTroughIdentifiesBursty) {
  TraceStore store;
  store.AddFunction(Fn(0, 0, trace::Runtime::kPython3, trace::Trigger::kTimer));
  store.AddFunction(Fn(1, 0, trace::Runtime::kPython3, trace::Trigger::kObs));
  // Function 0: steady 1/hour. Function 1: 200 requests in one hour only.
  for (int h = 0; h < 48; ++h) {
    store.AddRequest(Req(h * kHour + kMinute, 0, 0));
  }
  for (int i = 0; i < 200; ++i) {
    store.AddRequest(Req(20 * kHour + i * 10 * kSecond, 1, 0));
  }
  store.set_horizon(2 * kDay);
  store.Seal();
  const auto entries = ComputeFunctionPeakTrough(store, 1);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_NEAR(entries[0].peak_to_trough, 1.0, 0.2);
  EXPECT_GT(entries[1].peak_to_trough, 20.0);
}

TEST(HolidayTest, NormalizedToPreHolidayMax) {
  TraceStore store;
  store.AddFunction(Fn(0, 0, trace::Runtime::kPython3, trace::Trigger::kTimer));
  // Pods: 4 alive on day 12 (pre-holiday), 2 alive on day 16 (holiday).
  trace::PodId id = 0;
  for (int i = 0; i < 4; ++i) {
    store.AddPodLifetime(Pod(id++, 0, 0, 12 * kDay, 1000, 13 * kDay));
  }
  for (int i = 0; i < 2; ++i) {
    store.AddPodLifetime(Pod(id++, 0, 0, 16 * kDay, 1000, 17 * kDay));
  }
  store.set_horizon(28 * kDay);
  store.Seal();
  const auto series = ComputeHolidayEffect(store, 10, 27, 14);
  const auto& pods = series[0].pods_normalized;
  EXPECT_NEAR(pods[2], 1.0, 1e-9);   // Day 12 is the pre-holiday max.
  EXPECT_NEAR(pods[6], 0.5, 1e-9);   // Day 16 at half.
}

// --- The analysis pass pinned bit for bit on a real run. ---
// One digest per step of the paper analysis pass (region sizes, cold-start CDFs,
// hourly components, utility ratio, distribution fits, pool size), plus the
// inter-arrival CDFs and the all-region pool-size distributions. Every sorted
// sample, summary statistic, fitted parameter and series value goes in, so a
// faster sort, merge or fit that changes a single bit of any output fails here.

uint64_t MixEcdf(uint64_t h, const stats::Ecdf& e) {
  h = MixHash(h, e.size());
  for (const double x : e.sorted_samples()) {
    h = MixHashDouble(h, x);
  }
  const stats::SummaryStats s = e.Summary();
  for (const double v : {s.mean, s.stddev, s.min, s.p25, s.median, s.p75, s.p99, s.max}) {
    h = MixHashDouble(h, v);
  }
  return h;
}

uint64_t MixValues(uint64_t h, const std::vector<double>& values) {
  h = MixHash(h, values.size());
  for (const double v : values) {
    h = MixHashDouble(h, v);
  }
  return h;
}

constexpr size_t kNumPinnedSteps = 8;

std::array<uint64_t, kNumPinnedSteps> AnalysisDigests(const TraceStore& store) {
  std::array<uint64_t, kNumPinnedSteps> h{};
  h.fill(HashString("analysis-pin-v1"));
  for (const RegionSizes& s : ComputeRegionSizes(store)) {
    for (const uint64_t v : {uint64_t{s.region}, s.functions, s.users, s.requests, s.pods,
                             s.cold_starts}) {
      h[0] = MixHash(h[0], v);
    }
  }
  for (const stats::Ecdf& e : ColdStartTimeCdfs(store)) {
    h[1] = MixEcdf(h[1], e);
  }
  for (int r = 0; r < trace::kNumRegions; ++r) {
    const trace::ComponentSeries s = HourlyComponents(store, r);
    for (const auto* v : {&s.total, &s.pod_alloc, &s.deploy_code, &s.deploy_dep,
                          &s.scheduling, &s.count}) {
      h[2] = MixValues(h[2], *v);
    }
    h[3] = MixEcdf(h[3], UtilityByRuntime(store, r, -1));
  }
  const DistributionFits f = FitColdStartDistributions(store);
  for (const double v :
       {f.cold_start_lognormal.mu, f.cold_start_lognormal.sigma,
        f.cold_start_quality.ks_distance, f.cold_start_quality.log_likelihood,
        f.cold_start_mean, f.cold_start_stddev, f.iat_weibull.shape, f.iat_weibull.scale,
        f.iat_quality.ks_distance, f.iat_quality.log_likelihood, f.iat_mean,
        f.iat_stddev}) {
    h[4] = MixHashDouble(h[4], v);
  }
  for (const PoolSizeSummary& p : ComputePoolSizeSummaries(store)) {
    h[5] = MixHash(h[5], p.region);
    h[5] = MixHash(h[5], static_cast<uint64_t>(p.size_class));
    h[5] = MixHash(h[5], static_cast<uint64_t>(p.component));
    const stats::SummaryStats& s = p.stats;
    h[5] = MixHash(h[5], s.count);
    for (const double v :
         {s.mean, s.stddev, s.min, s.p25, s.median, s.p75, s.p99, s.max}) {
      h[5] = MixHashDouble(h[5], v);
    }
  }
  for (const stats::Ecdf& e : ColdStartInterArrivalCdfs(store)) {
    h[6] = MixEcdf(h[6], e);
  }
  for (int s = 0; s < 2; ++s) {
    for (int c = 0; c < kNumColdStartComponents; ++c) {
      h[7] = MixEcdf(h[7], PoolSizeDistribution(store, -1,
                                                static_cast<trace::PoolSizeClass>(s),
                                                static_cast<ColdStartComponent>(c)));
    }
  }
  return h;
}

// Captured on the SmallScenario with four cells per region, before the analysis
// pass moved to a radix-sorted Ecdf, one-pass pool-size cells and fused fits.
constexpr std::array<uint64_t, kNumPinnedSteps> kPinnedDigests = {
    0xb64934fd73aaa7c6ull, 0x99e5f0a35b2d1396ull, 0x35bd0cde915a17bfull,
    0x00d5d0e372dc9af6ull, 0x4a2d4d0596e9e0f7ull, 0xb23cf23194064735ull,
    0xef3bafef995f16bdull, 0xcdd9eb74f98b8a95ull};

void ExpectPinned(const std::array<uint64_t, kNumPinnedSteps>& got) {
  static constexpr const char* kSteps[kNumPinnedSteps] = {
      "region_sizes", "cold_start_cdfs", "hourly_components", "utility",
      "fits",         "pool_size",       "iat_cdfs",          "pool_size_all_regions"};
  for (size_t i = 0; i < kNumPinnedSteps; ++i) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "0x%016llxull", static_cast<unsigned long long>(got[i]));
    EXPECT_EQ(got[i], kPinnedDigests[i]) << kSteps[i] << " digest is now " << hex;
  }
}

core::ScenarioConfig PinnedScenario() {
  core::ScenarioConfig config = core::SmallScenario();
  config.cells_per_region = 4;
  return config;
}

TEST(AnalysisPinTest, SerialRunMatchesPinnedDigests) {
  const core::ExperimentResult result =
      core::Experiment(PinnedScenario()).Run(nullptr, /*num_threads=*/1);
  ASSERT_TRUE(result.store.sealed());
  ExpectPinned(AnalysisDigests(result.store));
}

TEST(AnalysisPinTest, SubRegionShardedRunMatchesPinnedDigests) {
  // 20 threads over 5 regions plan K = 4 cell groups per region: 20 shards.
  const core::ExperimentResult result =
      core::Experiment(PinnedScenario()).Run(nullptr, /*num_threads=*/20);
  ASSERT_TRUE(result.store.sealed());
  ExpectPinned(AnalysisDigests(result.store));
}

}  // namespace
}  // namespace coldstart::analysis
