// Policy-state blobs of the learning policies (forecast prewarm, dynamic
// keep-alive, workflow prewarm, profile prewarm, timer-aware prewarm, pool
// prediction): the format is pinned, and corrupt blobs are rejected loudly.
//
// A checkpoint outlives the binary that wrote it, so the bytes each
// SavePolicyState produces after a fixed arrival script are pinned by hash: a
// change of in-memory layout that leaks into the blob fails here, not on a
// user's resume. The death tests cover the blobs a reader must never accept
// silently: repeated or descending function ids (which would overwrite an
// earlier entry), ids outside the population, pending fires and times that no
// run can produce, forecaster rings whose live samples or cursor are
// impossible, and pool predictors of another kind, count or ring position.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/byte_serde.h"
#include "common/rng.h"
#include "core/coldstart_lab.h"
#include "workload/arrival_stream.h"

namespace coldstart {
namespace {

using platform::PlatformPolicy;
using policy::DynamicKeepAlivePolicy;
using policy::ForecastPrewarmPolicy;
using policy::InterArrivalForecaster;
using policy::PoolPredictionPolicy;
using policy::ProfilePrewarmPolicy;
using policy::TimerAwarePrewarmPolicy;
using policy::WorkflowPrewarmPolicy;
using workload::ArrivalEvent;
using workload::FunctionSpec;

constexpr int64_t kScriptDays = 2;

FunctionSpec ScriptFunction(trace::FunctionId id) {
  FunctionSpec f;
  f.id = id;
  f.region = 0;
  f.primary_trigger = trace::Trigger::kTimer;
  f.kind = workload::ArrivalKind::kTimer;
  f.exec_median_us = 5e3;
  f.exec_sigma = 0.1;
  f.pod_concurrency = 1;
  return f;
}

// Twelve functions in one region over two days. Their arrivals are a fixed
// formula, no RNG:
//   0-4   timers at 30 s, 2, 5, 17 and 45 min (keep-alive, prewarm and
//         beyond-horizon moves);
//   5     a jittered 4 min drip;
//   6     a dispersed caller, IATs spread over 13 s .. 21 min;
//   7     a sparse caller, four arrivals around 09:00 each day (diurnal);
//   8     a workflow parent every ~7 min, with children 9 (p 0.9),
//         10 (p 0.2) and 11 (p 0.1, below the prewarm threshold).
struct PolicyScript {
  workload::Population pop;
  std::vector<ArrivalEvent> arrivals;
};

PolicyScript MakePolicyScript() {
  PolicyScript s;
  for (trace::FunctionId id = 0; id < 12; ++id) {
    s.pop.functions.push_back(ScriptFunction(id));
  }
  FunctionSpec& parent = s.pop.functions[8];
  parent.exec_median_us = 2e6;
  parent.children = {{9, 0.9}, {10, 0.2}, {11, 0.1}};
  for (trace::FunctionId id = 9; id < 12; ++id) {
    s.pop.functions[id].kind = workload::ArrivalKind::kWorkflowChild;
    s.pop.functions[id].primary_trigger = trace::Trigger::kWorkflowSync;
  }
  s.pop.num_users = 1;
  s.pop.region_begin = {0, static_cast<uint32_t>(s.pop.functions.size())};

  const SimTime horizon = kScriptDays * kDay;
  auto add = [&s](SimTime t, trace::FunctionId id) { s.arrivals.push_back({t, id}); };
  const SimDuration periods[] = {30 * kSecond, 2 * kMinute, 5 * kMinute,
                                 17 * kMinute, 45 * kMinute};
  for (trace::FunctionId id = 0; id < 5; ++id) {
    for (SimTime t = id * kSecond; t < horizon; t += periods[id]) {
      add(t, id);
    }
  }
  int64_t k = 0;
  for (SimTime t = 3 * kSecond; t < horizon; ++k) {
    add(t, 5);
    t += 4 * kMinute + ((k * 37) % 11 - 5) * 7 * kSecond;
  }
  k = 0;
  for (SimTime t = 11 * kSecond; t < horizon; ++k) {
    add(t, 6);
    t += ((k * 7919) % 97 + 1) * 13 * kSecond;
  }
  for (int64_t day = 0; day < kScriptDays; ++day) {
    for (const SimDuration at : {9 * kHour, 9 * kHour + 20 * kMinute,
                                 9 * kHour + 40 * kMinute, 10 * kHour + 5 * kMinute}) {
      add(day * kDay + at, 7);
    }
  }
  k = 0;
  for (SimTime t = 5 * kSecond; t < horizon; ++k) {
    add(t, 8);
    t += 7 * kMinute + ((k * 13) % 7) * 11 * kSecond;
  }
  std::sort(s.arrivals.begin(), s.arrivals.end(), workload::ArrivalOrderLess);
  return s;
}

// Runs the script under `policy` and returns the SavePolicyState bytes taken
// at noon of day 1 and at the horizon, concatenated.
std::string ScriptBlobs(PlatformPolicy* policy) {
  PolicyScript script = MakePolicyScript();
  workload::Calendar::Options copts;
  copts.trace_days = kScriptDays;
  const workload::Calendar cal(copts);
  const auto profiles =
      std::vector<workload::RegionProfile>{workload::DefaultRegionProfiles()[0]};
  sim::Simulator sim;
  trace::TraceStore store;
  platform::Platform::Options opts;
  opts.seed = 17;
  opts.record_requests = false;
  platform::Platform platform(script.pop, profiles, cal, sim, store, opts, policy);
  platform.AttachArrivalStream(std::make_unique<workload::MaterializedArrivalStream>(
      std::move(script.arrivals), kScriptDays));
  std::string mid;
  std::string end;
  sim.RunUntil(kDay + 12 * kHour);
  EXPECT_TRUE(policy->SavePolicyState(&mid));
  sim.RunUntil(cal.horizon());
  EXPECT_TRUE(policy->SavePolicyState(&end));
  platform.Finalize();
  return mid + end;
}

// Restores `blob` into a `Policy` attached to a platform over the script's
// population — these policies size their state in OnAttach and check ids
// against the population — and returns its re-saved bytes.
template <typename Policy>
std::string RestoreAndSaveAttached(const std::string& blob) {
  const PolicyScript script = MakePolicyScript();
  const workload::Calendar cal;
  const auto profiles =
      std::vector<workload::RegionProfile>{workload::DefaultRegionProfiles()[0]};
  sim::Simulator sim;
  trace::TraceStore store;
  Policy policy;
  platform::Platform platform(script.pop, profiles, cal, sim, store, {}, &policy);
  EXPECT_TRUE(policy.RestorePolicyState(blob));
  std::string out;
  EXPECT_TRUE(policy.SavePolicyState(&out));
  return out;
}

std::string RestoreAndSaveProfile(const std::string& blob) {
  return RestoreAndSaveAttached<ProfilePrewarmPolicy>(blob);
}

// --- Pinned format: the bytes a checkpoint carries today. --------------------

TEST(PolicyStateFormatTest, ForecastBlobPinned) {
  ForecastPrewarmPolicy policy;
  const std::string blobs = ScriptBlobs(&policy);
  EXPECT_EQ(policy.tracked_functions(), 12);
  EXPECT_GT(policy.prewarms_issued(), 0);
  EXPECT_EQ(blobs.size(), 12512u);
  EXPECT_EQ(HashString(blobs), 14290861333174452615u);
}

TEST(PolicyStateFormatTest, KeepAliveBlobPinned) {
  DynamicKeepAlivePolicy policy;
  const std::string blobs = ScriptBlobs(&policy);
  EXPECT_EQ(blobs.size(), 784u);
  EXPECT_EQ(HashString(blobs), 13584787723056680849u);
}

TEST(PolicyStateFormatTest, WorkflowBlobPinned) {
  WorkflowPrewarmPolicy policy;
  const std::string blobs = ScriptBlobs(&policy);
  EXPECT_GT(policy.prewarms_issued(), 0);
  EXPECT_EQ(blobs.size(), 96u);
  EXPECT_EQ(HashString(blobs), 1647028479131169597u);
}

TEST(PolicyStateFormatTest, ProfileBlobPinned) {
  ProfilePrewarmPolicy policy;
  const std::string blobs = ScriptBlobs(&policy);
  EXPECT_GT(policy.prewarms_issued(), 0);
  EXPECT_EQ(blobs.size(), 138864u);
  EXPECT_EQ(HashString(blobs), 9527772334323168350u);
}

TEST(PolicyStateFormatTest, TimerAwareBlobPinned) {
  TimerAwarePrewarmPolicy policy;
  const std::string blobs = ScriptBlobs(&policy);
  EXPECT_GT(policy.prewarms_issued(), 0);
  EXPECT_EQ(blobs.size(), 800u);
  EXPECT_EQ(HashString(blobs), 18322066127039264235u);
}

TEST(PolicyStateFormatTest, PoolPredictionBlobPinned) {
  PoolPredictionPolicy policy;
  const std::string blobs = ScriptBlobs(&policy);
  EXPECT_EQ(blobs.size(), 162164u);
  EXPECT_EQ(HashString(blobs), 3227247499283437897u);
}

// --- Corrupt blobs die loudly. ----------------------------------------------

class PolicyStateDeathTest : public ::testing::Test {
 protected:
  void SetUp() override { testing::GTEST_FLAG(death_test_style) = "threadsafe"; }
};

// A default-options forecaster state whose live window is `samples` and whose
// ring cursor is `next`.
void WriteForecaster(ByteWriter& w, const std::vector<int64_t>& samples,
                     uint64_t next) {
  const int window = InterArrivalForecaster::Options{}.window;
  w.I64(kDay);
  w.U64(next);
  w.U64(samples.size());
  for (int i = 0; i < window; ++i) {
    w.I64(i < static_cast<int>(samples.size()) ? samples[static_cast<size_t>(i)] : 0);
  }
  for (int hour = 0; hour < 24; ++hour) {
    w.U32(hour == 9 ? 4 : 0);
  }
}

struct Fire {
  uint64_t fid;
  SimTime at;
};

// A forecast-policy blob: armed fires, then one well-formed forecaster per
// id in `seen`.
std::string ForecastBlob(const std::vector<Fire>& pending,
                         const std::vector<uint64_t>& seen) {
  ByteWriter w;
  w.I64(3);  // prewarms_issued
  w.I64(2);  // keepalive_extended
  w.I64(1);  // keepalive_curtailed
  w.U64(pending.size());
  for (const Fire& f : pending) {
    w.U64(f.fid);
    w.I64(f.at);
  }
  w.U64(seen.size());
  for (const uint64_t fid : seen) {
    w.U64(fid);
    WriteForecaster(w, {5 * kMinute, 5 * kMinute, 5 * kMinute}, 3);
  }
  return w.Take();
}

struct KeepAliveEntry {
  uint64_t fid;
  SimTime last_arrival;
};

std::string KeepAliveBlob(const std::vector<KeepAliveEntry>& entries) {
  ByteWriter w;
  w.U64(entries.size());
  for (const KeepAliveEntry& e : entries) {
    w.U64(e.fid);
    w.I64(e.last_arrival);
    w.F64(90.0 * kSecond);
    w.I64(4);
  }
  return w.Take();
}

std::string WorkflowBlob(const std::vector<Fire>& last_prewarm) {
  ByteWriter w;
  w.I64(7);
  w.U64(last_prewarm.size());
  for (const Fire& f : last_prewarm) {
    w.U64(f.fid);
    w.I64(f.at);
  }
  return w.Take();
}

// Restores `blob` into a fresh `Policy` and returns its re-saved bytes.
template <typename Policy>
std::string RestoreAndSave(const std::string& blob) {
  Policy policy;
  EXPECT_TRUE(policy.RestorePolicyState(blob));
  std::string out;
  EXPECT_TRUE(policy.SavePolicyState(&out));
  return out;
}

TEST(PolicyStateRestoreTest, WellFormedHandBuiltBlobsRoundTrip) {
  // The controls for the death tests below: the same builders with valid
  // inputs load and re-save byte for byte.
  const std::string forecast = ForecastBlob({{2, kHour}, {40, 2 * kHour}}, {2, 7, 40});
  EXPECT_EQ(RestoreAndSave<ForecastPrewarmPolicy>(forecast), forecast);
  const std::string keepalive = KeepAliveBlob({{0, kMinute}, {5, 0}, {6, kHour}});
  EXPECT_EQ(RestoreAndSave<DynamicKeepAlivePolicy>(keepalive), keepalive);
  const std::string workflow = WorkflowBlob({{1, 0}, {9, kMinute}});
  EXPECT_EQ(RestoreAndSave<WorkflowPrewarmPolicy>(workflow), workflow);

  ByteWriter full;
  WriteForecaster(full, std::vector<int64_t>(48, kMinute), 17);  // Wrapped ring.
  InterArrivalForecaster f;
  ByteReader r(full.data());
  f.RestoreState(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(f.PredictedIat(), kMinute);
}

TEST_F(PolicyStateDeathTest, ForecastRepeatedOrDescendingPendingFidDies) {
  EXPECT_DEATH(RestoreAndSave<ForecastPrewarmPolicy>(
                   ForecastBlob({{4, kHour}, {4, 2 * kHour}}, {4})),
               "raw\\) > prev");
  EXPECT_DEATH(RestoreAndSave<ForecastPrewarmPolicy>(
                   ForecastBlob({{4, kHour}, {3, 2 * kHour}}, {3, 4})),
               "raw\\) > prev");
}

TEST_F(PolicyStateDeathTest, ForecastNonPositivePendingFireDies) {
  EXPECT_DEATH(RestoreAndSave<ForecastPrewarmPolicy>(ForecastBlob({{4, 0}}, {4})),
               "\\(fire\\) > \\(0\\)");
  EXPECT_DEATH(RestoreAndSave<ForecastPrewarmPolicy>(ForecastBlob({{4, -1}}, {4})),
               "\\(fire\\) > \\(0\\)");
}

TEST_F(PolicyStateDeathTest, ForecastRepeatedOrDescendingForecasterFidDies) {
  EXPECT_DEATH(RestoreAndSave<ForecastPrewarmPolicy>(ForecastBlob({}, {2, 2})),
               "raw\\) > prev");
  EXPECT_DEATH(RestoreAndSave<ForecastPrewarmPolicy>(ForecastBlob({}, {5, 2})),
               "raw\\) > prev");
}

TEST_F(PolicyStateDeathTest, ForecastFireWithoutForecasterDies) {
  EXPECT_DEATH(RestoreAndSave<ForecastPrewarmPolicy>(ForecastBlob({{4, kHour}}, {3})),
               "slot_of_");
}

TEST_F(PolicyStateDeathTest, ForecasterNonPositiveLiveSampleDies) {
  for (const int64_t bad : {int64_t{0}, int64_t{-kMinute}}) {
    ByteWriter w;
    WriteForecaster(w, {kMinute, bad, kMinute}, 3);
    InterArrivalForecaster f;
    ByteReader r(w.data());
    EXPECT_DEATH(f.RestoreState(r), "\\(iat\\) > \\(0\\)");
  }
}

TEST_F(PolicyStateDeathTest, ForecasterCursorOffPartlyFilledRingDies) {
  ByteWriter w;
  WriteForecaster(w, {kMinute, kMinute, kMinute}, 1);
  InterArrivalForecaster f;
  ByteReader r(w.data());
  EXPECT_DEATH(f.RestoreState(r), "next_ == filled_");
}

TEST_F(PolicyStateDeathTest, KeepAliveRepeatedOrDescendingFidDies) {
  EXPECT_DEATH(RestoreAndSave<DynamicKeepAlivePolicy>(
                   KeepAliveBlob({{3, kMinute}, {3, kHour}})),
               "raw\\) > prev");
  EXPECT_DEATH(RestoreAndSave<DynamicKeepAlivePolicy>(
                   KeepAliveBlob({{3, kMinute}, {1, kHour}})),
               "raw\\) > prev");
}

TEST_F(PolicyStateDeathTest, KeepAliveUnseenEntryDies) {
  EXPECT_DEATH(RestoreAndSave<DynamicKeepAlivePolicy>(KeepAliveBlob({{3, -1}})),
               "last_arrival\\) >= \\(0\\)");
}

TEST_F(PolicyStateDeathTest, WorkflowRepeatedOrDescendingFidDies) {
  EXPECT_DEATH(RestoreAndSave<WorkflowPrewarmPolicy>(
                   WorkflowBlob({{6, kMinute}, {6, kHour}})),
               "raw\\) > prev");
  EXPECT_DEATH(RestoreAndSave<WorkflowPrewarmPolicy>(
                   WorkflowBlob({{6, kMinute}, {2, kHour}})),
               "raw\\) > prev");
}

TEST_F(PolicyStateDeathTest, WorkflowNegativePrewarmTimeDies) {
  EXPECT_DEATH(RestoreAndSave<WorkflowPrewarmPolicy>(WorkflowBlob({{6, -1}})),
               "last_prewarm_");
}

TEST_F(PolicyStateDeathTest, FidBeyondFunctionIdRangeDies) {
  EXPECT_DEATH(RestoreAndSave<WorkflowPrewarmPolicy>(
                   WorkflowBlob({{uint64_t{1} << 32, kMinute}})),
               "raw <= std::numeric_limits");
}

// A profile-prewarm blob: the watch list, then one profile per id in
// `profiled`.
std::string ProfileBlob(const std::vector<uint64_t>& watched,
                        const std::vector<uint64_t>& profiled) {
  ByteWriter w;
  w.I64(5);  // prewarms_issued
  w.U64(watched.size());
  for (const uint64_t fid : watched) {
    w.U64(fid);
  }
  w.U64(profiled.size());
  for (const uint64_t fid : profiled) {
    w.U64(fid);
    w.I64(1);  // days_observed
    std::vector<float> per_minute(1440, 0.f);
    per_minute[540] = 3.f;
    w.Raw(per_minute.data(), per_minute.size() * sizeof(float));
  }
  return w.Take();
}

TEST(PolicyStateRestoreTest, ProfileWellFormedBlobRoundTrips) {
  // The control for the profile death tests below.
  const std::string blob = ProfileBlob({0, 4, 11}, {0, 4, 7, 11});
  EXPECT_EQ(RestoreAndSaveProfile(blob), blob);
}

TEST_F(PolicyStateDeathTest, ProfileRepeatedOrDescendingProfileFidDies) {
  EXPECT_DEATH(RestoreAndSaveProfile(ProfileBlob({}, {4, 4})), "raw\\) > prev");
  EXPECT_DEATH(RestoreAndSaveProfile(ProfileBlob({}, {4, 2})), "raw\\) > prev");
}

TEST_F(PolicyStateDeathTest, ProfileDuplicateOrDescendingWatchFidDies) {
  EXPECT_DEATH(RestoreAndSaveProfile(ProfileBlob({3, 3}, {3})), "raw\\) > prev");
  EXPECT_DEATH(RestoreAndSaveProfile(ProfileBlob({3, 1}, {1, 3})), "raw\\) > prev");
}

TEST_F(PolicyStateDeathTest, ProfileFidBeyondPopulationDies) {
  // The script population has 12 functions: ids 0..11.
  EXPECT_DEATH(RestoreAndSaveProfile(ProfileBlob({12}, {})), "num_functions");
  EXPECT_DEATH(RestoreAndSaveProfile(ProfileBlob({}, {3, 12})), "num_functions");
}

// A timer-aware prewarm blob: one periodic history per id in `seen`.
std::string TimerBlob(const std::vector<uint64_t>& seen) {
  ByteWriter w;
  w.I64(4);  // prewarms_issued
  w.U64(seen.size());
  for (const uint64_t fid : seen) {
    w.U64(fid);
    w.I64(kHour);               // last_arrival
    w.F64(5.0 * kMinute);       // period_estimate
    w.I64(3);                   // stable_count
  }
  return w.Take();
}

TEST(PolicyStateRestoreTest, TimerWellFormedBlobRoundTrips) {
  const std::string blob = TimerBlob({0, 4, 11});
  EXPECT_EQ(RestoreAndSaveAttached<TimerAwarePrewarmPolicy>(blob), blob);
}

TEST_F(PolicyStateDeathTest, TimerRepeatedOrDescendingFidDies) {
  EXPECT_DEATH(RestoreAndSaveAttached<TimerAwarePrewarmPolicy>(TimerBlob({4, 4})),
               "raw\\) > prev");
  EXPECT_DEATH(RestoreAndSaveAttached<TimerAwarePrewarmPolicy>(TimerBlob({4, 2})),
               "raw\\) > prev");
}

TEST_F(PolicyStateDeathTest, TimerFidBeyondPopulationDies) {
  // The script population has 12 functions: ids 0..11.
  EXPECT_DEATH(RestoreAndSaveAttached<TimerAwarePrewarmPolicy>(TimerBlob({3, 12})),
               "num_functions");
}

// A pool-prediction blob for the script's one region: `count` default
// (seasonal-naive, one-day season) predictors named `name`, each a season in
// with its cursor at `pos`.
std::string PoolBlob(uint64_t count, const char* name, uint64_t pos) {
  constexpr uint64_t kSeason = 1440;
  ByteWriter w;
  w.U64(count);
  for (uint64_t i = 0; i < count; ++i) {
    w.Str(name);
    w.Count(kSeason);
    for (uint64_t m = 0; m < kSeason; ++m) {
      w.F64(m == 540 ? 2.0 : 0.0);
    }
    w.U64(pos);            // pos_
    w.U64(kSeason + pos);  // observed_
    w.F64(1.0);            // last_
    w.F64(3.0);            // demand_this_minute_
  }
  return w.Take();
}

TEST(PolicyStateRestoreTest, PoolWellFormedBlobRoundTrips) {
  const std::string blob = PoolBlob(trace::kNumResourceConfigs, "seasonal-naive", 17);
  EXPECT_EQ(RestoreAndSaveAttached<PoolPredictionPolicy>(blob), blob);
}

TEST_F(PolicyStateDeathTest, PoolWrongPredictorCountDies) {
  EXPECT_DEATH(RestoreAndSaveAttached<PoolPredictionPolicy>(
                   PoolBlob(trace::kNumResourceConfigs - 1, "seasonal-naive", 17)),
               "predictors_.size\\(\\)");
}

TEST_F(PolicyStateDeathTest, PoolWrongPredictorNameDies) {
  EXPECT_DEATH(RestoreAndSaveAttached<PoolPredictionPolicy>(
                   PoolBlob(trace::kNumResourceConfigs, "holt-winters", 17)),
               "name\\(\\)");
}

TEST_F(PolicyStateDeathTest, PoolCursorPastTheRingDies) {
  EXPECT_DEATH(RestoreAndSaveAttached<PoolPredictionPolicy>(
                   PoolBlob(trace::kNumResourceConfigs, "seasonal-naive", 1440)),
               "pos_ < season_.size\\(\\)");
}

}  // namespace
}  // namespace coldstart
