#include "policy/prewarm.h"

#include <algorithm>
#include <cmath>

#include "common/byte_serde.h"
#include "common/check.h"

namespace coldstart::policy {

TimerAwarePrewarmPolicy::TimerAwarePrewarmPolicy() : TimerAwarePrewarmPolicy(Options{}) {}
TimerAwarePrewarmPolicy::TimerAwarePrewarmPolicy(Options options) : options_(options) {}

ProfilePrewarmPolicy::ProfilePrewarmPolicy() : ProfilePrewarmPolicy(Options{}) {}
ProfilePrewarmPolicy::ProfilePrewarmPolicy(Options options) : options_(options) {}

namespace {
constexpr size_t kMinutesPerDay = 1440;
}

void TimerAwarePrewarmPolicy::OnAttach(platform::Platform& platform) {
  platform_ = &platform;
  history_.assign(platform.population().functions.size(), FunctionHistory{});
}

void TimerAwarePrewarmPolicy::OnArrival(const workload::FunctionSpec& spec, SimTime now) {
  COLDSTART_CHECK(platform_ != nullptr);
  FunctionHistory& h = history_[spec.id];
  if (h.last_arrival < 0) {
    h.last_arrival = now;
    return;
  }
  const double iat = static_cast<double>(now - h.last_arrival);
  h.last_arrival = now;
  if (iat <= 0) {
    return;
  }
  if (h.period_estimate <= 0) {
    h.period_estimate = iat;
    h.stable_count = 1;
    return;
  }
  const double rel_err = std::fabs(iat - h.period_estimate) / h.period_estimate;
  if (rel_err <= options_.stability_tolerance) {
    ++h.stable_count;
    h.period_estimate = 0.7 * h.period_estimate + 0.3 * iat;
  } else {
    h.stable_count = 0;
    h.period_estimate = iat;
    return;
  }

  const auto period = static_cast<SimDuration>(h.period_estimate);
  const bool periodic_enough = h.stable_count >= options_.min_observations;
  const bool outside_keep_alive = period > kMinute && period <= options_.max_period;
  if (!periodic_enough || !outside_keep_alive) {
    return;
  }
  // The pod serving the current fire dies after its keep-alive; spawn a fresh pod just
  // before the next fire. Survival window covers prediction error on both sides.
  const SimDuration until_next = period - options_.lead_time;
  if (until_next <= 0) {
    return;
  }
  const SimDuration survival = 2 * options_.lead_time + 10 * kSecond;
  platform_->SchedulePrewarm(now + until_next, spec.id, survival);
  ++prewarms_issued_;
}

bool TimerAwarePrewarmPolicy::SavePolicyState(std::string* out) const {
  // Seen functions only, in ascending function id.
  const auto seen = static_cast<uint64_t>(
      std::count_if(history_.begin(), history_.end(),
                    [](const FunctionHistory& h) { return h.last_arrival >= 0; }));
  ByteWriter w;
  w.I64(prewarms_issued_);
  w.U64(seen);
  for (size_t fid = 0; fid < history_.size(); ++fid) {
    const FunctionHistory& h = history_[fid];
    if (h.last_arrival >= 0) {
      w.U64(fid);
      w.I64(h.last_arrival);
      w.F64(h.period_estimate);
      w.I64(h.stable_count);
    }
  }
  *out = w.Take();
  return true;
}

bool TimerAwarePrewarmPolicy::RestorePolicyState(std::string_view blob) {
  COLDSTART_CHECK(platform_ != nullptr && prewarms_issued_ == 0);
  const size_t num_functions = history_.size();
  ByteReader r(blob);
  prewarms_issued_ = r.I64();
  const uint64_t n = r.U64();
  int64_t prev = -1;
  for (uint64_t i = 0; i < n; ++i) {
    const trace::FunctionId fid = platform::NextAscendingFid(r.U64(), prev);
    COLDSTART_CHECK_LT(fid, num_functions);
    FunctionHistory& h = history_[fid];
    h.last_arrival = r.I64();
    h.period_estimate = r.F64();
    h.stable_count = static_cast<int>(r.I64());
    // Only seen functions are written; no arrival, estimate or count is negative.
    COLDSTART_CHECK_GE(h.last_arrival, 0);
    COLDSTART_CHECK(h.period_estimate >= 0 && h.stable_count >= 0);
  }
  COLDSTART_CHECK(r.AtEnd());
  return true;
}

void ProfilePrewarmPolicy::OnAttach(platform::Platform& platform) {
  platform_ = &platform;
  profiles_.assign(platform.population().functions.size(), Profile{});
}

void ProfilePrewarmPolicy::OnArrival(const workload::FunctionSpec& spec, SimTime now) {
  Profile& prof = profiles_[spec.id];
  if (prof.per_minute.empty()) {
    prof.per_minute.assign(kMinutesPerDay, 0.f);
  }
  const int minute = static_cast<int>((TimeOfDay(now)) / kMinute);
  prof.per_minute[static_cast<size_t>(minute)] += 1.0f;
}

void ProfilePrewarmPolicy::OnColdStart(const workload::FunctionSpec& spec, SimTime,
                                       SimDuration) {
  watch_list_.insert(spec.id);
}

void ProfilePrewarmPolicy::OnMinuteTick(SimTime now) {
  COLDSTART_CHECK(platform_ != nullptr);
  const int64_t day = DayIndex(now);
  if (day < 1) {
    return;  // Need at least one day of history before the profile means anything.
  }
  const auto next_minute =
      static_cast<size_t>((TimeOfDay(now) / kMinute + 1) % kMinutesPerDay);
  int budget = options_.max_prewarms_per_tick;
  for (auto it = watch_list_.begin(); it != watch_list_.end() && budget > 0;) {
    const trace::FunctionId fid = *it;
    const Profile& prof = profiles_[fid];
    if (prof.per_minute.empty()) {
      it = watch_list_.erase(it);
      continue;
    }
    const double expected =
        prof.per_minute[next_minute] / static_cast<double>(day);
    if (expected >= options_.min_expected_arrivals && !platform_->HasAvailablePod(fid)) {
      platform_->SpawnPrewarmedPod(fid, platform_->spec(fid).region,
                                   options_.prewarm_keep_alive);
      ++prewarms_issued_;
      --budget;
    }
    ++it;
  }
}

bool ProfilePrewarmPolicy::SavePolicyState(std::string* out) const {
  // Arrived functions only, in ascending function id (watch_list_ is a
  // std::set, already ordered).
  const auto arrived = static_cast<uint64_t>(
      std::count_if(profiles_.begin(), profiles_.end(),
                    [](const Profile& p) { return !p.per_minute.empty(); }));
  ByteWriter w;
  w.I64(prewarms_issued_);
  w.U64(watch_list_.size());
  for (const trace::FunctionId fid : watch_list_) {
    w.U64(fid);
  }
  w.U64(arrived);
  for (size_t fid = 0; fid < profiles_.size(); ++fid) {
    const Profile& prof = profiles_[fid];
    if (!prof.per_minute.empty()) {
      w.U64(fid);
      w.I64(prof.days_observed);
      w.Raw(prof.per_minute.data(), kMinutesPerDay * sizeof(float));
    }
  }
  *out = w.Take();
  return true;
}

bool ProfilePrewarmPolicy::RestorePolicyState(std::string_view blob) {
  COLDSTART_CHECK(platform_ != nullptr && watch_list_.empty());
  const size_t num_functions = profiles_.size();
  ByteReader r(blob);
  prewarms_issued_ = r.I64();
  const uint64_t watched = r.U64();
  int64_t prev = -1;
  for (uint64_t i = 0; i < watched; ++i) {
    const trace::FunctionId fid = platform::NextAscendingFid(r.U64(), prev);
    COLDSTART_CHECK_LT(fid, num_functions);
    watch_list_.insert(watch_list_.end(), fid);
  }
  const uint64_t n = r.U64();
  prev = -1;
  for (uint64_t i = 0; i < n; ++i) {
    const trace::FunctionId fid = platform::NextAscendingFid(r.U64(), prev);
    COLDSTART_CHECK_LT(fid, num_functions);
    Profile& prof = profiles_[fid];
    prof.days_observed = static_cast<int>(r.I64());
    prof.per_minute.resize(kMinutesPerDay);
    r.Raw(prof.per_minute.data(), kMinutesPerDay * sizeof(float));
  }
  COLDSTART_CHECK(r.AtEnd());
  return true;
}

}  // namespace coldstart::policy
