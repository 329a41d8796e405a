#include "policy/keepalive.h"

#include <algorithm>

#include "common/byte_serde.h"
#include "common/check.h"

namespace coldstart::policy {

DynamicKeepAlivePolicy::DynamicKeepAlivePolicy() : DynamicKeepAlivePolicy(Options{}) {}
DynamicKeepAlivePolicy::DynamicKeepAlivePolicy(Options options) : options_(options) {}

void DynamicKeepAlivePolicy::OnArrival(const workload::FunctionSpec& spec, SimTime now) {
  if (spec.id >= history_.size()) {
    history_.resize(spec.id + size_t{1});
  }
  History& h = history_[spec.id];
  if (h.last_arrival >= 0) {
    const double iat = static_cast<double>(now - h.last_arrival);
    h.iat_ewma = h.observations == 0
                     ? iat
                     : options_.ewma_alpha * iat + (1 - options_.ewma_alpha) * h.iat_ewma;
    ++h.observations;
  }
  h.last_arrival = now;
}

SimDuration DynamicKeepAlivePolicy::KeepAliveFor(const workload::FunctionSpec& spec,
                                                 SimTime) {
  if (spec.id >= history_.size()) {
    return options_.default_keep_alive;
  }
  const History& h = history_[spec.id];
  if (h.last_arrival < 0 || h.observations < options_.min_observations) {
    return options_.default_keep_alive;
  }
  const auto scaled = static_cast<SimDuration>(options_.headroom * h.iat_ewma);
  return std::clamp(scaled, options_.min_keep_alive, options_.max_keep_alive);
}

bool DynamicKeepAlivePolicy::SavePolicyState(std::string* out) const {
  // Seen functions only, in ascending function id.
  const auto seen = static_cast<uint64_t>(
      std::count_if(history_.begin(), history_.end(),
                    [](const History& h) { return h.last_arrival >= 0; }));
  ByteWriter w;
  w.U64(seen);
  for (size_t fid = 0; fid < history_.size(); ++fid) {
    const History& h = history_[fid];
    if (h.last_arrival >= 0) {
      w.U64(fid);
      w.I64(h.last_arrival);
      w.F64(h.iat_ewma);
      w.I64(h.observations);
    }
  }
  *out = w.Take();
  return true;
}

bool DynamicKeepAlivePolicy::RestorePolicyState(std::string_view blob) {
  COLDSTART_CHECK(history_.empty());
  ByteReader r(blob);
  const uint64_t n = r.U64();
  int64_t prev = -1;
  for (uint64_t i = 0; i < n; ++i) {
    const trace::FunctionId fid = platform::NextAscendingFid(r.U64(), prev);
    history_.resize(fid + size_t{1});
    History& h = history_[fid];
    h.last_arrival = r.I64();
    h.iat_ewma = r.F64();
    h.observations = static_cast<int>(r.I64());
    // Only seen functions are written, and an arrival time is never negative.
    COLDSTART_CHECK_GE(h.last_arrival, 0);
  }
  COLDSTART_CHECK(r.AtEnd());
  return true;
}

}  // namespace coldstart::policy
