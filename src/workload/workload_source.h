// Pluggable workload sources.
//
// A WorkloadSource produces the exogenous arrival stream an Experiment drives its
// platform with. Two families exist: the synthetic modulated-Poisson generator
// (SyntheticSource, wrapping the day-cursor machinery in arrivals.h) and trace
// replay (ReplaySource in replay_source.h), which streams arrivals recorded by an
// earlier run or by an external platform. The Experiment runner is
// source-agnostic: any stream that is sorted, in-horizon, and addressed to valid
// population function ids shards by region and merges exactly like the synthetic
// one.
//
// Arrivals are delivered through the pull-based, day-chunked ArrivalStream
// (arrival_stream.h): OpenStream is the one generation primitive; callers that
// need the eager vector drain a stream (DrainArrivalStream). Peak arrival memory of a run is therefore O(busiest day), not O(days) —
// see docs/architecture.md for the memory model and docs/determinism.md for the
// contracts implementations must keep.
#ifndef COLDSTART_WORKLOAD_WORKLOAD_SOURCE_H_
#define COLDSTART_WORKLOAD_WORKLOAD_SOURCE_H_

#include <memory>
#include <optional>
#include <vector>

#include "workload/arrival_stream.h"
#include "workload/arrivals.h"
#include "workload/calendar.h"
#include "workload/function_cells.h"
#include "workload/population.h"

namespace coldstart::workload {

class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  // Short human-readable tag ("synthetic", "replay:arrivals", ...).
  virtual const char* name() const = 0;

  // Stable hash of everything that shapes the arrival stream *beyond*
  // (pop, profiles, calendar, seed). Folded into ScenarioConfig::Fingerprint() so
  // the trace cache can never serve a synthetic run for a replay run (or one
  // replay file for another).
  virtual uint64_t Fingerprint() const = 0;

  // Opens a day-chunked stream of all exogenous arrivals in
  // [0, calendar.horizon()): ceil(horizon / kDay) chunks, each sorted by
  // (time, function) with every function id < pop.functions.size(). With `region`
  // set, the stream yields only that region's functions — the order-preserving
  // per-region partition the sharded runner consumes, one stream per shard. With
  // `cell_slice` additionally set, only functions whose capacity cell falls in
  // the slice are yielded — the sub-region refinement of the same partition.
  //
  // Determinism contract (docs/determinism.md): the chunk sequence is a pure
  // function of (source state, pop, profiles, calendar, seed, region,
  // cell_slice); reopening yields bit-identical chunks, and the filtered streams
  // partition the unfiltered one. `pop` (and any recorded buffer inside the
  // source) is borrowed: both must outlive the returned stream.
  virtual std::unique_ptr<ArrivalStream> OpenStream(
      const Population& pop, const std::vector<RegionProfile>& profiles,
      const Calendar& calendar, uint64_t seed,
      std::optional<trace::RegionId> region = std::nullopt,
      std::optional<CellSlice> cell_slice = std::nullopt) const = 0;
};

// The built-in generator (modulated Poisson + timers) behind the interface.
// Stateless; OpenStream returns a SyntheticArrivalStream whose per-function
// cursors fork their RNG substreams by function id (arrivals.h).
class SyntheticSource final : public WorkloadSource {
 public:
  const char* name() const override { return "synthetic"; }
  uint64_t Fingerprint() const override;
  std::unique_ptr<ArrivalStream> OpenStream(
      const Population& pop, const std::vector<RegionProfile>& profiles,
      const Calendar& calendar, uint64_t seed,
      std::optional<trace::RegionId> region = std::nullopt,
      std::optional<CellSlice> cell_slice = std::nullopt) const override;
};

// Shared immutable instance for configs that do not carry their own source.
const WorkloadSource& DefaultSyntheticSource();

}  // namespace coldstart::workload

#endif  // COLDSTART_WORKLOAD_WORKLOAD_SOURCE_H_
