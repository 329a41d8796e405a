// Trace replay: drive the platform from a recorded invocation stream.
//
// The source paper is built on a real month-long trace; related systems (SPES,
// the cold-start systematic reviews) evaluate mitigation policies by replaying
// recorded traces. ReplaySource closes that loop for us: it streams arrivals from
//   (a) an arrivals CSV exported by this library (lossless: replaying reproduces
//       the original run bit for bit, serial or region-sharded),
//   (b) our own numeric-mode requests CSV (trace/csv.h) — an approximate replay,
//       since request timestamps are execution starts, not arrivals, and workflow
//       children recorded there are re-injected as exogenous load, or
//   (c) a generic external invocation trace (Azure-Functions-style
//       "timestamp,function,region,duration" rows) whose opaque function/region
//       keys are remapped deterministically onto our Population.
// All modes support time-window clipping and deterministic rate scaling.
//
// Replay memory is O(recorded events) for the raw buffer (inherent: it is loaded
// from a file), but arrival *delivery* is day-chunked: OpenStream windows the
// time-sorted buffer with a single forward cursor, remapping and rate-scaling
// each day on demand, so no second materialized arrival vector is ever built.
#ifndef COLDSTART_WORKLOAD_REPLAY_SOURCE_H_
#define COLDSTART_WORKLOAD_REPLAY_SOURCE_H_

#include <memory>
#include <string>
#include <vector>

#include "trace/csv.h"
#include "workload/workload_source.h"

namespace coldstart::workload {

struct ReplayOptions {
  // Clip to recorded times in [window_begin, window_end) and shift so the window
  // starts at t = 0. window_end <= 0 means "no upper clip". Events at or past the
  // calendar horizon are dropped after shifting.
  SimTime window_begin = 0;
  SimTime window_end = 0;
  // Load multiplier. Each recorded event is emitted floor(rate_scale) times plus
  // one more with probability frac(rate_scale), decided by a deterministic
  // per-event hash — 0.5 thins to half the load, 2.0 doubles it. Copies share the
  // original timestamp (the simulator orders equal-time events by sequence).
  double rate_scale = 1.0;
  // Multiplier applied to recorded timestamps before windowing, for traces whose
  // clock is not in microseconds (e.g. 1e6 for seconds-resolution traces).
  double timestamp_scale = 1.0;
};

class ReplaySource final : public WorkloadSource {
 public:
  // One recorded invocation before remapping. For native modes (arrivals /
  // requests CSV) `function_key` is already a population function id and
  // `mapped` is true; for external traces it is a hash of the opaque function
  // name, mapped onto the population as the stream yields it.
  struct RawEvent {
    SimTime time = 0;
    uint64_t function_key = 0;
    uint64_t region_key = 0;  // kNoRegion when the trace has no region column.
    bool mapped = false;      // function_key is a literal population id.
  };
  static constexpr uint64_t kNoRegion = ~uint64_t{0};

  // Loaders return nullptr on failure and report the offending line via `error`.
  // (a) Lossless arrivals CSV ("timestamp_us,function"), written by
  //     WriteArrivalsCsv below or by the trace_export / trace_replay drivers.
  static std::unique_ptr<ReplaySource> FromArrivalsCsv(const std::string& path,
                                                       ReplayOptions options = {},
                                                       trace::CsvError* error = nullptr);
  // (b) Our numeric-mode requests CSV: every request row becomes an arrival at its
  //     recorded (execution-start) timestamp.
  static std::unique_ptr<ReplaySource> FromRequestsCsv(const std::string& path,
                                                       ReplayOptions options = {},
                                                       trace::CsvError* error = nullptr);
  // (c) External "timestamp,function,region,duration" rows (header optional;
  //     region and duration columns optional). Function and region fields are
  //     opaque strings; durations are ignored — execution profiles come from the
  //     population spec the key is remapped onto. A region of the form R1..R5
  //     pins the key to that region's function range; anything else hashes to a
  //     region deterministically.
  static std::unique_ptr<ReplaySource> FromExternalCsv(const std::string& path,
                                                       ReplayOptions options = {},
                                                       trace::CsvError* error = nullptr);

  const char* name() const override { return name_.c_str(); }
  uint64_t Fingerprint() const override;
  // Day-chunked window over the recorded buffer: each chunk remaps and
  // rate-scales the raw events whose shifted time falls in the day, sorted by
  // (time, function). The source must outlive the stream (it borrows the raw
  // event buffer); remapping is salted independently of `seed`, rate scaling by
  // a per-(seed, raw-index) hash — both identical to the eager path, so chunked
  // and materialized replay are bit-identical (pinned by replay_test).
  // Cost note: a region-filtered stream still scans (and remaps) the whole raw
  // buffer to decide what is in-region, so R shards do R scans — a deliberate
  // trade for never materializing a second per-region arrival vector; the scan
  // is hashing-only and is dwarfed by the simulation it feeds.
  std::unique_ptr<ArrivalStream> OpenStream(
      const Population& pop, const std::vector<RegionProfile>& profiles,
      const Calendar& calendar, uint64_t seed,
      std::optional<trace::RegionId> region = std::nullopt,
      std::optional<CellSlice> cell_slice = std::nullopt) const override;

  size_t raw_event_count() const { return events_.size(); }
  const ReplayOptions& options() const { return options_; }

 private:
  class Stream;

  ReplaySource(std::string name, std::vector<RawEvent> events, ReplayOptions options);

  std::string name_;
  std::vector<RawEvent> events_;  // Sorted by recorded time.
  ReplayOptions options_;
};

// Lossless arrival-stream checkpoint ("timestamp_us,function" numeric rows).
// Round trip: WriteArrivalsCsv(DrainArrivalStream(...)) -> FromArrivalsCsv yields
// a source whose drained stream equals the original vector exactly.
bool WriteArrivalsCsv(const std::vector<ArrivalEvent>& arrivals,
                      const std::string& path);
// Streaming variant: drains `stream` chunk by chunk into the same format without
// ever materializing the full vector (what trace_export / trace_replay use for
// long horizons). Writes the number of rows to *count when non-null.
bool WriteArrivalsCsv(ArrivalStream& stream, const std::string& path,
                      size_t* count = nullptr);
bool ReadArrivalsCsv(const std::string& path, std::vector<ArrivalEvent>& out,
                     trace::CsvError* error = nullptr);

}  // namespace coldstart::workload

#endif  // COLDSTART_WORKLOAD_REPLAY_SOURCE_H_
