#include "workload/workload_source.h"

#include "common/rng.h"

namespace coldstart::workload {

uint64_t SyntheticSource::Fingerprint() const {
  // The generator's behaviour is fully determined by (pop, profiles, calendar,
  // seed), which the scenario fingerprint already covers; a versioned tag is all
  // that is needed to separate it from every replay source.
  return HashString("workload-source:synthetic-v1");
}

std::unique_ptr<ArrivalStream> SyntheticSource::OpenStream(
    const Population& pop, const std::vector<RegionProfile>& profiles,
    const Calendar& calendar, uint64_t seed,
    std::optional<trace::RegionId> region,
    std::optional<CellSlice> cell_slice) const {
  return std::make_unique<SyntheticArrivalStream>(pop, profiles, calendar, seed,
                                                  region, std::move(cell_slice));
}

const WorkloadSource& DefaultSyntheticSource() {
  static const SyntheticSource source;
  return source;
}

}  // namespace coldstart::workload
