#include "analysis/pool_size.h"

namespace coldstart::analysis {

const char* ComponentName(ColdStartComponent c) {
  switch (c) {
    case ColdStartComponent::kTotal:
      return "cold start time";
    case ColdStartComponent::kPodAlloc:
      return "pod alloc. time";
    case ColdStartComponent::kDeployCode:
      return "deploy code time";
    case ColdStartComponent::kDeployDep:
      return "deploy dep. time";
    case ColdStartComponent::kScheduling:
      return "scheduling time";
  }
  return "invalid";
}

namespace {

uint32_t ComponentValueUs(const trace::ColdStartRecord& c, ColdStartComponent component) {
  switch (component) {
    case ColdStartComponent::kTotal:
      return c.cold_start_us;
    case ColdStartComponent::kPodAlloc:
      return c.pod_alloc_us;
    case ColdStartComponent::kDeployCode:
      return c.deploy_code_us;
    case ColdStartComponent::kDeployDep:
      return c.deploy_dep_us;
    case ColdStartComponent::kScheduling:
      return c.scheduling_us;
  }
  return 0;
}

// The partition both entry points share: one pass over the cold starts, calling
// emit(record, seconds) with `component` of each, in store order.
template <typename Emit>
void ForEachSample(const trace::TraceStore& store, ColdStartComponent component,
                   const Emit& emit) {
  for (const auto& c : store.cold_starts()) {
    const uint32_t v = ComponentValueUs(c, component);
    if (component == ColdStartComponent::kDeployDep && v == 0) {
      continue;  // Functions without layers are excluded from the dep plots.
    }
    emit(c, ToSeconds(v));
  }
}

int SizeClassIndex(const trace::TraceStore& store, const trace::ColdStartRecord& c) {
  return static_cast<int>(trace::SizeClassOf(store.function(c.function_id).config));
}

}  // namespace

stats::Ecdf PoolSizeDistribution(const trace::TraceStore& store, int region,
                                 trace::PoolSizeClass size_class,
                                 ColdStartComponent component) {
  std::vector<double> samples;
  ForEachSample(store, component, [&](const trace::ColdStartRecord& c, double seconds) {
    if ((region < 0 || static_cast<int>(c.region) == region) &&
        SizeClassIndex(store, c) == static_cast<int>(size_class)) {
      samples.push_back(seconds);
    }
  });
  return stats::Ecdf(std::move(samples));
}

std::vector<PoolSizeSummary> ComputePoolSizeSummaries(const trace::TraceStore& store) {
  constexpr int kCells = trace::kNumRegions * 2;  // Region-major, then size class.
  std::vector<PoolSizeSummary> out(kCells * kNumColdStartComponents);
  for (int c = 0; c < kNumColdStartComponents; ++c) {
    // One pass per component into its cells. Each cell is moved into its Ecdf, so
    // it is freed once summarized.
    const auto component = static_cast<ColdStartComponent>(c);
    std::vector<std::vector<double>> cells(kCells);
    ForEachSample(store, component, [&](const trace::ColdStartRecord& r, double seconds) {
      cells.at(r.region * 2 + SizeClassIndex(store, r)).push_back(seconds);
    });
    for (int cell = 0; cell < kCells; ++cell) {
      PoolSizeSummary& e = out[cell * kNumColdStartComponents + c];
      e.region = static_cast<trace::RegionId>(cell / 2);
      e.size_class = static_cast<trace::PoolSizeClass>(cell % 2);
      e.component = component;
      e.stats = stats::Ecdf(std::move(cells[cell])).Summary();
    }
  }
  return out;
}

}  // namespace coldstart::analysis
