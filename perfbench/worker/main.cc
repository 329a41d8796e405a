// perfbench_worker: one benchmark operation per process, so peak RSS belongs
// to that operation. perfbench/run.py drives it; each mode prints one JSON
// object on its last stdout line.
//
//   perfbench_worker run      --workload W --seed N --threads T [--setup-reps R]
//                             [--checkpoint-dir D]
//       The untraced run: Experiment::Run (+ analysis), timed end to end.
//   perfbench_worker rebuild  --workload W --seed N --threads T --timed 0|1
//                             [--parallel 0|1] [--analysis 0|1] [--checkpoint-dir D]
//                             [--spans FILE]
//       The same run rebuilt from public calls with probe decorators; with
//       --timed 1 it reports per-layer metrics and writes its spans to FILE.
//   perfbench_worker selftest [--threads T] --checkpoint-dir D
//       On SmallScenario, checks every workload's decorated rebuild against
//       Experiment::Run by digest. Exit code 0 on success.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  int threads = 1;
  int setup_reps = 15;
  bool timed = false;
  bool parallel = false;
  bool analysis = true;
  std::string checkpoint_dir;
  std::string spans;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "perfbench_worker: %s (see the usage comment in worker/main.cc)\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) {
    Usage("missing mode");
  }
  a.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) {
      Usage("flag without value");
    }
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--threads") {
      a.threads = std::atoi(value.c_str());
    } else if (flag == "--setup-reps") {
      a.setup_reps = std::atoi(value.c_str());
    } else if (flag == "--timed") {
      a.timed = value == "1";
    } else if (flag == "--parallel") {
      a.parallel = value == "1";
    } else if (flag == "--analysis") {
      a.analysis = value == "1";
    } else if (flag == "--checkpoint-dir") {
      a.checkpoint_dir = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (a.threads < 1) {
    Usage("--threads must be >= 1");
  }
  return a;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

// Accumulates one flat JSON object.
class Json {
 public:
  void Num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) { Raw(key, JsonString(v)); }
  void Raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + JsonString(key) + ": " + v;
  }
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void AddOutputs(Json& j, const RunOutputs& o) {
  j.Str("digest", Hex(o.digest));
  j.Str("analysis_digest", Hex(o.analysis_digest));
  j.Num("events", static_cast<double>(o.events));
  j.Num("cold_starts", static_cast<double>(o.cold_starts));
  j.Num("p99_cold_start_s", o.p99_cold_start_s);
  j.Num("pod_hours", o.pod_hours);
  std::string failed = "[";
  for (size_t i = 0; i < o.failed_checks.size(); ++i) {
    failed += (i ? ", " : "") + JsonString(o.failed_checks[i]);
  }
  j.Raw("failed_checks", failed + "]");
}

// The per-layer metrics of a timed rebuild, named as in BENCHMARK.json.
std::vector<std::pair<std::string, double>> LayerMetrics(const RebuiltRun& run) {
  const LayerReport& r = run.layers;
  std::vector<std::pair<std::string, double>> m;
  const auto add = [&m](std::string name, double v) { m.emplace_back(std::move(name), v); };
  const auto n = [](uint64_t v) { return static_cast<double>(v); };
  add("workload.arrivals_s", r.self_s[kArrivals]);
  add("workload.arrivals", n(r.arrivals));
  add("workload.max_chunk", n(r.max_day_arrivals));
  add("sim.events", n(run.outputs.events));
  add("sim_platform.self_s", r.self_s[kSim]);
  add("sim_platform.ns_per_event",
      run.outputs.events ? r.self_s[kSim] * 1e9 / n(run.outputs.events) : 0.0);
  add("platform.cold_starts", static_cast<double>(r.cold_starts));
  add("platform.scratch_allocations", static_cast<double>(r.scratch_allocations));
  add("platform.delayed_allocations", static_cast<double>(r.delayed_allocations));
  add("platform.prewarm_spawns", static_cast<double>(r.prewarm_spawns));
  add("model.calls", n(r.pods_created));
  add("platform.pool_hit_ratio",
      r.pods_created ? 1.0 - static_cast<double>(r.scratch_allocations) / n(r.pods_created)
                     : 0.0);
  add("platform.useful_pod_ratio",
      r.records[kRecPod] ? n(r.pods_useful) / n(r.records[kRecPod]) : 0.0);
  add("policy.busy_s", r.self_s[kPolicy]);
  for (int h = 0; h < kNumPolicyHooks; ++h) {
    add(std::string("policy.calls.") + PolicyHookName(h),
        n(r.policy_calls[static_cast<size_t>(h)]));
  }
  add("policy.prewarms_issued", static_cast<double>(r.prewarms_issued));
  add("sink.busy_s", r.self_s[kSink]);
  for (int k = 0; k < kNumSinkRecords; ++k) {
    add(std::string("sink.records.") + SinkRecordName(k), n(r.records[static_cast<size_t>(k)]));
  }
  add("sink.seal_s", r.seal_s);
  add("shard.merge_s", r.merge_s);
  double busy_max = 0;
  double busy_sum = 0;
  for (size_t s = 0; s < r.shard_busy_s.size(); ++s) {
    add("shard.busy_s.R" + std::to_string(s + 1), r.shard_busy_s[s]);
    busy_max = std::max(busy_max, r.shard_busy_s[s]);
    busy_sum += r.shard_busy_s[s];
  }
  add("shard.imbalance",
      busy_sum > 0 ? busy_max * static_cast<double>(r.shard_busy_s.size()) / busy_sum : 0.0);
  add("checkpoint.write_s", r.checkpoint_write_s);
  add("checkpoint.bytes", n(r.checkpoint_bytes));
  add("checkpoint.commits", n(r.checkpoint_commits));
  double analysis_total = 0;
  for (int s = 0; s < kNumAnalysisSteps; ++s) {
    add(std::string("analysis.") + AnalysisStepName(s) + "_s",
        r.analysis_s[static_cast<size_t>(s)]);
    analysis_total += r.analysis_s[static_cast<size_t>(s)];
  }
  add("analysis.s", analysis_total);
  return m;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench_worker: cannot write spans to %s\n", path.c_str());
    return;
  }
  const int64_t origin = spans.empty() ? 0 : spans[0].start_ns;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": %s, \"parent\": %d, \"start_s\": %.9f, "
                 "\"end_s\": %.9f}%s\n",
                 i, JsonString(s.name).c_str(), s.parent, (s.start_ns - origin) * 1e-9,
                 (s.end_ns - origin) * 1e-9, i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

WorkloadSpec RequireWorkload(const std::string& name) {
  WorkloadSpec spec;
  if (!FindWorkload(name, &spec)) {
    Usage("unknown --workload");
  }
  return spec;
}

int SelfTest(const Args& a) {
  if (a.checkpoint_dir.empty()) {
    Usage("selftest needs --checkpoint-dir");
  }
  int failures = 0;
  for (const char* name :
       {"paper_month_full", "paper_month_streaming", "forecast_month_ckpt"}) {
    const WorkloadSpec spec = RequireWorkload(name);
    const coldstart::core::ScenarioConfig config = MakeConfig(spec, a.seed, /*small=*/true);
    const std::string dir = a.checkpoint_dir + "/" + name;
    const UntracedRun untraced = RunUntraced(spec, config, a.threads, 1, dir + "/run");
    const RebuiltRun traced = RunRebuild(spec, config, /*timed=*/true, /*parallel=*/false,
                                         /*analysis=*/true, a.threads, dir + "/traced");
    const RebuiltRun plain = RunRebuild(spec, config, /*timed=*/false, /*parallel=*/true,
                                        /*analysis=*/true, a.threads, dir + "/plain");
    std::vector<std::string> problems;
    for (const RunOutputs* o : {&untraced.outputs, &traced.outputs, &plain.outputs}) {
      problems.insert(problems.end(), o->failed_checks.begin(), o->failed_checks.end());
    }
    for (const RunOutputs* o : {&traced.outputs, &plain.outputs}) {
      if (o->digest != untraced.outputs.digest) {
        problems.push_back("rebuild digest " + Hex(o->digest) + " != Experiment::Run digest " +
                           Hex(untraced.outputs.digest));
      }
      if (o->analysis_digest != untraced.outputs.analysis_digest) {
        problems.push_back("rebuild analysis digest differs");
      }
    }
    if (traced.layers.arrivals == 0 || traced.layers.records[kRecRequest] == 0) {
      problems.push_back("decorators saw no traffic");
    }
    if (spec.forecast && traced.layers.policy_calls[kHookOnArrival] == 0) {
      problems.push_back("policy decorator saw no OnArrival calls");
    }
    if (spec.checkpoint && traced.layers.checkpoint_commits == 0) {
      problems.push_back("no checkpoint commits");
    }
    std::printf("selftest %-22s digest %s  %s\n", name, Hex(untraced.outputs.digest).c_str(),
                problems.empty() ? "PASS" : "FAIL");
    for (const std::string& p : problems) {
      std::printf("  - %s\n", p.c_str());
    }
    failures += problems.empty() ? 0 : 1;
    std::filesystem::remove_all(dir);
  }
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  if (a.mode == "selftest") {
    return SelfTest(a);
  }
  const WorkloadSpec spec = RequireWorkload(a.workload);
  const coldstart::core::ScenarioConfig config = MakeConfig(spec, a.seed, /*small=*/false);
  Json j;
  j.Str("mode", a.mode);
  j.Str("compiler", PERFBENCH_COMPILER);
  j.Str("build_type", PERFBENCH_BUILD_TYPE);
  if (a.mode == "run") {
    const UntracedRun run = RunUntraced(spec, config, a.threads, a.setup_reps,
                                        a.checkpoint_dir);
    j.Num("wall_s", run.wall_s);
    j.Num("setup_s", run.setup_s);
    j.Num("peak_rss_mb", PeakRssMb());
    AddOutputs(j, run.outputs);
  } else if (a.mode == "rebuild") {
    const RebuiltRun run =
        RunRebuild(spec, config, a.timed, a.parallel, a.analysis, a.threads, a.checkpoint_dir);
    j.Num("wall_s", run.wall_s);
    AddOutputs(j, run.outputs);
    if (a.timed) {
      Json layers;
      for (const auto& [name, value] : LayerMetrics(run)) {
        layers.Num(name, value);
      }
      j.Raw("layers", layers.Render());
      if (!a.spans.empty()) {
        WriteSpans(a.spans, run.layers.spans);
      }
    }
  } else {
    Usage("unknown mode");
  }
  if (!a.checkpoint_dir.empty()) {
    std::filesystem::remove_all(a.checkpoint_dir);
  }
  std::printf("%s\n", j.Render().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
