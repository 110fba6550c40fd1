// strg_perfbench: runs one workload of the repository benchmark.
//
//   strg_perfbench --workload serve_cold --seed 1 --seconds 10 --trace 0
//       [--workdir <scratch dir inside the checkout>]
//
// Untraced (--trace 0): prints every end-to-end metric with its unit and
// sample count. Traced (--trace 1): runs the workload untraced and traced,
// prints the tracing overhead per end-to-end metric, then times each layer
// and prints every per-layer metric; spans go to <workdir>/spans.json.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. A failed answer check prints "correct": false and exits 1.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "distance/simd/dispatch.h"
#include "scenario.h"

#ifndef STRG_PERFBENCH_BUILD_TYPE
#define STRG_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace strg::perfbench {

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "strg_perfbench: %s\nusage: strg_perfbench --workload "
               "<serve_cold|durable_paged> --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--workdir") {
      a.workdir = val;
    } else {
      Usage(("unknown flag " + key).c_str());
    }
  }
  const auto names = WorkloadNames();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    Usage("unknown workload");
  }
  if (a.seconds <= 0.0) Usage("--seconds must be positive");
  return a;
}

/// Everything an untraced scenario run yields.
struct ScenarioOut {
  std::map<std::string, Metric> metrics;
  MixedLoad main;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> mismatches;
};

/// Printed with the end-to-end report but kept out of the gated result:
/// on a shared 4-vCPU host their run-to-run spread exceeds any usable
/// regression bound. The traced run reports them as tail.* metrics.
constexpr const char* kTailMetrics[] = {"query_p99_ms", "write_p99_ms"};

/// The measured part of a run is a number of rounds. Each round times one
/// set-up (on an engine of its own after the first), a 1/rounds slice of
/// the main phase and of the side writes, one ingest pass and one clean
/// restart. Every metric is then a median over samples spread over the
/// whole run, so a slowdown of the shared host for part of the run moves
/// it little. The traced run makes fewer rounds: it runs the workload
/// twice (untraced, then traced) and must stay under 180 s; both halves use
/// the same count, so the overhead compares like with like.
struct Reps {
  int rounds = 5;
};
constexpr Reps kTraceReps{2};

ScenarioOut RunScenario(World* w, double seconds, Reps reps) {
  const WorkloadConfig& cfg = w->cfg;
  ScenarioOut out;
  std::error_code ec;
  std::filesystem::create_directories(w->workdir, ec);
  // Wall time of each phase, printed so the run's length can be budgeted.
  std::vector<std::pair<const char*, double>> phases;
  auto phase_start = Clock::now();
  auto mark = [&](const char* name) {
    phases.emplace_back(name, SecondsSince(phase_start));
    phase_start = Clock::now();
  };
  std::vector<double> setups = {SetUp(w)};

  // Discarded warm-up of every timed phase, at the same rates.
  const double warm = std::min(1.5, 0.25 * seconds);
  RunMixed(w, cfg.read_rate, cfg.write_rate, warm, 1);
  const bool side_writes = cfg.write_rate == 0.0;  // main phase has none
  if (side_writes) RunWrites(w, kSideWriteRate, kSideWrites / 8);
  RunIngest(w, kWarmIngestPasses);
  mark("warm-up");

  // The rounds. Each restart is checked against the engine it replaced;
  // the engine of the first round is also checked against brute force.
  const std::vector<api::QuerySpec> specs = CheckSpecs(*w);
  const size_t writes_per_round =
      (kSideWrites + reps.rounds - 1) / reps.rounds;
  WriteLoad writes;
  IngestLoad ingest;
  std::vector<double> recover_s;
  double space_amp = 0.0;  // of the last close: what the run left on disk
  for (int round = 0; round < reps.rounds; ++round) {
    if (round > 0) setups.push_back(SetUpAside(w, round));
    out.main += RunMixed(w, cfg.read_rate, cfg.write_rate,
                         seconds / reps.rounds, 2 + round);
    if (side_writes) writes += RunWrites(w, kSideWriteRate, writes_per_round);
    ingest += RunIngest(w, 1);
    if (round == 0) CheckAgainstBruteForce(w, specs, &out.mismatches);
    const Restart restart = CloseAndReopen(w, specs, &out.mismatches);
    recover_s.push_back(restart.recover_s);
    space_amp = restart.space_amp;
  }
  if (!side_writes) writes = out.main.writes;
  mark("rounds");
  // The catalog is final from here on: the search only reads.
  const SloSearch slo = SearchMaxQps(w, 100);
  mark("slo search");
  CheckAgainstBruteForce(w, specs, &out.mismatches);
  mark("check");

  const ReadLoad& reads = out.main.reads;
  out.attempted = reads.attempted + writes.attempted + ingest.videos;
  const size_t ok = reads.ok + writes.ok + (ingest.videos - ingest.failed);
  out.failed = out.attempted - ok;
  auto put = [&out](const char* name, double v, const char* unit, size_t n) {
    out.metrics[name] = Metric{v, unit, n};
  };
  auto print_reps = [](const char* what, const std::vector<double>& v) {
    std::printf("  %s:", what);
    for (double x : v) std::printf(" %.4g", x);
    std::printf("\n");
  };
  std::printf("  phases (s):");
  for (const auto& [name, s] : phases) std::printf(" %s %.1f;", name, s);
  std::printf("\n");
  print_reps("set-up repetitions (s)", setups);
  print_reps("restart repetitions (s)", recover_s);
  print_reps("ingest passes (frames/s)", ingest.pass_fps);
  put("setup_s", Median(setups), "s", setups.size());
  put("query_p50_ms", WindowedPercentile(reads.lat_ms, 50), "ms",
      reads.lat_ms.size());
  put("query_p99_ms", WindowedPercentile(reads.lat_ms, 99), "ms",
      reads.lat_ms.size());
  put("max_qps_at_slo", slo.max_qps, "req/s", slo.reads);
  // All passes' frames over all passes' time, not a median of passes: pass
  // speeds split into two modes some 1.5x apart on the shared host, and a
  // median of five jumps between them where a total moves by one pass.
  put("ingest_fps", ingest.frames / ingest.pass_seconds, "frames/s",
      ingest.frames);
  put("write_p50_ms", WindowedPercentile(writes.lat_ms, 50), "ms",
      writes.lat_ms.size());
  put("write_p99_ms", WindowedPercentile(writes.lat_ms, 99), "ms",
      writes.lat_ms.size());
  put("recover_s", Median(recover_s), "s", recover_s.size());
  put("ok_frac", static_cast<double>(ok) / out.attempted, "ratio",
      out.attempted);
  put("peak_rss_mb", PeakRssMb(), "MiB", 1);
  put("space_amp", space_amp, "ratio", 1);
  std::printf(
      "  main phase: %zu reads (%zu ok, backlog at end %zu), %zu writes; "
      "writes measured: %zu; ingested: %zu videos / %zu frames; SLO "
      "search: %zu steps, %zu reads\n",
      reads.attempted, reads.ok, reads.backlog, out.main.writes.attempted,
      writes.attempted, ingest.videos, ingest.frames, slo.steps, slo.reads);
  std::printf("  loadgen late p99: %.3f ms\n",
              Percentile(reads.late_ms, 99));
  return out;
}

void PrintTable(const char* title, const std::map<std::string, Metric>& m) {
  std::printf("%s\n  %-32s %16s %-9s %9s\n", title, "metric", "value", "unit",
              "samples");
  for (const auto& [name, metric] : m) {
    std::printf("  %-32s %16.6g %-9s %9zu\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples);
  }
}

std::map<std::string, Metric> WithoutTail(std::map<std::string, Metric> m) {
  for (const char* name : kTailMetrics) m.erase(name);
  return m;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::map<std::string, Metric>& m) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadConfig cfg = ConfigFor(args.workload);
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) Usage(("cannot create workdir " + args.workdir).c_str());

  std::printf("host: nproc=%u simd=%s compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(),
              dist::simd::TierName(dist::simd::ActiveTier()), __VERSION__,
              STRG_PERFBENCH_BUILD_TYPE);
  // The pool must cover every read a run can send (main phase plus the
  // search); members recycle past that.
  const size_t max_reads =
      static_cast<size_t>(cfg.read_rate * (args.seconds + 2.0)) + 4000;
  const size_t max_writes =
      static_cast<size_t>(cfg.write_rate * (args.seconds + 2.0)) +
      kSideWrites + kSideWrites / 8 + 64;
  const auto g0 = Clock::now();
  const Inputs in = MakeInputs(cfg, args.seed, max_reads, max_writes);
  std::printf(
      "workload=%s seed=%" PRIu64 " input_digest=%016" PRIx64
      " (generated in %.2f s: %zu base OGs in %zu videos, %zu write OGs, "
      "%zu probes, %zu clips)\n",
      cfg.name.c_str(), args.seed, in.digest, SecondsSince(g0),
      [&] {
        size_t n = 0;
        for (const auto& s : in.base_segments) {
          n += s.decomposition.object_graphs.size();
        }
        return n;
      }(),
      in.video_names.size(), in.write_ogs.size(), in.probes.size(),
      in.clips.size());
  std::fflush(stdout);

  SpanLog no_spans(false);
  World untraced(cfg, in, args.workdir + "/untraced", &no_spans);
  std::printf("untraced run:\n");
  const Reps reps = args.trace ? kTraceReps : Reps{};
  ScenarioOut base = RunScenario(&untraced, args.seconds, reps);
  untraced.engine.reset();
  std::filesystem::remove_all(untraced.workdir, ec);
  PrintTable("end-to-end metrics (untraced):", base.metrics);
  for (const std::string& m : base.mismatches) {
    std::printf("ANSWER MISMATCH: %s\n", m.c_str());
  }
  bool correct = base.mismatches.empty();
  if (!args.trace) {
    PrintResult(correct, base.attempted, base.failed,
                WithoutTail(base.metrics));
    return correct ? 0 : 1;
  }

  SpanLog spans(true);
  World traced(cfg, in, args.workdir + "/traced", &spans);
  std::printf("traced run:\n");
  ScenarioOut tr = RunScenario(&traced, args.seconds, reps);
  for (const std::string& m : tr.mismatches) {
    std::printf("ANSWER MISMATCH (traced): %s\n", m.c_str());
  }
  correct = correct && tr.mismatches.empty();
  std::printf("tracing overhead (traced - untraced):\n");
  for (const auto& [name, metric] : base.metrics) {
    const double t = tr.metrics[name].value;
    std::printf("  %-20s untraced %12.6g  traced %12.6g  delta %+10.4g (%+.1f%%) %s\n",
                name.c_str(), metric.value, t, t - metric.value,
                metric.value != 0.0 ? 100.0 * (t - metric.value) / metric.value
                                    : 0.0,
                metric.unit.c_str());
  }
  std::map<std::string, Metric> layers;
  MeasureLayers(&traced, tr.main, &layers);
  for (const char* name : kTailMetrics) {
    layers[std::string("tail.") + name] = tr.metrics[name];
  }
  traced.engine.reset();
  PrintTable("per-layer metrics (traced):", layers);
  const std::string span_path = args.workdir + "/spans.json";
  if (spans.WriteJson(span_path)) {
    std::printf("span dump: %zu spans -> %s\n", spans.size(),
                span_path.c_str());
  }
  std::filesystem::remove_all(traced.workdir, ec);
  PrintResult(correct, tr.attempted, tr.failed, layers);
  return correct ? 0 : 1;
}

}  // namespace strg::perfbench

int main(int argc, char** argv) { return strg::perfbench::Main(argc, argv); }
