// Shared declarations of the repository benchmark (strg_perfbench).
//
// The benchmark drives the public APIs of src/server, src/core and
// src/index with seeded inputs, checks the answers against a brute-force
// scan, and reports end-to-end metrics (untraced run) or per-layer metrics
// (traced run). See perfbench/README.md for the metric and workload list.
#ifndef STRG_PERFBENCH_BENCH_H_
#define STRG_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "api/query_spec.h"
#include "core/pipeline.h"
#include "core/video_database.h"
#include "index/strg_index.h"
#include "server/query_engine.h"
#include "util/sync.h"
#include "video/frame.h"

namespace strg::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);
/// Splits a time-ordered sample into as many equal windows (at most 5) as
/// keep at least 1000 samples each, and returns the median of the windows'
/// percentiles: a short host stall then moves one window, not the result.
double WindowedPercentile(const std::vector<double>& v, double p);

// ---------------------------------------------------------------------------
// Workload description

enum class EngineKind { kShardedInRam, kDurablePaged };

/// Everything that distinguishes one workload from another. Every workload
/// runs the same phases (see main.cc); the main phase differs.
struct WorkloadConfig {
  std::string name;
  EngineKind engine = EngineKind::kShardedInRam;
  size_t base_videos = 32;
  size_t items_per_pattern = 64;  ///< base OGs = 48 * items_per_pattern
  bool zipf_probes = false;       ///< probe patterns Zipf(1) vs uniform

  // Main phase, measured for --seconds.
  double read_rate = 0.0;   ///< open-loop reads/s
  double write_rate = 0.0;  ///< open-loop AddObjectGraph/s beside reads

  // max_qps_at_slo search.
  double slo_p99_ms = 0.0;
  double slo_start_rate = 0.0;
};

constexpr size_t kShards = 4;             ///< in-RAM engine's shards
/// Threads of every engine's query runtime. Half of the host's 4 vCPUs:
/// a shared host lends vCPUs away, and work spread over all of them would
/// wait on whichever is lent, so timings would follow the neighbours'
/// load rather than the program's.
constexpr size_t kRuntimeThreads = 2;
/// Side phases give every end-to-end metric on every workload: writes run
/// alone when the main phase has none, and clip ingest always runs alone.
/// Like the read rates, the side-write rate is about a fifth of what the
/// writer can do (a publish takes ~3.5 ms on serve_cold), so a host twice
/// as slow for a while raises the latency without saturating the writer.
constexpr double kSideWriteRate = 100.0;  ///< writes/s
constexpr size_t kSideWrites = 600;
constexpr size_t kWarmIngestPasses = 1;   ///< discarded
constexpr size_t kClips = 8;              ///< pre-rendered, cycled by name
constexpr int kClipObjects = 4;
constexpr size_t kCacheDivisor = 8;       ///< durable cache = leaf bytes / 8

WorkloadConfig ConfigFor(const std::string& workload);
std::vector<std::string> WorkloadNames();

// ---------------------------------------------------------------------------
// Seeded inputs. The engines only ever see what is generated here.

struct ReadOp {
  api::QuerySpec::Kind kind = api::QuerySpec::Kind::kSimilar;
  size_t probe = 0;  ///< index into Inputs::probes
  size_t video = 0;  ///< kActive: index into Inputs::video_names
  int first_frame = 0;
  int last_frame = 0;
};

struct Clip {
  std::string kind;  ///< "lab" | "traffic"
  std::vector<video::Frame> frames;
};

struct Inputs {
  uint64_t seed = 0;
  std::vector<std::string> video_names;
  std::vector<api::SegmentResult> base_segments;
  std::vector<core::Og> write_ogs;      ///< AddObjectGraph payloads
  std::vector<size_t> write_video;      ///< target video per write
  std::vector<dist::Sequence> probes;   ///< pattern members, not in the base
  std::vector<std::vector<size_t>> probes_by_pattern;
  std::vector<Clip> clips;
  uint64_t digest = 0;
};

/// `max_reads` and `max_writes` bound what one run can consume.
Inputs MakeInputs(const WorkloadConfig& cfg, uint64_t seed, size_t max_reads,
                  size_t max_writes);

/// Deterministic read-request stream: 85% kNN (k=10), 10% range, 5% Active.
/// Each stream has its own RNG so a phase's requests do not depend on how
/// many an earlier (adaptive) phase consumed; probes advance a shared
/// per-pattern cursor so members are not reused until a pattern runs out.
class ReadStream {
 public:
  ReadStream(const Inputs* in, bool zipf, uint64_t stream_seed,
             std::vector<size_t>* cursors);
  ReadOp Next();

 private:
  const Inputs* in_;
  bool zipf_;
  uint64_t state_;
  std::vector<size_t>* cursors_;
  std::vector<double> zipf_cdf_;
};

api::QuerySpec SpecFor(const Inputs& in, const ReadOp& op);

constexpr size_t kKnnK = 10;
/// About the median distance of a probe's nearest stored OG, so a range
/// read returns none to a few dozen hits.
constexpr double kRangeRadius = 25.0;
constexpr size_t kPatterns = 48;

index::StrgIndexParams IndexParams();

// ---------------------------------------------------------------------------
// Spans (traced run only). Kept in memory, written out at the end.

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index of the parent span, -1 for a root
  int64_t request = -1; ///< request id shared by a request's spans
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Returns the span's index (or -1 when disabled).
  int64_t Add(std::string name, Clock::time_point start, Clock::time_point end,
              int64_t parent, int64_t request) STRG_EXCLUDES(mu_);
  size_t size() const STRG_EXCLUDES(mu_);
  bool WriteJson(const std::string& path) const STRG_EXCLUDES(mu_);

 private:
  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable Mutex mu_;
  std::vector<Span> spans_ STRG_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Results

struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  ///< how many measurements the value summarises
};

}  // namespace strg::perfbench

#endif  // STRG_PERFBENCH_BENCH_H_
