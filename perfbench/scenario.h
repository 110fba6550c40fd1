// Phases every workload runs (set-up, open-loop load, side phases, SLO
// search, answer checks, restart) and the state they share.
#ifndef STRG_PERFBENCH_SCENARIO_H_
#define STRG_PERFBENCH_SCENARIO_H_

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "engine.h"
#include "server/durable_engine.h"
#include "storage/catalog.h"

namespace strg::perfbench {

/// State of one run: the engine, what it acknowledged, and the traces.
struct World {
  World(const WorkloadConfig& c, const Inputs& i, std::string dir,
        SpanLog* s)
      : cfg(c), in(i), workdir(std::move(dir)), spans(s),
        cursors(kPatterns, 0) {}

  const WorkloadConfig& cfg;
  const Inputs& in;
  const std::string workdir;
  SpanLog* spans;

  std::unique_ptr<Engine> engine;
  std::string durable_dir;     ///< durable engine's directory
  uint64_t cache_bytes = 0;    ///< durable engine's buffer-cache budget
  std::vector<int> segment_ids;      ///< per base video
  std::vector<size_t> catalog_index; ///< per base video: mirror segment
  std::vector<Record> records;       ///< acknowledged OGs, ingest order
  storage::Catalog mirror;           ///< what an in-RAM engine persists
  std::vector<size_t> cursors;       ///< probe cursor per pattern
  size_t write_cursor = 0;
  size_t clip_videos = 0;
  api::IngestStats ingest_stats;     ///< summed over every pipeline run
  server::RecoveryStats recovery;    ///< last restart
  double snapshot_load_s = 0.0;      ///< in-RAM restart: catalog load time
  uint64_t store_bytes = 0;          ///< bytes on disk after the last close
  std::vector<double> write_us;      ///< write spans (traced run)
  std::atomic<int64_t> next_request{0};  ///< request ids of read spans

  /// Pager and WAL counters over the run: at each clean close, what the
  /// closing engine counted since it was opened (`at_open`), so that the
  /// replay of a reopen is not counted as writes.
  struct AtClose {
    storage::BufferCacheStats cache;
    uint64_t wal_syncs = 0;
    uint64_t wal_bytes = 0;
    uint64_t compactions = 0;
    uint64_t writes = 0;  ///< published ingests (videos + OGs)
  } at_close, at_open;
};

struct ReadLoad {
  std::vector<double> lat_ms;   ///< kOk reads, from due time to completion
  std::vector<double> late_ms;  ///< dispatcher send time minus due time
  size_t attempted = 0;
  size_t ok = 0;
  size_t backlog = 0;  ///< reads unfinished when the last one was sent

  /// Appends another phase's reads (backlog: the larger of the two).
  ReadLoad& operator+=(const ReadLoad& o) {
    lat_ms.insert(lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    attempted += o.attempted;
    ok += o.ok;
    backlog = std::max(backlog, o.backlog);
    return *this;
  }
};

struct WriteLoad {
  std::vector<double> lat_ms;  ///< acked writes, from due time to return
  size_t attempted = 0;
  size_t ok = 0;

  WriteLoad& operator+=(const WriteLoad& o) {
    lat_ms.insert(lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
    attempted += o.attempted;
    ok += o.ok;
    return *this;
  }
};

struct IngestLoad {
  size_t frames = 0;
  size_t videos = 0;
  size_t failed = 0;
  /// Frames / seconds of each whole pass over the clip set, timed from its
  /// first PushFrame until its last AddVideo returns.
  std::vector<double> pass_fps;
  double pass_seconds = 0.0;  ///< summed over the passes

  IngestLoad& operator+=(const IngestLoad& o) {
    frames += o.frames;
    videos += o.videos;
    failed += o.failed;
    pass_fps.insert(pass_fps.end(), o.pass_fps.begin(), o.pass_fps.end());
    pass_seconds += o.pass_seconds;
    return *this;
  }
};

struct MixedLoad {
  ReadLoad reads;
  WriteLoad writes;

  MixedLoad& operator+=(const MixedLoad& o) {
    reads += o.reads;
    writes += o.writes;
    return *this;
  }
};

/// Builds the run's engine and ingests the base catalog; returns the
/// seconds from engine open until the last base video is published.
double SetUp(World* w);

/// Times the same set-up on a second engine, which is then closed and
/// removed; the run's engine is left as it is.
double SetUpAside(World* w, int rep);

/// Reads at `read_rate` for `seconds` (open loop), with an optional write
/// stream at `write_rate` beside them (open loop, one writer thread).
MixedLoad RunMixed(World* w, double read_rate, double write_rate,
                   double seconds, uint64_t stream_seed);

/// Writes alone at `rate` until `count` writes were sent.
WriteLoad RunWrites(World* w, double rate, size_t count);

/// Ingests `passes` passes over the clip set (closed loop).
IngestLoad RunIngest(World* w, size_t passes);

struct SloSearch {
  double max_qps = 0.0;
  size_t steps = 0;
  size_t reads = 0;
};
SloSearch SearchMaxQps(World* w, uint64_t stream_seed);

/// Requests whose answers are checked (kNN, range, Active).
std::vector<api::QuerySpec> CheckSpecs(const World& w);

/// A served answer in user terms: (distance, video, start frame, length),
/// sorted. Ids are left out: a restart renumbers OGs in catalog order.
using Answer = std::vector<std::tuple<double, std::string, int, size_t>>;
Answer Canonical(const std::vector<api::VideoDatabase::QueryHit>& hits);

/// Brute-force check of every spec against `w.records` with the reference
/// EgedMetric; appends a line per mismatch.
void CheckAgainstBruteForce(World* w, const std::vector<api::QuerySpec>& specs,
                            std::vector<std::string>* mismatches);

struct Restart {
  double recover_s = 0.0;
  double space_amp = 0.0;
};
/// Clean close, then reopen (durable) or reload the catalog snapshot into
/// a fresh sharded engine (in-RAM). Checks that every acknowledged OG is
/// back and that answers equal the pre-close engine's.
Restart CloseAndReopen(World* w, const std::vector<api::QuerySpec>& specs,
                       std::vector<std::string>* mismatches);

double PeakRssMb();

/// Traced run only: times calls into each layer's public functions and
/// fills every per-layer metric. `main` is the traced main phase.
void MeasureLayers(World* w, const MixedLoad& main,
                   std::map<std::string, Metric>* out);

}  // namespace strg::perfbench

#endif  // STRG_PERFBENCH_SCENARIO_H_
