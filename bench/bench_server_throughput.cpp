// Load driver for the serving layer (src/server): replays a mixed
// query/ingest workload against the QueryEngine at configurable driver
// thread counts and reports QPS, latency percentiles, and cache hit rate
// as JSON (stdout + BENCH_server.json).
//
// Phases (each on a freshly built engine so metrics are per-phase):
//   serial_direct      — 1 thread, raw api::VideoDatabase replay: no server,
//                        no cache. The single-threaded baseline.
//   server_1thread     — 1 driver through the QueryEngine, cache on.
//   server_multithread — STRG_BENCH_THREADS drivers (default 8), cache on.
//   server_multithread_nocache — same drivers, cache off (honesty check:
//                        isolates what the cache vs. concurrency buys).
//
// Workload: zipf-ish repetition (90% of queries from a hot set of 8, rest
// uniform over a 64-query pool), 90% kNN / 5% range / 5% temporal-window,
// and 1% ingest ops interleaved (each publishing a new index generation,
// which re-keys the result cache). All phases replay the identical mix so
// the QPS comparison is apples-to-apples.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "server/query_engine.h"
#include "synth/generator.h"

namespace strg {
namespace {

using Clock = std::chrono::steady_clock;

struct Workload {
  api::SegmentResult segment;           // base OGs, indexed at phase start
  std::vector<core::Og> stream;         // OGs ingest ops draw from
  std::vector<dist::Sequence> queries;  // probe pool
};

Workload MakeWorkload(size_t base) {
  synth::SynthParams sp;
  sp.items_per_cluster = 4;  // 48 patterns * 4 = 192 OGs
  sp.seed = 1234;
  synth::SynthDataset ds = synth::GenerateSyntheticOgs(sp);

  Workload w;
  w.segment.frame_width = 100;
  w.segment.frame_height = 100;
  size_t frames = 0;
  for (size_t i = 0; i < ds.ogs.size(); ++i) {
    frames = std::max(frames, static_cast<size_t>(ds.ogs[i].start_frame) +
                                  ds.ogs[i].Length());
    if (i < base) {
      w.segment.decomposition.object_graphs.push_back(ds.ogs[i]);
    } else {
      w.stream.push_back(ds.ogs[i]);
    }
  }
  w.segment.num_frames = frames;
  auto all = ds.Sequences(synth::SynthScaling());
  w.queries.assign(all.begin(), all.begin() + std::min<size_t>(64, all.size()));
  return w;
}

index::StrgIndexParams IndexParams() {
  index::StrgIndexParams p;
  p.num_clusters = 8;
  p.cluster_params.max_iterations = 10;
  return p;
}

/// One deterministic request decided by (phase_seed, request index).
struct Request {
  enum Kind { kKnn, kRange, kActive, kIngest } kind;
  size_t query;  // index into Workload::queries / stream
};

Request PickRequest(std::mt19937* rng, const Workload& w, bool allow_ingest) {
  std::uniform_int_distribution<int> pct(0, 99);
  Request r;
  int op = pct(*rng);
  if (allow_ingest && op < 1) {
    r.kind = Request::kIngest;
    r.query = std::uniform_int_distribution<size_t>(
        0, w.stream.size() - 1)(*rng);
    return r;
  }
  if (op < 91) {
    r.kind = Request::kKnn;
  } else if (op < 96) {
    r.kind = Request::kRange;
  } else {
    r.kind = Request::kActive;
  }
  // 90% of queries come from a hot set of 8 -> repeated requests that a
  // result cache can serve.
  if (pct(*rng) < 90) {
    r.query = std::uniform_int_distribution<size_t>(0, 7)(*rng);
  } else {
    r.query = std::uniform_int_distribution<size_t>(
        0, w.queries.size() - 1)(*rng);
  }
  return r;
}

constexpr size_t kKnnK = 10;
constexpr double kRangeRadius = 2.0;

struct PhaseResult {
  std::string name;
  size_t threads = 0;
  size_t requests = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double hit_rate = 0.0;
  double knn_p50_us = 0.0;
  double knn_p95_us = 0.0;
  double knn_p99_us = 0.0;
  size_t errors = 0;  // non-OK statuses (should stay 0 at these bounds)
};

/// Serial replay against the bare database: the no-server baseline.
PhaseResult RunSerialDirect(const Workload& w, size_t requests) {
  api::VideoDatabase db{IndexParams()};
  db.AddVideo("lab1", w.segment);

  std::mt19937 rng(99);
  const auto start = Clock::now();
  size_t sink = 0;
  for (size_t i = 0; i < requests; ++i) {
    Request r = PickRequest(&rng, w, /*allow_ingest=*/true);
    switch (r.kind) {
      case Request::kKnn:
        sink += db.Query(api::QuerySpec::Similar(w.queries[r.query], kKnnK))
                    .size();
        break;
      case Request::kRange:
        sink += db.Query(api::QuerySpec::WithinRadius(w.queries[r.query],
                                                      kRangeRadius))
                    .size();
        break;
      case Request::kActive:
        sink += db.Query(api::QuerySpec::Active("lab1", 0, 1 << 20)).size();
        break;
      case Request::kIngest:
        db.AddObjectGraph(0, "lab1", w.stream[r.query],
                          synth::SynthScaling());
        break;
    }
  }
  PhaseResult res;
  res.name = "serial_direct";
  res.threads = 1;
  res.requests = requests;
  res.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  res.qps = static_cast<double>(requests) / res.seconds;
  if (sink == SIZE_MAX) std::cout << "";  // keep the work observable
  return res;
}

PhaseResult RunServerPhase(const std::string& name, const Workload& w,
                           size_t drivers, size_t requests, bool use_cache) {
  server::EngineOptions opts;
  opts.num_threads =
      std::max<size_t>(2, std::thread::hardware_concurrency());
  opts.max_pending = 512;
  server::QueryEngine engine(IndexParams(), opts);
  int segment_id = -1;
  engine.AddVideo("lab1", w.segment, &segment_id);

  std::atomic<size_t> errors{0};
  const size_t per_driver = requests / drivers;
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < drivers; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(1000 + 17 * t);
      server::QueryOptions qo;
      qo.use_cache = use_cache;
      for (size_t i = 0; i < per_driver; ++i) {
        Request r = PickRequest(&rng, w, /*allow_ingest=*/true);
        server::QueryResult qr;
        switch (r.kind) {
          case Request::kKnn:
            qr = engine.Query(
                api::QuerySpec::Similar(w.queries[r.query], kKnnK), qo);
            break;
          case Request::kRange:
            qr = engine.Query(
                api::QuerySpec::WithinRadius(w.queries[r.query], kRangeRadius),
                qo);
            break;
          case Request::kActive:
            qr = engine.Query(api::QuerySpec::Active("lab1", 0, 1 << 20), qo);
            break;
          case Request::kIngest:
            engine.AddObjectGraph(segment_id, "lab1", w.stream[r.query],
                                  synth::SynthScaling());
            continue;
        }
        if (qr.status != server::StatusCode::kOk) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  PhaseResult res;
  res.name = name;
  res.threads = drivers;
  res.requests = per_driver * drivers;
  res.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  res.qps = static_cast<double>(res.requests) / res.seconds;
  const server::ServerMetrics& m = engine.metrics();
  res.hit_rate = m.CacheHitRate();
  res.knn_p50_us = m.knn_latency.PercentileMicros(50.0);
  res.knn_p95_us = m.knn_latency.PercentileMicros(95.0);
  res.knn_p99_us = m.knn_latency.PercentileMicros(99.0);
  res.errors = errors.load();
  return res;
}

void AppendPhaseJson(std::string* out, const PhaseResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"threads\":%zu,\"requests\":%zu,"
                "\"seconds\":%.4f,\"qps\":%.1f,\"cache_hit_rate\":%.4f,"
                "\"knn_p50_us\":%.1f,\"knn_p95_us\":%.1f,"
                "\"knn_p99_us\":%.1f,\"errors\":%zu}",
                r.name.c_str(), r.threads, r.requests, r.seconds, r.qps,
                r.hit_rate, r.knn_p50_us, r.knn_p95_us, r.knn_p99_us,
                r.errors);
  out->append(buf);
}

}  // namespace
}  // namespace strg

int main() {
  using namespace strg;
  bench::Banner("BENCH server",
                "serving-layer throughput: mixed query/ingest replay "
                "through server::QueryEngine");

  const int scale = std::max(1, bench::EnvInt("STRG_BENCH_SCALE", 1));
  const size_t drivers = static_cast<size_t>(
      std::max(1, bench::EnvInt("STRG_BENCH_THREADS", 4)));
  const size_t serial_requests = 400 * static_cast<size_t>(scale);
  const size_t multi_requests = 4000 * static_cast<size_t>(scale);

  Workload w = MakeWorkload(/*base=*/128);
  std::cout << "workload: " << w.segment.decomposition.object_graphs.size()
            << " base OGs, " << w.stream.size() << " streamable OGs, "
            << w.queries.size() << " query pool (hot set 8)\n"
            << "phases: serial=" << serial_requests
            << " reqs, server=" << multi_requests << " reqs, drivers="
            << drivers << "\n";

  PhaseResult serial = RunSerialDirect(w, serial_requests);
  PhaseResult one =
      RunServerPhase("server_1thread", w, 1, serial_requests, true);
  PhaseResult multi =
      RunServerPhase("server_multithread", w, drivers, multi_requests, true);
  PhaseResult nocache = RunServerPhase("server_multithread_nocache", w,
                                       drivers, serial_requests, false);

  const double speedup = multi.qps / serial.qps;

  // Machine-readable context every BENCH_server*.json must carry (a
  // scripts/strg_lint.py rule): shard count and the host's concurrency, so
  // runs are comparable across machines and against the sharded bench.
  char ctx[160];
  std::snprintf(ctx, sizeof(ctx),
                "\"simd_tier\":\"%s\",\"shards\":1,"
                "\"hardware_concurrency\":%u,",
                dist::simd::TierName(dist::simd::ActiveTier()),
                std::thread::hardware_concurrency());
  std::string json = std::string("{\"bench\":\"server_throughput\",") + ctx;
  AppendPhaseJson(&json, serial);
  json.push_back(',');
  AppendPhaseJson(&json, one);
  json.push_back(',');
  AppendPhaseJson(&json, multi);
  json.push_back(',');
  AppendPhaseJson(&json, nocache);
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                ",\"speedup_multi_vs_serial\":%.2f}", speedup);
  json.append(buf);

  std::cout << json << "\n";
  std::ofstream out("BENCH_server.json");
  out << json << "\n";
  std::cout << "report written to BENCH_server.json\n"
            << "speedup (server_multithread vs serial_direct): " << speedup
            << "x  [acceptance: >= 3x via result cache on repeated "
               "queries]\n";
  return 0;
}
