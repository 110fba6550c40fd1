// Per-layer metrics of the traced run. Each probe calls one layer's public
// functions from here, with a span around every call, on the workload's own
// engine and inputs; self times are differences between nested spans.
#include <algorithm>
#include <numeric>

#include "cluster/em.h"
#include "distance/eged.h"
#include "graph/rag.h"
#include "scenario.h"
#include "segment/segmenter.h"
#include "segment/workspace.h"
#include "strg/decompose.h"
#include "strg/strg.h"
#include "strg/tracking.h"
#include "synth/generator.h"

namespace strg::perfbench {

namespace {

constexpr size_t kReplayReads = 160;    ///< serial read replay sample
constexpr size_t kBuildSegments = 8;    ///< base videos rebuilt per probe
constexpr size_t kInsertProbes = 64;    ///< Insert calls on an index copy

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct ClusterProbe {
  double em_us = 0.0;
  size_t ogs = 0;
  cluster::ClusterStats stats;
  double build_us = 0.0;  ///< AddSegment on a fresh index
  size_t build_ogs = 0;

  /// EmCluster exactly as StrgIndex::AddSegment calls it, then AddSegment
  /// on a fresh index with the same sequences.
  void Run(World* w, const core::BackgroundGraph& bg,
           const std::vector<dist::Sequence>& seqs, int64_t parent) {
    if (seqs.empty()) return;
    const index::StrgIndexParams params = IndexParams();
    cluster::ClusterParams cp = params.cluster_params;
    cp.stats = &stats;
    const dist::EgedDistance nonmetric;
    const auto t0 = Clock::now();
    (void)cluster::EmCluster(seqs, std::min(params.num_clusters, seqs.size()),
                             nonmetric, cp);
    const auto t1 = Clock::now();
    index::StrgIndex idx(params);
    idx.AddSegment(bg, seqs);
    const auto t2 = Clock::now();
    w->spans->Add("cluster.em", t0, t1, parent, -1);
    w->spans->Add("index.add_segment", t1, t2, parent, -1);
    em_us += UsBetween(t0, t1);
    build_us += UsBetween(t1, t2);
    ogs += seqs.size();
    build_ogs += seqs.size();
  }
};

}  // namespace

void MeasureLayers(World* w, const MixedLoad& main,
                   std::map<std::string, Metric>* out) {
  auto put = [out](const std::string& name, double value, const char* unit,
                   size_t samples) {
    (*out)[name] = Metric{value, unit, samples};
  };
  SpanLog& spans = *w->spans;
  const server::ServerMetrics& sm = w->engine->metrics();
  const auto snaps = w->engine->Snapshots();

  // ---- read path: server Query, then VideoDatabase::Query on each shard
  // snapshot, then StrgIndex::Knn/RangeSearch, one request at a time.
  std::vector<double> served_us, core_us, core_max_us, index_us;
  double dp_knn = 0, dp_range = 0, lb = 0, ab = 0, dp_all = 0;
  size_t knn = 0, range = 0;
  const storage::PagedRecordStore* store = nullptr;
  if (server::DurableQueryEngine* d = AsDurable(w->engine.get())) {
    store = d->paged_store();
  }
  const storage::BufferCacheStats cache0 =
      store != nullptr ? store->cache_stats() : storage::BufferCacheStats{};
  ReadStream stream(&w->in, w->cfg.zipf_probes, 0x7e5a11, &w->cursors);
  for (size_t i = 0; i < kReplayReads; ++i) {
    const api::QuerySpec spec = SpecFor(w->in, stream.Next());
    const int64_t request = w->next_request.fetch_add(1);
    const auto s0 = Clock::now();
    w->engine->Query(spec);
    const auto s1 = Clock::now();
    const int64_t server_span =
        spans.Add("server.query", s0, s1, -1, request);
    served_us.push_back(UsBetween(s0, s1));
    double core_sum = 0, core_max = 0, index_sum = 0;
    for (const auto& snap : snaps) {
      api::VideoDatabase::QueryStats qs;
      const auto c0 = Clock::now();
      (void)snap->db.Query(spec, &qs);
      const auto c1 = Clock::now();
      const int64_t core_span =
          spans.Add("core.query", c0, c1, server_span, request);
      core_sum += UsBetween(c0, c1);
      core_max = std::max(core_max, UsBetween(c0, c1));
      if (spec.kind == api::QuerySpec::Kind::kActive) continue;
      const auto x0 = Clock::now();
      const index::KnnResult r =
          spec.kind == api::QuerySpec::Kind::kSimilar
              ? snap->db.index().Knn(spec.sequence, spec.k)
              : snap->db.index().RangeSearch(spec.sequence, spec.radius);
      const auto x1 = Clock::now();
      spans.Add("index.search", x0, x1, core_span, request);
      index_sum += UsBetween(x0, x1);
      (spec.kind == api::QuerySpec::Kind::kSimilar ? dp_knn : dp_range) +=
          static_cast<double>(r.distance_computations);
      lb += static_cast<double>(r.lb_prunes);
      ab += static_cast<double>(r.early_abandons);
      dp_all += static_cast<double>(r.distance_computations);
    }
    knn += spec.kind == api::QuerySpec::Kind::kSimilar;
    range += spec.kind == api::QuerySpec::Kind::kRange;
    core_us.push_back(core_sum);
    core_max_us.push_back(core_max);
    index_us.push_back(index_sum);
  }
  const storage::BufferCacheStats cache1 =
      store != nullptr ? store->cache_stats() : storage::BufferCacheStats{};

  uint64_t legs = 0, tau_legs = 0;
  w->engine->LegCounts(&legs, &tau_legs);
  // Shard legs run in parallel, so the served request waits for the
  // slowest leg: self time is measured against that one.
  put("server.self_us", Mean(served_us) - Mean(core_max_us), "us",
      served_us.size());
  put("server.max_queue_depth", static_cast<double>(sm.max_queue_depth.load()),
      "count", 1);
  put("server.rejected", static_cast<double>(sm.rejected_overloaded.load()),
      "count", 1);
  put("server.cache_hit_rate", sm.CacheHitRate(), "ratio", 1);
  put("server.tau_leg_frac",
      Ratio(static_cast<double>(tau_legs), static_cast<double>(legs)),
      "ratio", legs);
  put("server.write_us", Mean(w->write_us), "us", w->write_us.size());

  put("core.query_us", Mean(core_us), "us", core_us.size());
  put("core.self_us", Mean(core_us) - Mean(index_us), "us", core_us.size());
  put("index.search_us", Mean(index_us), "us", index_us.size());
  put("distance.dp_per_knn", Ratio(dp_knn, knn), "count", knn);
  put("distance.dp_per_range", Ratio(dp_range, range), "count", range);
  put("distance.lb_prune_ratio", Ratio(lb, lb + dp_all), "ratio",
      knn + range);
  put("distance.abandon_ratio", Ratio(ab, dp_all), "ratio", knn + range);

  // ---- copy-on-write publish cost and index shape.
  std::vector<double> clone_us;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    for (const auto& snap : snaps) {
      (void)snap->db.Clone();
    }
    const auto t1 = Clock::now();
    spans.Add("core.clone", t0, t1, -1, -1);
    clone_us.push_back(UsBetween(t0, t1));
  }
  put("core.clone_us", Mean(clone_us), "us", clone_us.size());
  put("core.queue_stalls",
      static_cast<double>(w->ingest_stats.queue_full_stalls), "count", 1);

  {
    index::StrgIndex copy = snaps.front()->db.index();
    const dist::FeatureScaling scaling = synth::SynthScaling();
    std::vector<double> insert_us;
    for (size_t i = 0; i < kInsertProbes; ++i) {
      const core::Og& og = w->in.write_ogs[i % w->in.write_ogs.size()];
      dist::Sequence seq = dist::OgToSequence(og, scaling);
      const auto t0 = Clock::now();
      copy.Insert(0, std::move(seq), 1u << 30 | i);
      const auto t1 = Clock::now();
      spans.Add("index.insert", t0, t1, -1, -1);
      insert_us.push_back(UsBetween(t0, t1));
    }
    put("index.insert_us", Mean(insert_us), "us", insert_us.size());
  }
  {
    double bytes = 0, ogs = 0, leaf = 0, radius = 0, clusters = 0;
    for (const auto& snap : snaps) {
      const index::StrgIndex& idx = snap->db.index();
      const index::StrgIndex::Stats st = idx.ComputeStats();
      bytes += static_cast<double>(idx.SizeBytes());
      ogs += static_cast<double>(idx.NumIndexedOgs());
      leaf += st.mean_leaf * st.clusters;
      radius += st.mean_covering_radius * st.clusters;
      clusters += static_cast<double>(st.clusters);
    }
    put("index.bytes_per_og", Ratio(bytes, ogs), "B", ogs);
    put("index.mean_leaf", Ratio(leaf, clusters), "count", clusters);
    put("index.mean_covering_radius", Ratio(radius, clusters), "eged",
        clusters);
  }

  // ---- build path: EmCluster + AddSegment on base videos (what set-up
  // and recovery do), then the frame chain on every clip.
  ClusterProbe cp;
  for (size_t v = 0; v < std::min(kBuildSegments, w->in.base_segments.size());
       ++v) {
    const api::SegmentResult& seg = w->in.base_segments[v];
    cp.Run(w, seg.decomposition.background, seg.ObjectSequences(), -1);
  }
  double seg_us = 0, rag_us = 0, track_us = 0, decompose_us = 0;
  size_t frames = 0, videos = 0, clip_ogs = 0;
  const segment::SegmenterParams seg_params;
  const core::TrackingParams track_params;
  for (const Clip& clip : w->in.clips) {
    const auto v0 = Clock::now();
    segment::SegmenterWorkspace ws;
    segment::Segmentation seg;
    core::Strg strg(track_params);
    graph::Rag prev;
    for (size_t f = 0; f < clip.frames.size(); ++f) {
      const auto t0 = Clock::now();
      segment::SegmentFrameInto(clip.frames[f], seg_params, &ws, &seg);
      const auto t1 = Clock::now();
      graph::Rag rag = graph::BuildRag(seg);
      const auto t2 = Clock::now();
      if (f > 0) {
        (void)core::BuildTemporalEdges(prev, rag, track_params);
      }
      const auto t3 = Clock::now();
      spans.Add("segment.frame", t0, t1, -1, -1);
      spans.Add("graph.rag", t1, t2, -1, -1);
      spans.Add("strg.track", t2, t3, -1, -1);
      seg_us += UsBetween(t0, t1);
      rag_us += UsBetween(t1, t2);
      track_us += UsBetween(t2, t3);
      prev = rag;
      strg.AppendFrame(std::move(rag));
      ++frames;
    }
    const auto d0 = Clock::now();
    api::SegmentResult result;
    result.num_frames = strg.NumFrames();
    result.frame_width = clip.frames.front().width();
    result.frame_height = clip.frames.front().height();
    result.decomposition = core::Decompose(strg);
    const auto d1 = Clock::now();
    const int64_t clip_span = spans.Add("ingest.clip", v0, d1, -1, -1);
    spans.Add("strg.decompose", d0, d1, clip_span, -1);
    decompose_us += UsBetween(d0, d1);
    clip_ogs += result.decomposition.object_graphs.size();
    ++videos;
    cp.Run(w, result.decomposition.background, result.ObjectSequences(),
           clip_span);
    int segment_id = -1;
    const auto a0 = Clock::now();
    w->engine->AddVideo("trace-" + std::to_string(videos) + "-" + clip.kind,
                        result, &segment_id);
    spans.Add("server.add_video", a0, Clock::now(), clip_span, -1);
  }
  put("segment.us_per_frame", Ratio(seg_us, frames), "us", frames);
  put("graph.rag_us_per_frame", Ratio(rag_us, frames), "us", frames);
  put("strg.track_us_per_frame", Ratio(track_us, frames), "us", frames);
  put("strg.decompose_us_per_video", Ratio(decompose_us, videos), "us",
      videos);
  put("strg.ogs_per_video", Ratio(clip_ogs, videos), "count", videos);
  put("cluster.em_us_per_og", Ratio(cp.em_us, cp.ogs), "us", cp.ogs);
  put("cluster.distances_per_og",
      Ratio(static_cast<double>(cp.stats.TotalDistances()), cp.ogs), "count",
      cp.ogs);
  put("cluster.assign_prune_ratio",
      Ratio(static_cast<double>(cp.stats.assign_prunes),
            static_cast<double>(cp.stats.assign_prunes +
                                cp.stats.assign_distances)),
      "ratio", cp.ogs);
  put("index.build_us_per_og", Ratio(cp.build_us, cp.build_ogs), "us",
      cp.build_ogs);

  // ---- storage: whole-run pager and WAL counters (captured at the clean
  // close), the restart, and the read replay's misses.
  const World::AtClose& ac = w->at_close;
  const double writes = static_cast<double>(ac.writes);
  put("storage.cache_hit_rate", ac.cache.HitRate(), "ratio",
      ac.cache.hits + ac.cache.misses);
  put("storage.misses_per_query",
      Ratio(static_cast<double>(cache1.misses - cache0.misses),
            kReplayReads),
      "count", kReplayReads);
  put("storage.evictions", static_cast<double>(ac.cache.evictions), "count",
      1);
  put("storage.write_backs", static_cast<double>(ac.cache.write_backs),
      "count", 1);
  put("storage.wal_syncs_per_write", Ratio(ac.wal_syncs, writes), "count",
      ac.writes);
  put("storage.wal_bytes_per_write", Ratio(ac.wal_bytes, writes), "B",
      ac.writes);
  put("storage.compactions", static_cast<double>(ac.compactions), "count", 1);
  const bool durable = w->cfg.engine == EngineKind::kDurablePaged;
  put("storage.replay_s",
      durable ? w->recovery.replay_seconds : w->snapshot_load_s, "s", 1);
  put("storage.replayed_records",
      static_cast<double>(w->recovery.replayed_records), "count", 1);
  put("storage.store_bytes", static_cast<double>(w->store_bytes), "B", 1);
  put("storage.cache_bytes", static_cast<double>(w->cache_bytes), "B", 1);

  put("loadgen.late_p99_ms", Percentile(main.reads.late_ms, 99), "ms",
      main.reads.late_ms.size());
}

}  // namespace strg::perfbench
