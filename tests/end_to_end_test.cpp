// ctest-labels: integration
#include <gtest/gtest.h>

#include "core/persistence.h"
#include "core/video_database.h"
#include "video/renderer.h"
#include "video/scenes.h"

namespace strg::api {
namespace {

/// The full product path in one test: a two-shot frame stream (lab scene
/// cut to traffic scene) -> shot detection -> per-shot STRG pipelines ->
/// catalog persistence round-trip -> database rebuild -> background-routed
/// retrieval.
TEST(EndToEnd, MultiShotPersistenceAndRetrieval) {
  video::SceneParams sp;
  sp.num_objects = 4;
  sp.object_lifetime = 16;
  sp.spawn_gap = 20;
  sp.noise_stddev = 0.0;
  video::SceneSpec lab = video::MakeLabScene(sp);
  sp.height = 100;
  sp.seed = 33;
  video::SceneSpec traffic = video::MakeTrafficScene(sp);

  // NB: shots must share frame dimensions in one stream; render the lab
  // scene at the traffic height too.
  lab.height = 100;
  std::vector<video::Frame> frames;
  for (int t = 0; t < lab.num_frames; ++t) {
    frames.push_back(video::RenderFrame(lab, t));
  }
  for (int t = 0; t < traffic.num_frames; ++t) {
    frames.push_back(video::RenderFrame(traffic, t));
  }

  PipelineParams pp;
  pp.segmenter.use_mean_shift = false;
  auto segments = ProcessFrames(frames, pp);
  ASSERT_EQ(segments.size(), 2u) << "shot detector must find the scene cut";
  ASSERT_GE(segments[0].decomposition.object_graphs.size(), 2u);
  ASSERT_GE(segments[1].decomposition.object_graphs.size(), 2u);

  // Persist and reload.
  storage::Catalog catalog;
  catalog.AddSegment(ToCatalogSegment("shot-0", segments[0]));
  catalog.AddSegment(ToCatalogSegment("shot-1", segments[1]));
  storage::Catalog reloaded =
      storage::Catalog::TryDeserialize(catalog.Serialize()).value();

  index::StrgIndexParams ip;
  ip.num_clusters = 2;
  ip.cluster_params.max_iterations = 6;
  VideoDatabase db = RestoreVideoDatabase(reloaded, ip);
  EXPECT_EQ(db.NumVideos(), 2u);

  // Query with the traffic shot's background: hits must resolve to shot-1.
  const core::Og& probe = segments[1].decomposition.object_graphs[0];
  dist::Sequence probe_seq =
      dist::OgToSequence(probe, segments[1].Scaling());
  auto routed =
      db.index().Knn(probe_seq, 3, &segments[1].decomposition.background);
  ASSERT_FALSE(routed.hits.empty());
  EXPECT_NEAR(routed.hits[0].distance, 0.0, 1e-9);
  auto all = db.Query(QuerySpec::Similar(probe_seq, 3));
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all[0].video, "shot-1");

  // Temporal window query on the reloaded database.
  auto active = db.Query(QuerySpec::Active("shot-0", 0, 5));
  EXPECT_FALSE(active.empty());
}

}  // namespace
}  // namespace strg::api
