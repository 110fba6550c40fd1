// Quickstart: the whole system in ~60 lines.
//
//  1. Render a short synthetic surveillance clip (stand-in for camera
//     frames — plug in your own frames via video::Frame).
//  2. Run the STRG pipeline: segmentation -> RAG -> tracking -> OG/BG
//     decomposition (Sections 2.1-2.3 of the paper).
//  3. Index the extracted object graphs in a VideoDatabase (STRG-Index).
//  4. Ask "what moved like this?" with a k-NN query (Algorithm 3).

#include <iostream>

#include "core/video_database.h"
#include "util/table.h"
#include "video/scenes.h"

int main() {
  using namespace strg;

  // --- 1. A synthetic lab scene: 6 people walking through a room. -------
  video::SceneParams scene_params;
  scene_params.num_objects = 6;
  scene_params.spawn_gap = 28;
  scene_params.noise_stddev = 1.5;
  video::SceneSpec scene = video::MakeLabScene(scene_params);
  std::cout << "Rendered scene: " << scene.num_frames << " frames, "
            << scene.objects.size() << " moving objects\n";

  // --- 2. Frames -> STRG -> object graphs + background graph. -----------
  api::PipelineParams pipeline_params;  // defaults: mean-shift front end
  api::SegmentResult segment = api::ProcessScene(scene, pipeline_params);
  std::cout << "Pipeline extracted "
            << segment.decomposition.object_graphs.size()
            << " object graphs (OGs) and a background graph with "
            << segment.decomposition.background.rag.NumNodes()
            << " regions\n";

  // --- 3. Build the STRG-Index. -----------------------------------------
  index::StrgIndexParams index_params;
  index_params.num_clusters = 3;
  api::VideoDatabase db(index_params);
  db.AddVideo("lab-demo", segment);
  std::cout << "Indexed " << db.NumObjectGraphs() << " OGs; index size "
            << FormatBytes(db.IndexSizeBytes()) << "\n";

  // --- 4. Query: find clips similar to the first extracted OG. ----------
  const core::Og& probe = segment.decomposition.object_graphs[0];
  auto hits = db.Query(api::QuerySpec::Similar(
      dist::OgToSequence(probe, segment.Scaling()), 3));
  std::cout << "\n3-NN for OG starting at frame " << probe.start_frame
            << ":\n";
  for (const auto& hit : hits) {
    std::cout << "  video=" << hit.video << " start_frame=" << hit.start_frame
              << " length=" << hit.length
              << " EGED_M=" << FormatDouble(hit.distance, 2) << "\n";
  }
  std::cout << "\n(The top hit at distance 0 is the probe itself — the "
               "database contains it.)\n";
  return 0;
}
