// Seeded input generation: the base catalog, the write stream, the probe
// pool, the pre-rendered clips and the read-request streams. The same seed
// gives the same inputs (and digest); the engines only see these inputs.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "bench.h"
#include "synth/generator.h"
#include "video/renderer.h"
#include "video/scenes.h"

namespace strg::perfbench {

namespace {

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// FNV-1a over raw bytes; the digest a run prints for its inputs.
struct Digest {
  uint64_t h = 0xcbf29ce484222325ull;
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  void Seq(const dist::Sequence& s) {
    Bytes(s.data(), s.size() * sizeof(dist::FeatureVec));
  }
  void Str(const std::string& s) { Bytes(s.data(), s.size()); }
};

/// Lays the OGs of one video out on a timeline (start frames 8 apart) so
/// Active windows select a subset of them.
constexpr int kOgSpacing = 8;

}  // namespace

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double WindowedPercentile(const std::vector<double>& v, double p) {
  const size_t windows = std::clamp<size_t>(v.size() / 1000, 1, 5);
  const size_t per = v.size() / windows;
  std::vector<double> each;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = v.begin() + w * per;
    each.push_back(Percentile(
        std::vector<double>(begin, w + 1 == windows ? v.end() : begin + per),
        p));
  }
  return Median(each);
}

index::StrgIndexParams IndexParams() {
  index::StrgIndexParams p;
  p.num_clusters = 8;
  p.cluster_params.max_iterations = 10;
  return p;
}

Inputs MakeInputs(const WorkloadConfig& cfg, uint64_t seed, size_t max_reads,
                  size_t max_writes) {
  Inputs in;
  in.seed = seed;
  uint64_t rng = seed ^ 0x5354524742454e43ull;  // "STRGBENC"
  Digest dg;
  dg.Str(cfg.name);

  // Base catalog: Sec. 6.1 synthetic OGs, round-robin over the videos.
  synth::SynthParams sp;
  sp.items_per_cluster = cfg.items_per_pattern;
  sp.seed = SplitMix(&rng);
  const synth::SynthDataset base = synth::GenerateSyntheticOgs(sp);
  in.base_segments.resize(cfg.base_videos);
  for (size_t v = 0; v < cfg.base_videos; ++v) {
    char name[32];
    std::snprintf(name, sizeof(name), "cam-%02zu", v);
    in.video_names.push_back(name);
    in.base_segments[v].frame_width = 100;  // SynthScaling(100) geometry
    in.base_segments[v].frame_height = 100;
  }
  for (size_t i = 0; i < base.ogs.size(); ++i) {
    api::SegmentResult& seg = in.base_segments[i % cfg.base_videos];
    core::Og og = base.ogs[i];
    og.start_frame = static_cast<int>(
        seg.decomposition.object_graphs.size()) * kOgSpacing;
    seg.num_frames = std::max<size_t>(seg.num_frames,
                                      og.start_frame + og.Length());
    seg.decomposition.object_graphs.push_back(std::move(og));
  }
  for (const api::SegmentResult& seg : in.base_segments) {
    for (const dist::Sequence& s : seg.ObjectSequences()) dg.Seq(s);
  }

  // Write stream: a second synthetic draw, each OG appended to a random
  // base video right after that video's last OG.
  sp.items_per_cluster = (max_writes + kPatterns - 1) / kPatterns;
  sp.seed = SplitMix(&rng);
  const synth::SynthDataset wds = synth::GenerateSyntheticOgs(sp);
  std::vector<int> next_start(cfg.base_videos);
  for (size_t v = 0; v < cfg.base_videos; ++v) {
    next_start[v] = static_cast<int>(
        in.base_segments[v].decomposition.object_graphs.size()) * kOgSpacing;
  }
  for (size_t i = 0; i < wds.ogs.size(); ++i) {
    // Interleave patterns instead of streaming one pattern at a time.
    const size_t j = (i % kPatterns) * sp.items_per_cluster + i / kPatterns;
    const size_t v = SplitMix(&rng) % cfg.base_videos;
    core::Og og = wds.ogs[j];
    og.start_frame = next_start[v];
    next_start[v] += kOgSpacing;
    in.write_ogs.push_back(std::move(og));
    in.write_video.push_back(v);
    dg.Seq(dist::OgToSequence(in.write_ogs.back(), synth::SynthScaling()));
  }

  // Probe pool: members of every pattern drawn with another seed, so no
  // probe equals a stored OG. Zipf's head patterns recycle their members
  // once the pool runs out (reads bypass the result cache either way).
  const size_t per_pattern =
      std::clamp<size_t>(max_reads / kPatterns + 16, 32, 160);
  sp.items_per_cluster = per_pattern;
  sp.seed = SplitMix(&rng);
  const synth::SynthDataset pds = synth::GenerateSyntheticOgs(sp);
  in.probes = pds.Sequences(synth::SynthScaling());
  in.probes_by_pattern.assign(kPatterns, {});
  for (size_t i = 0; i < in.probes.size(); ++i) {
    in.probes_by_pattern[static_cast<size_t>(pds.labels[i])].push_back(i);
    dg.Seq(in.probes[i]);
  }

  // Clips: short lab/traffic scenes with sensor noise (mean shift runs),
  // rendered here so rendering never lands in a timed phase.
  std::vector<video::SceneSpec> scenes;
  for (size_t c = 0; c < kClips; ++c) {
    video::SceneParams scp;
    scp.num_objects = kClipObjects;
    scp.width = 160;
    scp.height = 120;
    scp.object_lifetime = 20;
    scp.spawn_gap = 8;
    scp.noise_stddev = 2.0;
    scp.seed = SplitMix(&rng);
    const bool traffic = c % 2 == 1;
    scenes.push_back(traffic ? video::MakeTrafficScene(scp)
                             : video::MakeLabScene(scp));
    in.clips.push_back({traffic ? "traffic" : "lab", {}});
  }
  {
    std::vector<std::thread> workers;
    for (size_t c = 0; c < kClips; ++c) {
      workers.emplace_back([&, c] {
        for (int t = 0; t < scenes[c].num_frames; ++t) {
          in.clips[c].frames.push_back(video::RenderFrame(scenes[c], t));
        }
      });
      if (workers.size() == 4 || c + 1 == kClips) {
        for (std::thread& w : workers) w.join();
        workers.clear();
      }
    }
  }
  for (const Clip& clip : in.clips) {
    for (const video::Frame& f : clip.frames) {
      dg.Bytes(f.pixels().data(), f.pixels().size() * sizeof(video::Rgb));
    }
  }
  in.digest = dg.h;
  return in;
}

ReadStream::ReadStream(const Inputs* in, bool zipf, uint64_t stream_seed,
                       std::vector<size_t>* cursors)
    : in_(in), zipf_(zipf), state_(in->seed ^ stream_seed), cursors_(cursors) {
  if (zipf_) {
    double total = 0.0;
    for (size_t p = 0; p < kPatterns; ++p) total += 1.0 / (p + 1.0);
    double acc = 0.0;
    for (size_t p = 0; p < kPatterns; ++p) {
      acc += 1.0 / (p + 1.0) / total;
      zipf_cdf_.push_back(acc);
    }
  }
}

ReadOp ReadStream::Next() {
  ReadOp op;
  const uint64_t pick = SplitMix(&state_) % 100;
  if (pick < 85) {
    op.kind = api::QuerySpec::Kind::kSimilar;
  } else if (pick < 95) {
    op.kind = api::QuerySpec::Kind::kRange;
  } else {
    op.kind = api::QuerySpec::Kind::kActive;
    op.video = SplitMix(&state_) % in_->video_names.size();
    const size_t frames = in_->base_segments[op.video].num_frames;
    op.first_frame = static_cast<int>(SplitMix(&state_) % frames);
    op.last_frame = op.first_frame + 40;
    return op;
  }
  size_t pattern = 0;
  if (zipf_) {
    const double u = static_cast<double>(SplitMix(&state_) >> 11) * 0x1.0p-53;
    pattern = static_cast<size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    pattern = std::min(pattern, kPatterns - 1);
  } else {
    pattern = SplitMix(&state_) % kPatterns;
  }
  const std::vector<size_t>& members = in_->probes_by_pattern[pattern];
  op.probe = members[(*cursors_)[pattern]++ % members.size()];
  return op;
}

api::QuerySpec SpecFor(const Inputs& in, const ReadOp& op) {
  switch (op.kind) {
    case api::QuerySpec::Kind::kSimilar:
      return api::QuerySpec::Similar(in.probes[op.probe], kKnnK);
    case api::QuerySpec::Kind::kRange:
      return api::QuerySpec::WithinRadius(in.probes[op.probe], kRangeRadius);
    case api::QuerySpec::Kind::kActive:
      break;
  }
  return api::QuerySpec::Active(in.video_names[op.video], op.first_frame,
                                op.last_frame);
}

}  // namespace strg::perfbench
