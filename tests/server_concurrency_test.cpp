// ctest-labels: server
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "server/query_engine.h"
#include "synth/generator.h"

namespace strg::server {
namespace {

/// Cheap segment fixture: synthetic OGs + empty background, with 100x100
/// frame geometry so SegmentResult::Scaling() matches synth::SynthScaling()
/// — queries built from the same dataset are then directly comparable.
struct Fixture {
  api::SegmentResult segment;           ///< first `base` OGs
  std::vector<core::Og> stream;         ///< OGs the writer threads ingest
  std::vector<dist::Sequence> queries;  ///< probe sequences
};

Fixture MakeFixture(size_t base, uint64_t seed) {
  synth::SynthParams sp;
  sp.items_per_cluster = 1;  // one OG per pattern -> 48 total
  sp.seed = seed;
  synth::SynthDataset ds = synth::GenerateSyntheticOgs(sp);

  Fixture fx;
  fx.segment.frame_width = 100;
  fx.segment.frame_height = 100;
  size_t frames = 0;
  for (size_t i = 0; i < ds.ogs.size(); ++i) {
    const core::Og& og = ds.ogs[i];
    frames = std::max(frames, static_cast<size_t>(og.start_frame) +
                                  og.Length());
    if (i < base) {
      fx.segment.decomposition.object_graphs.push_back(og);
    } else {
      fx.stream.push_back(og);
    }
  }
  fx.segment.num_frames = frames;
  fx.queries = ds.Sequences(synth::SynthScaling());
  return fx;
}

index::StrgIndexParams FastIndex() {
  index::StrgIndexParams p;
  p.num_clusters = 4;
  p.cluster_params.max_iterations = 4;
  return p;
}

/// The central invariant: AddVideo publishes generation 1 holding `base`
/// OGs, and every later publication adds exactly one OG, so any snapshot
/// must answer exhaustive queries with exactly base + (generation - 1)
/// hits. A torn read (query observing a half-inserted tree) breaks this.
size_t ExpectedOgs(size_t base, uint64_t generation) {
  return base + static_cast<size_t>(generation - 1);
}

// Run at one shard and at four: with four, the writers stream into the one
// video's shard while three shards stay empty, so a result's generation
// must follow the snapshot its leg read, not the engine counter at Submit.
TEST(ServerConcurrency, WritersAndReadersSeeConsistentGenerations) {
  constexpr size_t kBase = 16;
  constexpr size_t kWriters = 2;
  constexpr size_t kOgsPerWriter = 10;
  constexpr size_t kReaders = 4;
  constexpr size_t kQueriesPerReader = 40;

  Fixture fx = MakeFixture(kBase, 7);
  ASSERT_GE(fx.stream.size(), kWriters * kOgsPerWriter);

  for (size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EngineOptions opts;
    opts.num_shards = shards;
    opts.num_threads = 4;
    opts.max_pending = 256;
    QueryEngine engine(FastIndex(), opts);

    int segment_id = -1;
    uint64_t gen = engine.AddVideo("lab", fx.segment, &segment_id);
    ASSERT_EQ(gen, 1u);
    ASSERT_EQ(segment_id, 0);

    const dist::FeatureScaling scaling = synth::SynthScaling();
    std::atomic<bool> failed{false};

    std::vector<std::thread> writers;
    for (size_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (size_t i = 0; i < kOgsPerWriter; ++i) {
          const core::Og& og = fx.stream[w * kOgsPerWriter + i];
          uint64_t g = engine.AddObjectGraph(segment_id, "lab", og, scaling);
          if (g < 2) failed.store(true);
        }
      });
    }

    std::vector<std::thread> readers;
    for (size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        uint64_t last_gen = 0;
        for (size_t i = 0; i < kQueriesPerReader; ++i) {
          const dist::Sequence& q =
              fx.queries[(r * 13 + i) % fx.queries.size()];
          QueryOptions qo;
          qo.use_cache = (r % 2 == 0);  // exercise both paths concurrently
          QueryResult res;
          switch (i % 3) {
            case 0:
              res = engine.Query(api::QuerySpec::Similar(q, 100000), qo);
              break;
            case 1:
              res = engine.Query(api::QuerySpec::WithinRadius(q, 1e12), qo);
              break;
            default:
              res = engine.Query(api::QuerySpec::Active("lab", 0, 1 << 30),
                                 qo);
              break;
          }
          if (res.status != StatusCode::kOk) {
            failed.store(true);
            continue;
          }
          // Exhaustive queries must see exactly the published OG count for
          // the generation they report — never a half-inserted tree.
          EXPECT_EQ(res.hits.size(), ExpectedOgs(kBase, res.generation))
              << "generation " << res.generation;
          EXPECT_GE(res.generation, last_gen) << "generation went backwards";
          last_gen = res.generation;
        }
      });
    }

    for (auto& t : writers) t.join();
    for (auto& t : readers) t.join();
    EXPECT_FALSE(failed.load());

    const size_t total = kBase + kWriters * kOgsPerWriter;
    EXPECT_EQ(engine.Generation(), 1 + kWriters * kOgsPerWriter);
    QueryResult fin =
        engine.Query(api::QuerySpec::Similar(fx.queries[0], 100000));
    ASSERT_EQ(fin.status, StatusCode::kOk);
    EXPECT_EQ(fin.hits.size(), total);
    const size_t lab_shard = QueryEngine::ShardFor("lab", shards);
    EXPECT_EQ(engine.shard(lab_shard).snapshot()->db.NumObjectGraphs(),
              total);
  }
}

// Writers stream into several videos on different shards while cached
// fan-out readers run. Each AddObjectGraph publishes one OG with the next
// global og id and the next generation, so the OGs a generation K holds are
// exactly the ids below ids_at(K). Every answer must hold no OG newer than its
// generation and every OG acknowledged before its Submit (read-your-writes);
// a cache hit must hold exactly the OGs of its generation, i.e. what an
// uncached query at that state returns.
TEST(ServerConcurrency, MultiShardWritersKeepCacheHitsExact) {
  constexpr size_t kBase = 8;
  constexpr size_t kShards = 4;
  constexpr size_t kVideos = 3;
  constexpr size_t kWriters = 2;
  constexpr size_t kRounds = 100;
  constexpr size_t kReaders = 4;
  constexpr size_t kMinQueries = 40;

  Fixture fx = MakeFixture(kBase, 17);
  ASSERT_FALSE(fx.stream.empty());

  // The first kVideos names that land on distinct shards.
  std::vector<std::string> videos;
  std::vector<size_t> used;
  for (int i = 0; videos.size() < kVideos; ++i) {
    std::string name = "cam" + std::to_string(i);
    size_t s = QueryEngine::ShardFor(name, kShards);
    if (std::find(used.begin(), used.end(), s) != used.end()) continue;
    used.push_back(s);
    videos.push_back(name);
  }

  EngineOptions opts;
  opts.num_shards = kShards;
  opts.num_threads = 4;
  QueryEngine engine(FastIndex(), opts);
  std::vector<int> segment_ids(kVideos, -1);
  for (size_t v = 0; v < kVideos; ++v) {
    engine.AddVideo(videos[v], fx.segment, &segment_ids[v]);
  }
  const uint64_t setup_gen = engine.Generation();
  const size_t setup_ogs = kVideos * kBase;
  // Number of OGs generation `g` holds (the ids below it).
  auto ids_at = [&](uint64_t g) {
    return setup_ogs + static_cast<size_t>(g - setup_gen);
  };

  const dist::FeatureScaling scaling = synth::SynthScaling();
  std::atomic<uint64_t> acked{setup_gen};
  std::atomic<bool> failed{false};

  // Each round publishes one OG per video back to back, so consecutive
  // generations land on different shards, then pauses so readers repeat
  // queries (and hit the cache) at that state.
  std::atomic<int> writers_running{static_cast<int>(kWriters)};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kRounds; ++i) {
        for (size_t v = 0; v < kVideos; ++v) {
          const core::Og& og =
              fx.stream[(w * 11 + i * kVideos + v) % fx.stream.size()];
          uint64_t g = engine.AddObjectGraph(segment_ids[v], videos[v], og,
                                             scaling);
          uint64_t prev = acked.load();
          while (prev < g && !acked.compare_exchange_weak(prev, g)) {
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      writers_running.fetch_sub(1);
    });
  }

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_gen = 0;
      for (size_t i = 0; i < kMinQueries || writers_running.load() > 0; ++i) {
        // Few distinct probes so repeats hit the cache under live writes.
        const dist::Sequence& q = fx.queries[(r + i) % 2];
        const api::QuerySpec spec =
            i % 2 == 0 ? api::QuerySpec::WithinRadius(q, 1e12)
                       : api::QuerySpec::Similar(q, 100000);
        const uint64_t acked_before = acked.load();
        QueryResult res = engine.Query(spec);
        if (res.status != StatusCode::kOk) {
          failed.store(true);
          continue;
        }
        std::vector<size_t> ids;
        for (const auto& h : res.hits) ids.push_back(h.og_id);
        std::sort(ids.begin(), ids.end());
        EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
            << "duplicate og id";
        // Nothing newer than the reported generation.
        EXPECT_TRUE(ids.empty() || ids.back() < ids_at(res.generation))
            << "generation " << res.generation << " holds og " << ids.back();
        // Read-your-writes: every OG acknowledged before Submit.
        EXPECT_GE(res.generation, acked_before);
        EXPECT_GE(ids.size(), ids_at(acked_before))
            << "generation " << res.generation << ", acked " << acked_before;
        if (res.from_cache) {
          EXPECT_EQ(ids.size(), ids_at(res.generation))
              << "cache hit at generation " << res.generation
              << " misses an OG of that generation";
        }
        EXPECT_GE(res.generation, last_gen) << "generation went backwards";
        last_gen = res.generation;
      }
    });
  }

  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  // At rest, a cache hit is bit-identical to an uncached answer. (The
  // stream repeats OGs, so distances tie; an exhaustive query keeps the
  // comparison free of which tied OG a top-k boundary happens to keep.)
  const api::QuerySpec spec =
      api::QuerySpec::WithinRadius(fx.queries[0], 1e12);
  engine.Query(spec);
  QueryResult hit = engine.Query(spec);
  QueryOptions no_cache;
  no_cache.use_cache = false;
  QueryResult fresh = engine.Query(spec, no_cache);
  ASSERT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.generation, fresh.generation);
  ASSERT_EQ(hit.hits.size(), fresh.hits.size());
  for (size_t i = 0; i < hit.hits.size(); ++i) {
    EXPECT_EQ(hit.hits[i].og_id, fresh.hits[i].og_id);
    EXPECT_EQ(hit.hits[i].distance, fresh.hits[i].distance);
  }
  EXPECT_EQ(fresh.hits.size(), ids_at(fresh.generation));
  EXPECT_EQ(engine.Generation(), setup_gen + kWriters * kRounds * kVideos);
}

TEST(ServerConcurrency, SnapshotsAreImmutableWhileIngestContinues) {
  constexpr size_t kBase = 12;
  Fixture fx = MakeFixture(kBase, 11);

  EngineOptions opts;
  opts.num_threads = 2;
  QueryEngine engine(FastIndex(), opts);
  int segment_id = -1;
  engine.AddVideo("lab", fx.segment, &segment_id);

  const dist::FeatureScaling scaling = synth::SynthScaling();
  std::thread writer([&] {
    for (const core::Og& og : fx.stream) {
      engine.AddObjectGraph(segment_id, "lab", og, scaling);
    }
  });

  // A retained snapshot is a frozen generation: repeated serial replays on
  // it must agree with each other — and with its recorded OG count — no
  // matter how many newer generations the writer publishes meanwhile.
  for (int round = 0; round < 10; ++round) {
    std::shared_ptr<const Snapshot> snap = engine.snapshot();
    const size_t count = snap->db.NumObjectGraphs();
    EXPECT_EQ(count, ExpectedOgs(kBase, snap->generation));
    const dist::Sequence& q = fx.queries[round % fx.queries.size()];
    auto first = snap->db.Query(api::QuerySpec::Similar(q, 5));
    auto second = snap->db.Query(api::QuerySpec::Similar(q, 5));
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].og_id, second[i].og_id);
      EXPECT_DOUBLE_EQ(first[i].distance, second[i].distance);
    }
    EXPECT_EQ(snap->db.NumObjectGraphs(), count);
  }

  writer.join();
}

TEST(ServerConcurrency, CacheServesRepeatsAndGenerationBumpInvalidates) {
  Fixture fx = MakeFixture(8, 3);
  QueryEngine engine(FastIndex());
  int segment_id = -1;
  engine.AddVideo("lab", fx.segment, &segment_id);

  const dist::Sequence& q = fx.queries[2];
  QueryResult cold = engine.Query(api::QuerySpec::Similar(q, 4));
  ASSERT_EQ(cold.status, StatusCode::kOk);
  EXPECT_FALSE(cold.from_cache);

  QueryResult warm = engine.Query(api::QuerySpec::Similar(q, 4));
  ASSERT_EQ(warm.status, StatusCode::kOk);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.generation, cold.generation);
  ASSERT_EQ(warm.hits.size(), cold.hits.size());
  for (size_t i = 0; i < warm.hits.size(); ++i) {
    EXPECT_EQ(warm.hits[i].og_id, cold.hits[i].og_id);
  }
  EXPECT_GE(engine.metrics().cache_hits.load(), 1u);

  // Publishing a new generation re-keys the world: the same request is a
  // miss again and reflects the new OG.
  engine.AddObjectGraph(segment_id, "lab", fx.stream[0],
                        synth::SynthScaling());
  QueryResult after = engine.Query(api::QuerySpec::Similar(q, 4));
  ASSERT_EQ(after.status, StatusCode::kOk);
  EXPECT_FALSE(after.from_cache);
  EXPECT_EQ(after.generation, cold.generation + 1);
}

TEST(ServerConcurrency, ZeroAdmissionBudgetRejectsWithOverloaded) {
  Fixture fx = MakeFixture(8, 5);
  EngineOptions opts;
  opts.max_pending = 0;
  QueryEngine engine(FastIndex(), opts);
  engine.AddVideo("lab", fx.segment);

  QueryResult res = engine.Query(api::QuerySpec::Similar(fx.queries[0], 3));
  EXPECT_EQ(res.status, StatusCode::kOverloaded);
  EXPECT_TRUE(res.hits.empty());
  EXPECT_EQ(res.generation, 0u);
  EXPECT_GE(engine.metrics().rejected_overloaded.load(), 1u);
  EXPECT_EQ(StatusCodeName(res.status), "OVERLOADED");
}

TEST(ServerConcurrency, ExpiredDeadlineYieldsDeadlineExceeded) {
  Fixture fx = MakeFixture(8, 9);
  QueryEngine engine(FastIndex());
  engine.AddVideo("lab", fx.segment);

  QueryOptions qo;
  qo.timeout = std::chrono::microseconds(-1);  // expired on arrival
  QueryResult res = engine.Query(api::QuerySpec::Similar(fx.queries[1], 3), qo);
  EXPECT_EQ(res.status, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(res.hits.empty());
  const auto& m = engine.metrics();
  EXPECT_GE(m.deadline_exceeded.load() + m.expired_in_queue.load(), 1u);

  // The engine keeps serving normally afterwards.
  QueryResult ok = engine.Query(api::QuerySpec::Similar(fx.queries[1], 3));
  EXPECT_EQ(ok.status, StatusCode::kOk);
  EXPECT_EQ(ok.hits.size(), 3u);
}

TEST(ServerConcurrency, MetricsJsonReportsServingState) {
  Fixture fx = MakeFixture(8, 13);
  QueryEngine engine(FastIndex());
  engine.AddVideo("lab", fx.segment);
  engine.Query(api::QuerySpec::Similar(fx.queries[0], 2));
  engine.Query(api::QuerySpec::Similar(fx.queries[0], 2));  // cache hit
  engine.Query(api::QuerySpec::WithinRadius(fx.queries[1], 1.0));
  engine.Query(api::QuerySpec::Active("lab", 0, 100));

  std::string json = engine.MetricsJson();
  EXPECT_NE(json.find("\"generation\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"hit_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\":0"), std::string::npos) << json;
  EXPECT_GE(engine.metrics().cache_hits.load(), 1u);
  EXPECT_GE(engine.metrics().admitted.load(), 3u);
}

}  // namespace
}  // namespace strg::server
