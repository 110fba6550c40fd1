#include "scenario.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <tuple>
#include <thread>

#include "distance/eged.h"
#include "synth/generator.h"

namespace strg::perfbench {

namespace fs = std::filesystem;

namespace {

const char* KindName(api::QuerySpec::Kind kind) {
  switch (kind) {
    case api::QuerySpec::Kind::kSimilar: return "read.knn";
    case api::QuerySpec::Kind::kRange: return "read.range";
    case api::QuerySpec::Kind::kActive: break;
  }
  return "read.active";
}

Clock::time_point Due(Clock::time_point start, size_t i, double rate) {
  return start + std::chrono::nanoseconds(
                     static_cast<int64_t>(std::llround(i * 1e9 / rate)));
}

/// Sleeps until shortly before `due`, then spins: a dispatcher that wakes
/// late would add its own lateness to every latency measured from due time.
void WaitUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(300);
  if (Clock::now() < due - kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

/// Open-loop read dispatcher: sends request i at start + i/rate whatever
/// the engine's state, then waits for every answer.
ReadLoad ReadLoop(World* w, double rate, Clock::time_point start,
                  size_t count, uint64_t stream_seed) {
  struct Slot {
    Clock::time_point due;
    std::atomic<int64_t> done_ns{0};
    std::atomic<bool> ok{false};
  };
  ReadLoad out;
  if (count == 0) return out;
  ReadStream stream(&w->in, w->cfg.zipf_probes, stream_seed, &w->cursors);
  std::unique_ptr<Slot[]> slots(new Slot[count]);
  std::vector<server::QueryHandle> handles;
  handles.reserve(count);
  out.late_ms.reserve(count);
  std::atomic<size_t> finished{0};
  server::QueryOptions opts;
  opts.use_cache = false;  // every read is answered cold by the index
  for (size_t i = 0; i < count; ++i) {
    const ReadOp op = stream.Next();
    api::QuerySpec spec = SpecFor(w->in, op);
    Slot& slot = slots[i];
    slot.due = Due(start, i, rate);
    WaitUntil(slot.due);
    const auto sent = Clock::now();
    out.late_ms.push_back(MsBetween(slot.due, sent));
    const int64_t request = w->next_request.fetch_add(1);
    const char* name = KindName(op.kind);
    handles.push_back(w->engine->Submit(
        spec, opts, [&slot, &finished, w, name, request](
                        const server::QueryResult& r) {
          const auto done = Clock::now();
          slot.done_ns.store((done - slot.due).count(),
                             std::memory_order_relaxed);
          slot.ok.store(r.status == api::StatusCode::kOk,
                        std::memory_order_relaxed);
          finished.fetch_add(1, std::memory_order_release);
          if (w->spans->enabled()) {
            w->spans->Add(name, slot.due, done, -1, request);
          }
        }));
  }
  out.backlog = count - finished.load(std::memory_order_acquire);
  for (server::QueryHandle& h : handles) h.Wait();
  out.attempted = count;
  out.lat_ms.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (!slots[i].ok.load(std::memory_order_relaxed)) continue;
    ++out.ok;
    out.lat_ms.push_back(slots[i].done_ns.load(std::memory_order_relaxed) /
                         1e6);
  }
  return out;
}

/// Acknowledges one written OG in the reference and the in-RAM mirror.
void NoteWrite(World* w, size_t video, const core::Og& og,
               const dist::FeatureScaling& scaling) {
  w->records.push_back({w->in.video_names[video], og.start_frame, og.Length(),
                        dist::OgToSequence(og, scaling)});
  w->mirror.AppendOg(w->catalog_index[video], og);
}

void NoteVideo(World* w, const std::string& name,
               const api::SegmentResult& seg) {
  const std::vector<dist::Sequence> seqs = seg.ObjectSequences();
  const auto& ogs = seg.decomposition.object_graphs;
  for (size_t i = 0; i < ogs.size(); ++i) {
    w->records.push_back({name, ogs[i].start_frame, ogs[i].Length(), seqs[i]});
  }
  storage::CatalogSegment cs;
  cs.video_name = name;
  cs.frame_width = seg.frame_width;
  cs.frame_height = seg.frame_height;
  cs.num_frames = seg.num_frames;
  cs.background = seg.decomposition.background;
  cs.ogs = ogs;
  w->mirror.AddSegment(std::move(cs));
}

/// One writer thread: AddObjectGraph at start + i/rate, latency from due.
WriteLoad WriteLoop(World* w, double rate, Clock::time_point start,
                    size_t count) {
  WriteLoad out;
  const dist::FeatureScaling scaling = synth::SynthScaling();
  for (size_t i = 0; i < count && w->write_cursor < w->in.write_ogs.size();
       ++i) {
    const size_t idx = w->write_cursor++;
    const size_t v = w->in.write_video[idx];
    const core::Og& og = w->in.write_ogs[idx];
    const auto due = Due(start, i, rate);
    WaitUntil(due);
    const auto sent = Clock::now();
    const bool ok = w->engine->AddObjectGraph(
        w->segment_ids[v], w->in.video_names[v], og, scaling);
    const auto done = Clock::now();
    ++out.attempted;
    if (w->spans->enabled()) {
      w->spans->Add("write.add_og", sent, done, -1, -1);
      w->write_us.push_back(UsBetween(sent, done));
    }
    if (!ok) continue;
    ++out.ok;
    out.lat_ms.push_back(MsBetween(due, done));
    NoteWrite(w, v, og, scaling);
  }
  return out;
}

}  // namespace

IngestLoad RunIngest(World* w, size_t passes) {
  IngestLoad out;
  // No pool: the pipeline runs inline on this thread. A pooled pipeline
  // hands every frame to another thread and back; on a shared host its
  // passes slowed by 20% as the neighbours' load rose, while
  // single-threaded set-up and restart held within 10%.
  api::PipelineParams params;
  const size_t clips = w->in.clips.size();
  auto pass_start = Clock::now();
  size_t pass_frames = 0;
  for (size_t n = 0; n < passes * clips; ++n) {
    if (n % clips == 0) {
      pass_start = Clock::now();
      pass_frames = 0;
    }
    const Clip& clip = w->in.clips[n % clips];
    const std::string name =
        "clip-" + std::to_string(w->clip_videos++) + "-" + clip.kind;
    const auto c0 = Clock::now();
    api::VideoPipeline pipeline(params);
    for (const video::Frame& f : clip.frames) pipeline.PushFrame(f);
    const api::SegmentResult seg = pipeline.Finish();
    w->ingest_stats += pipeline.stats();
    int segment_id = -1;
    const auto a0 = Clock::now();
    const bool ok = w->engine->AddVideo(name, seg, &segment_id);
    const auto a1 = Clock::now();
    if (w->spans->enabled()) {
      const int64_t parent = w->spans->Add("ingest.clip", c0, a1, -1, -1);
      w->spans->Add("server.add_video", a0, a1, parent, -1);
    }
    out.frames += clip.frames.size();
    pass_frames += clip.frames.size();
    ++out.videos;
    if (n % clips == clips - 1) {
      const double seconds = SecondsSince(pass_start);
      out.pass_fps.push_back(pass_frames / seconds);
      out.pass_seconds += seconds;
    }
    if (!ok) {
      ++out.failed;
      continue;
    }
    NoteVideo(w, name, seg);
  }
  return out;
}

namespace {

ReadLoad RunReads(World* w, double rate, double seconds, uint64_t seed) {
  const size_t count = static_cast<size_t>(std::llround(rate * seconds));
  return ReadLoop(w, rate, Clock::now() + std::chrono::milliseconds(2), count,
                  seed);
}

std::multiset<std::tuple<std::string, int, size_t>> Identities(
    const std::vector<Record>& records) {
  std::multiset<std::tuple<std::string, int, size_t>> out;
  for (const Record& r : records) out.insert({r.video, r.start_frame, r.length});
  return out;
}

std::multiset<std::tuple<std::string, int, size_t>> Identities(
    const storage::Catalog& catalog) {
  std::multiset<std::tuple<std::string, int, size_t>> out;
  for (const storage::CatalogSegment& s : catalog.segments()) {
    for (const core::Og& og : s.ogs) {
      out.insert({s.video_name, og.start_frame, og.Length()});
    }
  }
  return out;
}

uint64_t PathBytes(const std::string& path) {
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) return fs::file_size(path, ec);
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(path, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

std::vector<Answer> Answers(Engine* engine,
                            const std::vector<api::QuerySpec>& specs) {
  std::vector<Answer> out;
  for (const api::QuerySpec& s : specs) {
    out.push_back(Canonical(engine->Query(s).hits));
  }
  return out;
}

/// Two answers agree when distances match rank by rank, bit for bit, and
/// the clips match in every distance group but a kNN answer's last one,
/// which may hold any of the clips tied at the k-th distance (re-ingested
/// clips tie exactly, and a restart renumbers the ids that break ties).
bool SameServed(const api::QuerySpec& spec, const Answer& a, const Answer& b) {
  if (a.size() != b.size()) return false;
  size_t last_group = a.size();
  if (spec.kind == api::QuerySpec::Kind::kSimilar && !a.empty()) {
    last_group = a.size() - 1;
    while (last_group > 0 &&
           std::get<0>(a[last_group - 1]) == std::get<0>(a.back())) {
      --last_group;
    }
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::get<0>(a[i]) != std::get<0>(b[i])) return false;
    if (i < last_group && a[i] != b[i]) return false;
  }
  return true;
}

void CompareAnswers(const std::vector<api::QuerySpec>& specs,
                    const std::vector<Answer>& before,
                    const std::vector<Answer>& after, const char* what,
                    std::vector<std::string>* mismatches) {
  for (size_t i = 0; i < before.size(); ++i) {
    if (!SameServed(specs[i], before[i], after[i])) {
      mismatches->push_back(std::string(what) + ": answer " +
                            std::to_string(i) + " differs after restart");
    }
  }
}

/// The engine's pager and WAL counters now.
World::AtClose Counters(Engine* engine) {
  World::AtClose c;
  const server::ServerMetrics& m = engine->metrics();
  c.wal_syncs = m.wal_syncs.load();
  c.wal_bytes = m.wal_synced_bytes.load();
  c.compactions = m.wal_compactions.load();
  c.writes = m.ingests.load();
  if (server::DurableQueryEngine* d = AsDurable(engine)) {
    c.cache = d->paged_store()->cache_stats();
  }
  return c;
}

/// Opens an engine in `dir` (durable) or in RAM and ingests the base
/// catalog; returns the seconds from open until the last base video is
/// published. Exits on failure: nothing can be measured without a catalog.
double OpenAndLoad(World* w, const std::string& dir,
                   std::unique_ptr<Engine>* engine, std::vector<int>* ids) {
  const auto t0 = Clock::now();
  if (w->cfg.engine == EngineKind::kDurablePaged) {
    auto opened = OpenDurableEngine(dir, w->cache_bytes);
    if (!opened.ok()) {
      std::fprintf(stderr, "setup: %s\n", opened.status().ToString().c_str());
      std::exit(2);
    }
    *engine = std::move(opened).value();
  } else {
    *engine = MakeShardedEngine();
  }
  ids->assign(w->in.video_names.size(), -1);
  for (size_t v = 0; v < w->in.video_names.size(); ++v) {
    if (!(*engine)->AddVideo(w->in.video_names[v], w->in.base_segments[v],
                             &(*ids)[v])) {
      std::fprintf(stderr, "setup: AddVideo %s failed\n",
                   w->in.video_names[v].c_str());
      std::exit(2);
    }
  }
  const auto t1 = Clock::now();
  if (w->spans->enabled()) w->spans->Add("setup", t0, t1, -1, -1);
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

double SetUp(World* w) {
  w->catalog_index.assign(w->in.video_names.size(), 0);
  if (w->cfg.engine == EngineKind::kDurablePaged) {
    w->durable_dir = w->workdir + "/durable";
    std::error_code ec;
    fs::remove_all(w->durable_dir, ec);
    uint64_t leaf_bytes = 0;
    for (const api::SegmentResult& s : w->in.base_segments) {
      for (const core::Og& og : s.decomposition.object_graphs) {
        leaf_bytes += og.Length() * sizeof(dist::FeatureVec);
      }
    }
    const uint64_t page = 4096;
    w->cache_bytes = std::max<uint64_t>(
        16 * page, (leaf_bytes / kCacheDivisor + page - 1) / page * page);
  }
  const double seconds =
      OpenAndLoad(w, w->durable_dir, &w->engine, &w->segment_ids);
  for (size_t v = 0; v < w->in.video_names.size(); ++v) {
    w->catalog_index[v] = w->mirror.NumSegments();
    NoteVideo(w, w->in.video_names[v], w->in.base_segments[v]);
  }
  return seconds;
}

double SetUpAside(World* w, int rep) {
  const std::string dir = w->workdir + "/aside-" + std::to_string(rep);
  std::error_code ec;
  fs::remove_all(dir, ec);
  std::unique_ptr<Engine> engine;
  std::vector<int> ids;
  const double seconds = OpenAndLoad(w, dir, &engine, &ids);
  engine.reset();
  fs::remove_all(dir, ec);
  return seconds;
}

MixedLoad RunMixed(World* w, double read_rate, double write_rate,
                   double seconds, uint64_t stream_seed) {
  MixedLoad out;
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  std::thread writer;
  if (write_rate > 0.0) {
    const size_t count = static_cast<size_t>(std::llround(write_rate * seconds));
    writer = std::thread(
        [&] { out.writes = WriteLoop(w, write_rate, start, count); });
  }
  const size_t reads = static_cast<size_t>(std::llround(read_rate * seconds));
  out.reads = ReadLoop(w, read_rate, start, reads, stream_seed);
  if (writer.joinable()) writer.join();
  return out;
}

WriteLoad RunWrites(World* w, double rate, size_t count) {
  return WriteLoop(w, rate, Clock::now() + std::chrono::milliseconds(2),
                   count);
}

SloSearch SearchMaxQps(World* w, uint64_t stream_seed) {
  // Each step measures kStepReads reads, in 0.75 s to 2 s.
  constexpr double kStepReads = 250.0;
  constexpr double kGrowth = 1.3;
  constexpr size_t kMaxBracketSteps = 8;
  constexpr size_t kBisections = 3;
  const double slo = w->cfg.slo_p99_ms;
  SloSearch out;
  // One step: a discarded warm-up at the step's rate, then the measured
  // window. Failing reads, or a backlog above what the SLO allows in
  // flight, count as a p99 beyond the limit.
  auto step = [&](double rate, double* p99) {
    const uint64_t s = stream_seed + 2 * out.steps;
    const double seconds = std::clamp(kStepReads / rate, 0.75, 2.0);
    RunReads(w, rate, seconds / 3.0, s);
    const ReadLoad l = RunReads(w, rate, seconds, s + 1);
    ++out.steps;
    out.reads += l.attempted;
    *p99 = Percentile(l.lat_ms, 99);
    // A backlog grows when the step's last quarter waits much longer than
    // its first, or when more reads are in flight than the limit allows.
    const size_t q = l.lat_ms.size() / 4;
    const double first = Median({l.lat_ms.begin(), l.lat_ms.begin() + q});
    const double last = Median({l.lat_ms.end() - q, l.lat_ms.end()});
    const double max_backlog = std::max(8.0, rate * slo / 1000.0);
    const bool shed = l.ok != l.attempted || l.backlog > max_backlog ||
                      last > 2.0 * first + 1.0;
    if (shed) *p99 = std::max(*p99, 2.0 * slo);
    std::printf("  slo step %zu: %8.1f req/s  p50 %8.3f ms  p99 %8.3f ms  "
                "backlog %zu  failed %zu -> %s\n",
                out.steps, rate, Percentile(l.lat_ms, 50), *p99, l.backlog,
                l.attempted - l.ok, *p99 <= slo ? "meets SLO" : "misses SLO");
    return *p99 <= slo;
  };
  double lo = 0.0, lo_p99 = 0.0, hi = 0.0, hi_p99 = 0.0;
  double rate = w->cfg.slo_start_rate;
  double p99 = 0.0;
  if (step(rate, &p99)) {
    lo = rate, lo_p99 = p99;
    for (size_t i = 0; i < kMaxBracketSteps && hi == 0.0; ++i) {
      rate *= kGrowth;
      if (step(rate, &p99)) {
        lo = rate, lo_p99 = p99;
      } else {
        hi = rate, hi_p99 = p99;
      }
    }
  } else {
    hi = rate, hi_p99 = p99;
    for (size_t i = 0; i < kMaxBracketSteps && lo == 0.0; ++i) {
      rate /= kGrowth;
      if (step(rate, &p99)) {
        lo = rate, lo_p99 = p99;
      } else {
        hi = rate, hi_p99 = p99;
      }
    }
  }
  if (lo == 0.0 || hi == 0.0) {
    out.max_qps = lo;  // never failed (or never passed) inside the range
    return out;
  }
  for (size_t b = 0; b < kBisections; ++b) {
    const double mid = std::sqrt(lo * hi);
    if (step(mid, &p99)) {
      lo = mid, lo_p99 = p99;
    } else {
      hi = mid, hi_p99 = p99;
    }
  }
  // Where p99 crosses the limit between the last passing and the first
  // failing rate (linear in p99).
  const double f = std::clamp((slo - lo_p99) / (hi_p99 - lo_p99), 0.0, 1.0);
  out.max_qps = lo + f * (hi - lo);
  return out;
}

std::vector<api::QuerySpec> CheckSpecs(const World& w) {
  std::vector<api::QuerySpec> specs;
  uint64_t x = w.in.seed * 6364136223846793005ull + 1442695040888963407ull;
  auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 17;
  };
  const size_t n = w.in.probes.size();
  for (int i = 0; i < 12; ++i) {
    specs.push_back(api::QuerySpec::Similar(w.in.probes[next() % n], kKnnK));
  }
  for (int i = 0; i < 4; ++i) {
    specs.push_back(
        api::QuerySpec::WithinRadius(w.in.probes[next() % n], kRangeRadius));
  }
  for (int i = 0; i < 4; ++i) {
    const size_t v = next() % w.in.video_names.size();
    const int first = static_cast<int>(
        next() % std::max<size_t>(1, w.in.base_segments[v].num_frames));
    specs.push_back(api::QuerySpec::Active(w.in.video_names[v], first,
                                           first + 40));
  }
  return specs;
}

Answer Canonical(const std::vector<api::VideoDatabase::QueryHit>& hits) {
  Answer a;
  for (const auto& h : hits) {
    a.emplace_back(h.distance, h.video, h.start_frame, h.length);
  }
  std::sort(a.begin(), a.end());
  return a;
}

void CheckAgainstBruteForce(World* w, const std::vector<api::QuerySpec>& specs,
                            std::vector<std::string>* mismatches) {
  std::vector<Answer> expected(specs.size());
  std::vector<std::thread> workers;
  for (size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < specs.size(); i += 4) {
        const api::QuerySpec& s = specs[i];
        Answer& e = expected[i];
        for (const Record& r : w->records) {
          if (s.kind == api::QuerySpec::Kind::kActive) {
            const int end = r.start_frame + static_cast<int>(r.length) - 1;
            if (r.video == s.video && end >= s.first_frame &&
                r.start_frame <= s.last_frame) {
              e.emplace_back(0.0, r.video, r.start_frame, r.length);
            }
            continue;
          }
          const double d = dist::EgedMetric(s.sequence, r.sequence);
          if (s.kind == api::QuerySpec::Kind::kSimilar || d <= s.radius) {
            e.emplace_back(d, r.video, r.start_frame, r.length);
          }
        }
        std::sort(e.begin(), e.end());
        if (s.kind == api::QuerySpec::Kind::kSimilar && e.size() > s.k) {
          e.resize(s.k);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (size_t i = 0; i < specs.size(); ++i) {
    const Answer got = Canonical(w->engine->Query(specs[i]).hits);
    if (!SameServed(specs[i], expected[i], got)) {
      mismatches->push_back(
          std::string(KindName(specs[i].kind)) + " check " +
          std::to_string(i) + ": served " + std::to_string(got.size()) +
          " hits, brute force " + std::to_string(expected[i].size()) +
          (got.size() == expected[i].size() ? " (values differ)" : ""));
    }
  }
}

Restart CloseAndReopen(World* w, const std::vector<api::QuerySpec>& specs,
                       std::vector<std::string>* mismatches) {
  Restart out;
  const std::vector<Answer> before = Answers(w->engine.get(), specs);
  const World::AtClose now = Counters(w->engine.get());
  World::AtClose& ac = w->at_close;
  const World::AtClose& base = w->at_open;
  ac.wal_syncs += now.wal_syncs - base.wal_syncs;
  ac.wal_bytes += now.wal_bytes - base.wal_bytes;
  ac.compactions += now.compactions - base.compactions;
  ac.writes += now.writes - base.writes;
  ac.cache.hits += now.cache.hits - base.cache.hits;
  ac.cache.misses += now.cache.misses - base.cache.misses;
  ac.cache.evictions += now.cache.evictions - base.cache.evictions;
  ac.cache.write_backs += now.cache.write_backs - base.cache.write_backs;
  if (w->cfg.engine == EngineKind::kDurablePaged) {
    server::DurableQueryEngine* d = AsDurable(w->engine.get());
    const uint64_t catalog_bytes = d->catalog().Serialize().size();
    if (!d->Sync().ok()) mismatches->push_back("durable: Sync failed");
    w->engine.reset();  // clean close
    const uint64_t bytes = PathBytes(w->durable_dir);
    w->store_bytes = bytes;
    out.space_amp =
        static_cast<double>(bytes) / static_cast<double>(catalog_bytes);
    const auto t0 = Clock::now();
    auto reopened = OpenDurableEngine(w->durable_dir, w->cache_bytes);
    out.recover_s = SecondsSince(t0);
    if (!reopened.ok()) {
      mismatches->push_back("durable: reopen failed: " +
                            reopened.status().ToString());
      return out;
    }
    w->engine = std::move(reopened).value();
    d = AsDurable(w->engine.get());
    w->recovery = d->recovery();
    if (Identities(d->catalog()) != Identities(w->records)) {
      mismatches->push_back("durable: acknowledged OGs missing after reopen");
    }
  } else {
    // The paged snapshot format the durable engine writes (catalog.pages).
    const std::string path = w->workdir + "/catalog.pages";
    storage::StorageParams sp;
    sp.paged = true;
    if (!w->mirror.TrySaveToPagedFile(path, sp).ok()) {
      mismatches->push_back("in-RAM: catalog snapshot save failed");
      return out;
    }
    const uint64_t catalog_bytes = w->mirror.Serialize().size();
    w->engine.reset();
    const uint64_t bytes = PathBytes(path);
    w->store_bytes = bytes;
    out.space_amp =
        static_cast<double>(bytes) / static_cast<double>(catalog_bytes);
    const auto t0 = Clock::now();
    auto loaded = storage::Catalog::TryLoadFromPagedFile(path, sp);
    w->snapshot_load_s = SecondsSince(t0);
    if (!loaded.ok()) {
      mismatches->push_back("in-RAM: catalog reload failed");
      return out;
    }
    w->engine = MakeShardedEngine();
    for (const storage::CatalogSegment& s : loaded.value().segments()) {
      api::SegmentResult seg;
      seg.num_frames = s.num_frames;
      seg.frame_width = s.frame_width;
      seg.frame_height = s.frame_height;
      seg.decomposition.background = s.background;
      seg.decomposition.object_graphs = s.ogs;
      int segment_id = -1;
      w->engine->AddVideo(s.video_name, seg, &segment_id);
    }
    out.recover_s = SecondsSince(t0);
    if (Identities(loaded.value()) != Identities(w->records)) {
      mismatches->push_back("in-RAM: acknowledged OGs missing after reload");
    }
  }
  w->at_open = Counters(w->engine.get());
  CompareAnswers(specs, before, Answers(w->engine.get(), specs),
                 w->cfg.name.c_str(), mismatches);
  return out;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace strg::perfbench
