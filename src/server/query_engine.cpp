#include "server/query_engine.h"

#include <algorithm>
#include <bit>
#include <exception>
#include <limits>
#include <utility>

namespace strg::server {

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Routing hash seed — distinct from the cache's digest seed so video
/// placement and result keying are independent hash families.
constexpr uint64_t kShardSeed = 0x5354524753484152ULL;  // "STRGSHAR"

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// A result carrying only a non-OK status and its latency so far.
QueryResult StatusOnly(StatusCode status, Clock::time_point start) {
  QueryResult r;
  r.status = status;
  r.latency_micros = MicrosSince(start);
  return r;
}

/// Per-kind latency histogram (attribution parity with the old dedicated
/// entry points).
LatencyHistogram* HistogramFor(ServerMetrics* m, api::QuerySpec::Kind kind) {
  switch (kind) {
    case api::QuerySpec::Kind::kSimilar:
      return &m->knn_latency;
    case api::QuerySpec::Kind::kRange:
      return &m->range_latency;
    case api::QuerySpec::Kind::kActive:
      return &m->active_latency;
  }
  return &m->knn_latency;
}

/// Global result order: distance, then global og id. Matches both the
/// single-index kNN resolve order and (trivially, all distances equal)
/// the ascending-id order of range ties and kActive scans.
bool HitBefore(const api::VideoDatabase::QueryHit& a,
               const api::VideoDatabase::QueryHit& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.og_id < b.og_id;
}

}  // namespace

bool RequestState::TryFinalize(QueryResult r) {
  bool expected = false;
  // acq_rel: the winner's writes to `result` (under mu) must be visible to
  // a loser that observes finalized == true and then reads via WaitDone.
  if (!finalized.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return false;
  }
  if (metrics != nullptr) metrics->NoteStatus(r.status);
  // Callback strictly before waiters are released: when Wait()/Query()
  // returns, the completion callback has already run (callers can tear
  // down whatever the callback touches as soon as Wait returns).
  if (on_complete) on_complete(r);
  {
    MutexLock lock(mu);
    result = std::move(r);
    done = true;
  }
  cv.NotifyAll();
  return true;
}

bool RequestState::Done() const {
  MutexLock lock(mu);
  return done;
}

QueryResult RequestState::WaitDone() {
  MutexLock lock(mu);
  while (!done) cv.Wait(mu);
  return result;
}

void QueryHandle::Cancel() {
  if (state_ == nullptr) return;
  state_->cancel_requested.store(true, std::memory_order_relaxed);
  // Finalize now so waiters/callbacks see kCancelled immediately; a leg
  // already running keeps going, loses the CAS, and the last leg releases
  // the admission slot.
  state_->TryFinalize(StatusOnly(StatusCode::kCancelled, state_->start));
}

QueryResult QueryHandle::Wait() {
  if (state_ == nullptr) return {};
  RequestState& st = *state_;
  if (!st.has_deadline) return st.WaitDone();

  {
    MutexLock lock(st.mu);
    while (!st.done) {
      if (!st.cv.WaitUntil(st.mu, st.deadline)) break;
    }
    if (st.done) return st.result;
  }
  // Deadline passed while legs are still queued or running. They keep the
  // admission slot until the last one retires; finalize the caller-visible
  // outcome here (first finalizer wins — the last leg may race us with the
  // real result, in which case we return that instead).
  if (st.TryFinalize(StatusOnly(StatusCode::kDeadlineExceeded, st.start)) &&
      st.metrics != nullptr) {
    st.metrics->deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
  }
  return st.WaitDone();
}

/// One request's scatter-gather rendezvous, shared by its leg tasks.
struct QueryEngine::Gather {
  std::shared_ptr<RequestState> state;
  api::QuerySpec spec;
  uint64_t digest = 0;
  /// Submit's cache key: the largest head stamp among the target shards.
  uint64_t cache_generation = 0;
  bool use_cache = true;
  LatencyHistogram* histogram = nullptr;

  /// Legs not yet finished; the leg that drops this to zero completes the
  /// request (and releases the admission token).
  std::atomic<int> legs_remaining{0};
  /// Running worst-of-k distance (bit pattern of a double), readable
  /// without the merge lock. Starts +inf; only ever tightens, and only
  /// once `merged` holds k hits — so it is always an upper bound on the
  /// true global k-th distance and pruning with it stays exact.
  std::atomic<uint64_t> tau_bits{std::bit_cast<uint64_t>(kInf)};

  Mutex merge_mu{LockRank::kGatherMerge};
  /// kSimilar: kept sorted by HitBefore and truncated to k on every merge.
  /// kRange/kActive: appended, sorted once at completion.
  std::vector<api::VideoDatabase::QueryHit> merged STRG_GUARDED_BY(merge_mu);
  /// Largest generation stamp among the snapshots merged so far.
  uint64_t generation STRG_GUARDED_BY(merge_mu) = 0;
};

QueryEngine::QueryEngine(index::StrgIndexParams params, EngineOptions opts)
    : opts_(opts),
      cache_(opts.cache_capacity, opts.cache_shards),
      runtime_([&] {
        AsyncRuntime::Options ro;
        ro.num_threads = opts.num_threads;
        // Every admitted request posts at most one leg per shard, so this
        // bound never sheds a leg that admission let through.
        ro.max_queue = opts.max_pending * std::max<size_t>(opts.num_shards, 1);
        return ro;
      }()) {
  // Every shard starts from one shared, immutable, empty generation 0.
  auto genesis = std::make_shared<Snapshot>();
  genesis->db = api::VideoDatabase(params);
  for (size_t s = 0; s < std::max<size_t>(opts.num_shards, 1); ++s) {
    shards_.push_back(std::make_unique<Shard>(genesis));
  }
}

size_t QueryEngine::ShardFor(std::string_view video, size_t num_shards) {
  if (num_shards <= 1) return 0;
  return HashBytes(video.data(), video.size(), kShardSeed) % num_shards;
}

template <typename MutateFn>
uint64_t QueryEngine::Publish(Clock::time_point start, size_t s,
                              size_t new_ogs, MutateFn&& mutate) {
  SnapshotHolder& head = shards_[s]->head;
  std::shared_ptr<const Snapshot> cur = head.load();
  auto next = std::make_shared<Snapshot>();
  next->db = cur->db.Clone();
  mutate(&next->db);
  next->global_ids = cur->global_ids;
  for (size_t i = 0; i < new_ogs; ++i) {
    next->global_ids.push_back(next_og_id_++);
  }
  const uint64_t generation = generation_.load(std::memory_order_relaxed) + 1;
  next->generation = generation;
  head.store(std::shared_ptr<const Snapshot>(std::move(next)));
  generation_.store(generation, std::memory_order_release);
  metrics_.ingests.fetch_add(1, std::memory_order_relaxed);
  metrics_.snapshots_published.fetch_add(1, std::memory_order_relaxed);
  metrics_.ingest_latency.Record(MicrosSince(start));
  return generation;
}

uint64_t QueryEngine::AddVideo(const std::string& name,
                               const api::SegmentResult& segment,
                               int* segment_id) {
  const auto start = Clock::now();
  const size_t s = ShardFor(name, shards_.size());
  MutexLock lock(writer_mu_);
  int local = -1;
  const size_t ogs = segment.decomposition.object_graphs.size();
  const uint64_t generation =
      Publish(start, s, ogs, [&](api::VideoDatabase* db) {
        local = db->AddVideo(name, segment);
      });
  if (segment_id != nullptr) *segment_id = static_cast<int>(segments_.size());
  segments_.emplace_back(s, local);
  return generation;
}

uint64_t QueryEngine::AddObjectGraph(int segment_id, const std::string& video,
                                     const core::Og& og,
                                     const dist::FeatureScaling& scaling) {
  const auto start = Clock::now();
  MutexLock lock(writer_mu_);
  const std::pair<size_t, int> seg =
      segments_.at(static_cast<size_t>(segment_id));
  return Publish(start, seg.first, 1, [&](api::VideoDatabase* db) {
    db->AddObjectGraph(seg.second, video, og, scaling);
  });
}

void QueryEngine::RestoreGeneration(uint64_t generation) {
  MutexLock lock(writer_mu_);
  if (generation <= generation_.load(std::memory_order_relaxed)) return;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    auto next = std::make_shared<Snapshot>(*shard->head.load());
    next->generation = generation;
    shard->head.store(std::shared_ptr<const Snapshot>(std::move(next)));
  }
  generation_.store(generation, std::memory_order_release);
}

QueryHandle QueryEngine::Submit(const api::QuerySpec& spec,
                                const QueryOptions& opts,
                                CompletionFn on_complete) {
  const auto start = Clock::now();
  LatencyHistogram* histogram = HistogramFor(&metrics_, spec.kind);

  auto state = std::make_shared<RequestState>();
  state->start = start;
  state->has_deadline = opts.timeout.count() != 0;
  state->deadline = start + opts.timeout;
  state->on_complete = std::move(on_complete);
  state->metrics = &metrics_;
  QueryHandle handle(state);

  // Routing: a shard_hint restricts any kind to that shard; kActive touches
  // exactly the shard owning the video; everything else fans out.
  const bool hinted = opts.shard_hint >= 0 &&
                      static_cast<size_t>(opts.shard_hint) < shards_.size();
  std::vector<size_t> targets;
  if (hinted) {
    targets.push_back(static_cast<size_t>(opts.shard_hint));
  } else if (spec.kind == api::QuerySpec::Kind::kActive) {
    targets.push_back(ShardFor(spec.video, shards_.size()));
  } else {
    targets.reserve(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) targets.push_back(s);
  }
  // One digest at the API edge keys the cache for every kind; a hinted
  // answer covers one shard only, so it keys apart from the full one.
  uint64_t digest = spec.Digest();
  if (hinted) {
    digest = HashBytes(&opts.shard_hint, sizeof(opts.shard_hint), digest);
  }

  // Fast path: serve repeated queries from the result cache on the calling
  // thread — no admission slot, no runtime round-trip. The key is the
  // generation the legs would report if they ran now.
  uint64_t cache_generation = 0;
  if (opts.use_cache) {
    for (size_t s : targets) {
      cache_generation =
          std::max(cache_generation, shards_[s]->snapshot()->generation);
    }
    QueryResult result;
    result.generation = cache_generation;
    if (cache_.Get({digest, cache_generation}, &result.hits)) {
      metrics_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      result.from_cache = true;
      result.latency_micros = MicrosSince(start);
      histogram->Record(result.latency_micros);
      state->TryFinalize(std::move(result));
      return handle;
    }
  }

  // Bounded admission: one token per request, however many legs it fans
  // into. The queue-depth gauge doubles as the token counter.
  int64_t depth =
      metrics_.queue_depth.fetch_add(1, std::memory_order_relaxed) + 1;
  metrics_.NoteQueueDepth(depth);
  if (depth > static_cast<int64_t>(opts_.max_pending)) {
    metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    metrics_.rejected_overloaded.fetch_add(1, std::memory_order_relaxed);
    state->TryFinalize(StatusOnly(StatusCode::kOverloaded, start));
    return handle;
  }
  metrics_.admitted.fetch_add(1, std::memory_order_relaxed);

  auto g = std::make_shared<Gather>();
  g->state = state;
  g->spec = spec;
  g->digest = digest;
  g->cache_generation = cache_generation;
  g->use_cache = opts.use_cache;
  g->histogram = histogram;
  g->legs_remaining.store(static_cast<int>(targets.size()),
                          std::memory_order_relaxed);

  for (size_t s : targets) {
    std::atomic<int64_t>& leg_depth = shards_[s]->queue_depth;
    leg_depth.fetch_add(1, std::memory_order_relaxed);
    if (runtime_.Post([this, g, s] { RunLeg(g, s); })) continue;
    // The submission queue is full. Shed the whole request (first finalize
    // wins; already-posted legs see `finalized` and skip their compute)
    // and retire this leg inline — if it was the last one, the inline
    // retirement also releases the admission token.
    leg_depth.fetch_sub(1, std::memory_order_relaxed);
    if (state->TryFinalize(StatusOnly(StatusCode::kOverloaded, start))) {
      metrics_.rejected_overloaded.fetch_add(1, std::memory_order_relaxed);
    }
    if (g->legs_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  return handle;
}

void QueryEngine::RunLeg(const std::shared_ptr<Gather>& g, size_t shard) {
  RequestState& st = *g->state;
  Shard& sh = *shards_[shard];

  bool do_work = false;
  if (st.cancel_requested.load(std::memory_order_relaxed)) {
    st.TryFinalize(StatusOnly(StatusCode::kCancelled, st.start));
  } else if (st.has_deadline && Clock::now() >= st.deadline) {
    if (st.TryFinalize(StatusOnly(StatusCode::kDeadlineExceeded, st.start))) {
      metrics_.expired_in_queue.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    // A waiter that gave up, a cancel or an overload shed already
    // delivered an outcome: don't burn a worker on an unread answer.
    do_work = !st.finalized.load(std::memory_order_acquire);
  }

  if (do_work) {
    double tau = kInf;
    if (g->spec.kind == api::QuerySpec::Kind::kSimilar) {
      tau = std::bit_cast<double>(g->tau_bits.load(std::memory_order_acquire));
      if (tau < kInf) {
        sh.tau_prune_hits.fetch_add(1, std::memory_order_relaxed);
      }
    }
    sh.queries.fetch_add(1, std::memory_order_relaxed);

    std::shared_ptr<const Snapshot> snap = sh.snapshot();
    std::vector<api::VideoDatabase::QueryHit> local;
    api::VideoDatabase::QueryStats stats;
    bool failed = false;
    try {
      local = snap->db.Query(g->spec, &stats, tau);
    } catch (const std::exception&) {
      // Typed failure instead of an exception escaping a runtime worker
      // (the paged store's query path throws on I/O errors).
      failed = true;
    }

    if (failed) {
      st.TryFinalize(StatusOnly(StatusCode::kIoError, st.start));
    } else {
      metrics_.distance_computations.fetch_add(stats.distance_computations,
                                               std::memory_order_relaxed);
      metrics_.lb_prunes.fetch_add(stats.lb_prunes,
                                   std::memory_order_relaxed);
      metrics_.early_abandons.fetch_add(stats.early_abandons,
                                        std::memory_order_relaxed);
      // Restore the single-index id space from the snapshot's own table.
      for (api::VideoDatabase::QueryHit& h : local) {
        h.og_id = snap->global_ids[h.og_id];
      }
      MutexLock merge_lock(g->merge_mu);
      g->generation = std::max(g->generation, snap->generation);
      if (g->spec.kind == api::QuerySpec::Kind::kSimilar) {
        for (api::VideoDatabase::QueryHit& h : local) {
          auto pos = std::lower_bound(g->merged.begin(), g->merged.end(), h,
                                      HitBefore);
          g->merged.insert(pos, std::move(h));
        }
        if (g->merged.size() > g->spec.k) g->merged.resize(g->spec.k);
        if (g->merged.size() == g->spec.k) {
          // Publish the tightened bound for legs that start after us.
          g->tau_bits.store(
              std::bit_cast<uint64_t>(g->merged.back().distance),
              std::memory_order_release);
        }
      } else {
        g->merged.insert(g->merged.end(),
                         std::make_move_iterator(local.begin()),
                         std::make_move_iterator(local.end()));
      }
    }
  }

  if (g->legs_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    FinishGather(g);
  }
  sh.queue_depth.fetch_sub(1, std::memory_order_relaxed);
}

void QueryEngine::FinishGather(const std::shared_ptr<Gather>& g) {
  RequestState& st = *g->state;
  // The request's one admission token, whatever the outcome.
  metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);

  // An early finalize (cancel / deadline / overload shed / leg failure)
  // means `merged` may be partial: deliver nothing and poison no cache.
  if (st.finalized.load(std::memory_order_acquire)) return;

  QueryResult result;
  {
    MutexLock merge_lock(g->merge_mu);
    if (g->spec.kind != api::QuerySpec::Kind::kSimilar) {
      // kSimilar is kept sorted incrementally; concatenated range/active
      // legs get the global order here.
      std::sort(g->merged.begin(), g->merged.end(), HitBefore);
    }
    result.hits = std::move(g->merged);
    result.generation = g->generation;
  }
  result.latency_micros = MicrosSince(st.start);
  g->histogram->Record(result.latency_micros);
  if (g->use_cache) {
    metrics_.cache_misses.fetch_add(1, std::memory_order_relaxed);
    // Every publish after Submit is stamped above the Submit key, so only
    // on equality did each leg read exactly the state the key names; a
    // multi-shard answer whose legs straddled a publish is not cached.
    if (result.generation == g->cache_generation) {
      cache_.Put({g->digest, result.generation}, result.hits);
    }
  }

  // Completed after the deadline with nobody having finalized yet (an
  // async submitter that never called Wait): deliver the same outcome a
  // waiter would have seen.
  if (st.has_deadline && Clock::now() >= st.deadline) {
    if (st.TryFinalize(StatusOnly(StatusCode::kDeadlineExceeded, st.start))) {
      metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  st.TryFinalize(std::move(result));
}

std::string QueryEngine::MetricsJson() const {
  std::vector<ServerMetrics::ShardScrape> scrape;
  scrape.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& sh : shards_) {
    ServerMetrics::ShardScrape one;
    one.queries = sh->queries.load(std::memory_order_relaxed);
    one.tau_prune_hits = sh->tau_prune_hits.load(std::memory_order_relaxed);
    one.queue_depth = sh->queue_depth.load(std::memory_order_relaxed);
    scrape.push_back(one);
  }
  return metrics_.ToJson(Generation(), scrape);
}

}  // namespace strg::server
