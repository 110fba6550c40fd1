#ifndef STRG_SERVER_METRICS_H_
#define STRG_SERVER_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "api/status.h"
#include "core/ingest_stats.h"
#include "storage/pager/buffer_cache.h"
#include "util/sync.h"

namespace strg::server {

/// Lock-free fixed-bucket latency histogram (microseconds).
///
/// Buckets grow geometrically by sqrt(2) from 1 us to ~3 s plus one
/// overflow bucket, so Record is a single relaxed fetch_add and percentile
/// estimates carry at most ~19% relative bucket error — plenty for p50/p95/
/// p99 serving dashboards. All methods are safe to call concurrently;
/// readers see a (possibly slightly stale) consistent-enough view, which is
/// the usual contract for scrape-style metrics.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 45;  ///< 44 finite + overflow

  void Record(double micros);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double MeanMicros() const;
  /// p in [0, 100]; returns the upper bound of the bucket containing the
  /// p-th percentile observation (0 when empty).
  double PercentileMicros(double p) const;

  /// Appends {"count":..,"mean_us":..,"p50_us":..,"p95_us":..,"p99_us":..}.
  /// STRG_LOCK_FREE: reads relaxed atomics only; see ServerMetrics::ToJson.
  STRG_LOCK_FREE void AppendJson(std::string* out) const;

  /// Upper bound (us) of bucket i — exposed for tests.
  static double BucketUpperMicros(size_t i);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_micros_{0};
};

/// Central registry of the serving layer's observability surface: atomic
/// counters + per-operation latency histograms, dumpable as JSON. Owned by
/// the QueryEngine; all fields may be read while the engine is serving.
///
/// Memory-order policy: every counter access in this registry — reads and
/// writes alike — uses std::memory_order_relaxed, uniformly. Counters are
/// monotone statistics, never used to publish other data or to synchronize
/// control flow, so no access needs acquire/release pairing; relaxed keeps
/// Record/NoteStatus to a single uncontended RMW on the hot path, and a
/// scrape observing counters mid-update is within the scrape contract
/// (slightly stale, never torn). Any future field that *does* publish data
/// must not live here — it belongs behind a strg::Mutex.
class ServerMetrics {
 public:
  // Admission control.
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> rejected_overloaded{0};
  std::atomic<uint64_t> expired_in_queue{0};    ///< deadline hit before run
  std::atomic<uint64_t> deadline_exceeded{0};   ///< caller gave up waiting
  std::atomic<int64_t> queue_depth{0};          ///< admitted, not finished
  std::atomic<int64_t> max_queue_depth{0};

  // Result cache.
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};

  // Ingest / snapshot publication.
  std::atomic<uint64_t> ingests{0};
  std::atomic<uint64_t> snapshots_published{0};

  // Frames -> OGs ingest pipeline (api::VideoPipeline / ProcessFrames).
  // The pipeline counts locally on the ingesting thread and callers fold
  // whole runs in via AddIngestPipeline, mirroring how the PR 3 distance
  // counters reach this registry.
  std::atomic<uint64_t> frames_segmented{0};
  std::atomic<uint64_t> shots_processed{0};
  std::atomic<uint64_t> ingest_queue_stalls{0};  ///< queue-full backpressure
  std::atomic<uint64_t> ingest_segment_us{0};    ///< segmentation + RAG build
  std::atomic<uint64_t> ingest_track_us{0};      ///< serial tracking merge
  std::atomic<uint64_t> ingest_decompose_us{0};  ///< Finish() decomposition

  // Request outcomes by api::StatusCode — every QueryResult the engine
  // hands back increments exactly one slot, so the dashboard shows the
  // full ok/overloaded/deadline/io/corruption breakdown directly instead
  // of it being derivable only from bench output.
  std::array<std::atomic<uint64_t>, api::kNumStatusCodes> status_counts{};

  // Distance-kernel work across all executed (non-cached) queries: DP
  // evaluations actually run, candidates answered by the O(m+n) lower-bound
  // cascade, and DPs truncated by early abandoning. Each query counts these
  // locally (api::VideoDatabase::QueryStats) and the engine adds them here
  // once per compute, so the aggregates are exact under concurrent load.
  std::atomic<uint64_t> distance_computations{0};
  std::atomic<uint64_t> lb_prunes{0};
  std::atomic<uint64_t> early_abandons{0};

  // Durability layer (written by DurableQueryEngine; zero on a
  // memory-only engine).
  std::atomic<uint64_t> wal_appends{0};
  std::atomic<uint64_t> wal_synced_bytes{0};  ///< bytes framed into the log
  std::atomic<uint64_t> wal_syncs{0};         ///< fsync calls issued
  std::atomic<uint64_t> wal_compactions{0};   ///< snapshot publications

  // Out-of-core storage engine: the buffer cache under the paged leaf
  // store, when the engine runs with StorageParams::paged (nullptr = all
  // in RAM). Set once by DurableQueryEngine::Open before the engine is
  // shared; ToJson reads the cache's own relaxed counters through it, so
  // the scrape stays lock-free. The pointee outlives this registry (the
  // store is destroyed after the engine that owns the metrics).
  std::atomic<const storage::BufferCache*> storage_cache{nullptr};

  // Latency per operation type (admission-to-completion for queries).
  LatencyHistogram knn_latency;
  LatencyHistogram range_latency;
  LatencyHistogram active_latency;
  LatencyHistogram ingest_latency;

  /// Tracks the high-water mark after a queue_depth update.
  void NoteQueueDepth(int64_t depth);

  /// Attributes one finished request to its status code.
  void NoteStatus(api::StatusCode code) {
    status_counts[static_cast<size_t>(code)].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Folds one ingest run's pipeline counters into the registry.
  void AddIngestPipeline(const api::IngestStats& s);

  double CacheHitRate() const;

  /// One shard's point-in-time scrape for the "shards" array below. The
  /// engine reads its per-shard relaxed counters into these plain values
  /// right before the dump, so ToJson itself stays lock-free.
  struct ShardScrape {
    uint64_t queries = 0;         ///< scatter-gather legs executed
    uint64_t tau_prune_hits = 0;  ///< legs that started with a finite tau
    int64_t queue_depth = 0;      ///< legs posted but not finished
  };

  /// Whole registry as one JSON object; `generation` is the currently
  /// published generation (the engine supplies it) and `shards` the
  /// per-shard breakdown (the "shards" key is always present, [] when no
  /// breakdown is given, so the JSON schema is stable).
  ///
  /// STRG_LOCK_FREE: deliberately holds no mutex. Every field it reads is a
  /// relaxed atomic, so the dump is a per-counter-consistent (not
  /// cross-counter-atomic) scrape — pausing the serving path to get a fully
  /// coherent dump would invert the priority of the two.
  STRG_LOCK_FREE std::string ToJson(
      uint64_t generation,
      const std::vector<ShardScrape>& shards = {}) const;
};

}  // namespace strg::server

#endif  // STRG_SERVER_METRICS_H_
