#ifndef STRG_SERVER_QUERY_ENGINE_H_
#define STRG_SERVER_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/query_spec.h"
#include "api/status.h"
#include "core/video_database.h"
#include "server/async_runtime.h"
#include "server/metrics.h"
#include "server/result_cache.h"
#include "util/sync.h"

namespace strg::server {

/// Typed request outcome — the system-wide api::StatusCode vocabulary
/// (this used to be a server-local enum; it folded into api so the storage
/// and serving layers speak one set of codes). The engine degrades
/// predictably instead of collapsing: saturation yields kOverloaded, slow
/// queries against a deadline yield kDeadlineExceeded, a cancelled handle
/// yields kCancelled — all cheap, all counted.
using StatusCode = api::StatusCode;
using api::StatusCodeName;

struct EngineOptions {
  /// Catalog partitions: videos hash by name onto shards (ShardFor). 1 =
  /// one index over the whole catalog.
  size_t num_shards = 1;
  /// Worker threads of the engine's runtime (0 = hardware concurrency).
  size_t num_threads = 2;
  /// Max *requests* (not shard legs) admitted but not yet finished (queued
  /// + running). The bound is what turns overload into fast typed
  /// rejections instead of an unbounded queue whose latency grows without
  /// limit. The runtime's leg queue is sized max_pending * num_shards, so
  /// it never sheds a leg that admission let through.
  size_t max_pending = 256;
  /// Total cached query results across all cache shards.
  size_t cache_capacity = 4096;
  size_t cache_shards = 8;
};

/// Per-request options. The historical server-local spelling is now an
/// alias of the api-wide submit vocabulary so QueryEngine and
/// api::VideoDatabase take the same struct.
using QueryOptions = api::SubmitOptions;

struct QueryResult {
  StatusCode status = StatusCode::kOk;
  std::vector<api::VideoDatabase::QueryHit> hits;
  /// Largest generation stamp among the shard snapshots the answer was
  /// computed from: the answer holds no OG published after it (0 when the
  /// request never reached a snapshot: overload / expiry / cancellation).
  uint64_t generation = 0;
  bool from_cache = false;
  double latency_micros = 0.0;
};

/// Completion callback of the submit/complete surface. Invoked exactly
/// once per submitted request, with the final QueryResult, by whichever
/// thread finalizes the request: a runtime worker (normal completion), the
/// submitting thread (cache fast path / admission rejection), a waiter
/// whose deadline passed, or a canceller. Runs before any Wait() on the
/// handle returns, so a caller may tear down callback-captured state as
/// soon as Wait comes back. Must not block (waiting on the same handle
/// inside the callback deadlocks) and must not re-enter the engine's
/// write path.
using CompletionFn = std::function<void(const QueryResult&)>;

/// Shared mutable state of one submitted request — the rendezvous between
/// the submitting thread (via QueryHandle), the runtime worker executing
/// the task, and the completion callback. Exactly one finalization wins
/// (TryFinalize's CAS), so late losers — a worker finishing after the
/// waiter's deadline fired, a cancel racing normal completion — are
/// silently dropped and every per-request metric is counted once.
struct RequestState {
  using Clock = std::chrono::steady_clock;

  // Immutable after Submit.
  Clock::time_point start;
  Clock::time_point deadline;
  bool has_deadline = false;
  CompletionFn on_complete;
  ServerMetrics* metrics = nullptr;  ///< NoteStatus sink (not owned)

  /// Set by QueryHandle::Cancel. A task that has not started yet converts
  /// this into a kCancelled completion without doing the work; a task
  /// already executing finishes (its result is dropped by the CAS).
  std::atomic<bool> cancel_requested{false};
  /// The exactly-once completion guard.
  std::atomic<bool> finalized{false};

  mutable Mutex mu{LockRank::kRequestState};
  CondVar cv;
  bool done STRG_GUARDED_BY(mu) = false;
  QueryResult result STRG_GUARDED_BY(mu);

  /// First caller wins: records the outcome (NoteStatus exactly once),
  /// publishes it to waiters, and invokes the completion callback. Returns
  /// false when someone else already finalized (the result is dropped).
  bool TryFinalize(QueryResult r) STRG_EXCLUDES(mu);
  bool Done() const STRG_EXCLUDES(mu);
  /// Blocks until finalized; no deadline handling (the handle layers the
  /// request deadline on top).
  QueryResult WaitDone() STRG_EXCLUDES(mu);
};

/// Caller's view of one in-flight request: poll, wait (honouring the
/// request deadline), or cancel. Copyable and cheap (one shared_ptr); a
/// default-constructed handle is empty. The blocking Query() entry points
/// are Submit(...).Wait() — the handle is the whole synchronous story.
class QueryHandle {
 public:
  QueryHandle() = default;

  bool valid() const { return state_ != nullptr; }
  /// Non-blocking: has the request finalized?
  bool Done() const { return state_ != nullptr && state_->Done(); }

  /// Requests cancellation. A request still queued completes kCancelled
  /// without executing; one already running completes normally (first
  /// finalizer wins). Idempotent; safe from any thread.
  void Cancel();

  /// Blocks until the request finalizes — or, when it was submitted with a
  /// deadline, until that deadline passes, in which case the request is
  /// finalized kDeadlineExceeded right here (the task may still run later;
  /// its result is dropped and its admission slot is released by itself).
  /// Returns the final result. Calling Wait on an empty handle returns a
  /// default (kOk, empty) result.
  QueryResult Wait() STRG_EXCLUDES_DYNAMIC(RequestState::mu);

 private:
  friend class QueryEngine;
  explicit QueryHandle(std::shared_ptr<RequestState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<RequestState> state_;
};

/// One immutable published generation of one shard. Readers hold it via
/// shared_ptr, so a generation stays alive until the last in-flight query
/// over it finishes, no matter how many newer generations exist.
struct Snapshot {
  /// The engine-wide generation this shard was published at.
  uint64_t generation = 0;
  api::VideoDatabase db;
  /// global_ids[local og id] == the og id an unsharded engine fed the same
  /// writes would have assigned. Carried in the snapshot so a query leg
  /// remaps ids without a lock: the table always matches `db`.
  std::vector<size_t> global_ids;
};

/// Epoch pointer to the published Snapshot. store/load are a constant-time
/// shared_ptr copy under a mutex — deliberately NOT std::atomic<shared_ptr>:
/// libstdc++ 12's lock-bit protocol for it is opaque to ThreadSanitizer and
/// drowns real races in false reports. The critical section is a refcount
/// bump (~ns); queries (~us..ms) never execute under it. Swapping in a
/// lock-free scheme (hazard pointers / RCU) later only touches this class.
class SnapshotHolder {
 public:
  explicit SnapshotHolder(std::shared_ptr<const Snapshot> initial)
      : ptr_(std::move(initial)) {}

  std::shared_ptr<const Snapshot> load() const STRG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return ptr_;
  }
  void store(std::shared_ptr<const Snapshot> next) STRG_EXCLUDES(mu_) {
    // Swap under the lock, destroy outside it: dropping the last reference
    // to a displaced generation tears down whole index trees, and kSnapshot
    // is a leaf rank — teardown must not run while it is held.
    std::shared_ptr<const Snapshot> displaced;
    {
      MutexLock lock(mu_);
      displaced = std::move(ptr_);
      ptr_ = std::move(next);
    }
  }

 private:
  mutable Mutex mu_{LockRank::kSnapshot};
  std::shared_ptr<const Snapshot> ptr_ STRG_GUARDED_BY(mu_);
};

/// Concurrent query-serving engine over a hash-partitioned catalog of
/// N >= 1 shards. One Submit, one admission bound, one result cache, one
/// metrics registry and one runtime serve every shard count; N = 1 is a
/// single index over the whole catalog.
///
/// Partitioning: videos hash by name onto shards (ShardFor). A shard is an
/// epoch pointer to its published Snapshot. Ingest routes each write to its
/// video's shard, so a publish clones 1/N of the catalog, and a temporal
/// (kActive) query scans 1/N of the records.
///
/// Concurrency model — snapshot isolation via copy-on-write epochs:
///  - Writers (AddVideo / AddObjectGraph) serialize on one mutex, clone the
///    target shard's snapshot, mutate the clone, stamp it with the next
///    engine-wide generation, and publish it. A writer never touches a
///    published Snapshot.
///  - Readers grab a shard's Snapshot (a constant-time epoch-pointer copy)
///    and run the whole leg against that immutable generation: no lock is
///    held during query execution, so there are no torn reads.
///
/// Request path — submit/complete over the async runtime:
///   Submit runs the result-cache fast path on the calling thread, takes
///   one admission token, then posts one leg task per target shard (all
///   shards for kSimilar/kRange, the owning shard for kActive, exactly
///   opts.shard_hint when set) and returns a QueryHandle. kNN legs read the
///   gather's running worst-of-k distance (tau) before executing and seed
///   the shard search with it, so later legs prune against the best global
///   answer so far. The last leg to finish merges by (distance, global og
///   id), fills the cache, and finalizes the request exactly once through
///   RequestState. The blocking Query(spec) is Submit(...).Wait().
///
/// Generations: a result reports the largest stamp among the snapshots its
/// legs read, so no answer ever holds an OG published after its reported
/// generation. It is cached only when that stamp equals the Submit-time
/// key (the largest head stamp among the target shards), i.e. when every
/// leg read exactly the state the key names, so a cache hit is exact.
///
/// Answers are bit-identical at every shard count (assuming distinct
/// distances; exact ties order by global og id on both sides): tau only
/// ever tightens below the true k-th distance, so no global top-k member
/// is pruned, and each snapshot's global_ids table restores the N = 1 id
/// space.
class QueryEngine {
 public:
  /// One partition: the epoch pointer to its published snapshot plus its
  /// leg counters (scraped into the "shards" array of MetricsJson).
  struct Shard {
    explicit Shard(std::shared_ptr<const Snapshot> genesis)
        : head(std::move(genesis)) {}
    std::shared_ptr<const Snapshot> snapshot() const { return head.load(); }

    SnapshotHolder head;
    std::atomic<uint64_t> queries{0};         ///< legs executed
    std::atomic<uint64_t> tau_prune_hits{0};  ///< legs seeded with finite tau
    std::atomic<int64_t> queue_depth{0};      ///< legs posted, not finished
  };

  explicit QueryEngine(index::StrgIndexParams params = {},
                       EngineOptions opts = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Stable video -> shard routing (seeded FNV over the name). Exposed so
  /// tools and tests can predict placement.
  static size_t ShardFor(std::string_view video, size_t num_shards);

  // ---- Writers (copy-on-write publish; serialized among themselves). ----

  /// Indexes a processed segment under `name` on the video's shard. Returns
  /// the new generation; `*segment_id` (optional) receives the engine-wide
  /// segment id (0, 1, 2, ... in AddVideo order) for AddObjectGraph.
  uint64_t AddVideo(const std::string& name,
                    const api::SegmentResult& segment,
                    int* segment_id = nullptr) STRG_EXCLUDES(writer_mu_);

  /// Streams one more OG into an existing segment. Each call publishes
  /// exactly one new generation containing exactly one more OG — the
  /// invariant the concurrency stress test leans on.
  uint64_t AddObjectGraph(int segment_id, const std::string& video,
                          const core::Og& og,
                          const dist::FeatureScaling& scaling)
      STRG_EXCLUDES(writer_mu_);

  /// Fast-forwards the generation number without changing data (only
  /// forward; lower targets are ignored), restamping every shard so
  /// answers report at least `generation`. Recovery uses this to keep
  /// generation tokens continuous across restarts: a snapshot rebuild
  /// collapses many original publishes into a few, but clients holding
  /// pre-crash generation numbers must still see Generation() >= theirs.
  void RestoreGeneration(uint64_t generation) STRG_EXCLUDES(writer_mu_);

  // ---- Readers (admission-controlled, snapshot-isolated). ----

  /// Submits the request into the runtime and returns a handle.
  /// `on_complete` (optional) fires exactly once with the final result.
  /// Overload and cache fast-path outcomes finalize before Submit returns
  /// (the callback then runs on the calling thread).
  QueryHandle Submit(const api::QuerySpec& spec, const QueryOptions& opts = {},
                     CompletionFn on_complete = nullptr);

  /// Blocking spelling: Submit + Wait.
  QueryResult Query(const api::QuerySpec& spec, const QueryOptions& opts = {}) {
    return Submit(spec, opts).Wait();
  }

  // ---- Introspection. ----

  /// Shard 0's published snapshot — the whole catalog when N = 1. Tests
  /// query the returned snapshot's db directly to validate immutability.
  std::shared_ptr<const Snapshot> snapshot() const {
    return shards_[0]->snapshot();
  }
  /// Engine-wide generation: the number of publishes so far (or the
  /// restored value, whichever is larger).
  uint64_t Generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  size_t NumShards() const { return shards_.size(); }
  const Shard& shard(size_t s) const { return *shards_[s]; }

  const ServerMetrics& metrics() const { return metrics_; }
  /// Mutable registry access for layers that wrap the engine and account
  /// their own work here (the durable engine's WAL counters).
  ServerMetrics& mutable_metrics() { return metrics_; }
  /// Registry scrape plus the per-shard breakdown ("shards" array).
  std::string MetricsJson() const;

 private:
  /// Scatter-gather rendezvous of one request (defined in the .cc).
  struct Gather;

  /// One shard leg, on a runtime worker: skip checks, tau read, shard
  /// search, id remap, merge; the last leg finalizes the request.
  void RunLeg(const std::shared_ptr<Gather>& g, size_t shard);
  /// Completion by the last leg: sort, cache fill, finalize.
  void FinishGather(const std::shared_ptr<Gather>& g);

  /// Clone-mutate-publish of shard `s` under writer_mu_; `new_ogs` is the
  /// number of OGs the mutation appends (they receive the next global ids)
  /// and `start` is when the write call began (ingest latency). The
  /// published Snapshot itself is immutable, so readers never take this
  /// lock.
  template <typename MutateFn>
  uint64_t Publish(std::chrono::steady_clock::time_point start, size_t s,
                   size_t new_ogs, MutateFn&& mutate) STRG_REQUIRES(writer_mu_);

  const EngineOptions opts_;
  ServerMetrics metrics_;
  ShardedResultCache cache_;
  /// Serializes writers: global og and segment ids are assigned in call
  /// order, which requires the id-assign + shard-publish window to be
  /// atomic. Queries never take this.
  Mutex writer_mu_{LockRank::kEngineWriter};
  /// Engine-wide publish counter; written only under writer_mu_.
  std::atomic<uint64_t> generation_{0};
  size_t next_og_id_ STRG_GUARDED_BY(writer_mu_) = 0;
  /// segments_[global segment id] == {shard, shard-local segment id}.
  std::vector<std::pair<size_t, int>> segments_ STRG_GUARDED_BY(writer_mu_);
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Declared last: destroyed first, draining posted legs while the shards,
  /// cache and metrics they touch are all still alive.
  AsyncRuntime runtime_;
};

}  // namespace strg::server

#endif  // STRG_SERVER_QUERY_ENGINE_H_
