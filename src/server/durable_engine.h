#ifndef STRG_SERVER_DURABLE_ENGINE_H_
#define STRG_SERVER_DURABLE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "api/query_spec.h"
#include "api/status.h"
#include "server/query_engine.h"
#include "storage/catalog.h"
#include "storage/pager/paged_record_store.h"
#include "storage/pager/storage_params.h"
#include "storage/wal.h"
#include "util/sync.h"

namespace strg::server {

struct DurableEngineOptions {
  /// WAL fsync policy (see storage::WalSyncPolicy for the durability
  /// window each choice buys).
  storage::WalOptions wal;
  /// Automatic compaction period: after this many WAL records, the catalog
  /// is snapshotted and the log reset so replay cost stays bounded.
  /// 0 disables automatic compaction (Compact() stays available).
  size_t compact_every = 1024;
  /// Serving-layer options forwarded to the wrapped QueryEngine, shard
  /// count included. The shard count is never persisted: a directory
  /// written at one count reopens at any other with identical answers.
  EngineOptions engine;
  /// Out-of-core storage engine (A/B knob, default off = all in RAM).
  /// With `storage.paged` set the engine keeps two page files under the
  /// durability directory: `store.pages`, an ephemeral leaf-record store
  /// the index writes through during rebuild/ingest (recreated at every
  /// Open — durability comes from the snapshot + WAL, never from it), and
  /// `catalog.pages`, the paged catalog snapshot compaction publishes via
  /// the same tmp + rename protocol as the flat snapshot.
  storage::StorageParams storage;
};

/// Named crash points for fault-injection tests: the engine abandons the
/// operation exactly there, leaving on-disk state as a real crash would.
/// After a fail point fires the engine must be discarded (like the process
/// it simulates).
enum class FailPoint {
  kNone,
  /// The WAL record was appended (and synced per policy) but the
  /// generation was never published or acked.
  kAfterWalAppend,
  /// Compaction wrote + fsynced the tmp snapshot but died before the
  /// rename — recovery must discard the orphan tmp and serve the old
  /// snapshot + full log.
  kAfterSnapshotTmpWrite,
  /// Compaction published the new snapshot (rename + dir fsync done) but
  /// died before resetting the log — every log record is now stale.
  kAfterSnapshotRename,
};

/// What recovery found and did when the engine opened its directory.
struct RecoveryStats {
  size_t snapshot_segments = 0;  ///< segments loaded from catalog.snap
  size_t snapshot_ogs = 0;
  size_t replayed_records = 0;   ///< log records applied after the snapshot
  size_t stale_records = 0;      ///< records already covered by the snapshot
  bool tail_truncated = false;   ///< a torn/corrupt log tail was cut
  bool removed_orphan_tmp = false;  ///< crash mid-compaction was cleaned up
  double replay_seconds = 0.0;   ///< snapshot load + log replay wall time
};

/// Crash-durable front over an N-shard QueryEngine.
///
/// Write path — log, sync, then publish:
///   AddVideo / AddObjectGraph first frame the operation into the WAL
///   (CRC32C per record) and fsync per policy, and only then publish the
///   new in-memory generation. An acked call therefore implies the bytes
///   reached the log (and, under kEveryRecord, stable storage), so every
///   acked generation survives a crash.
///
/// Recovery (Open) — snapshot, then log:
///   1. Remove an orphaned catalog.snap.tmp (a compaction died mid-write;
///      the published snapshot is still the old, complete one).
///   2. Load catalog.snap if present; it records the last WAL sequence
///      number it covers.
///   3. Scan wal.log: CRC-validate records, truncate the first torn or
///      corrupt frame and everything after it.
///   4. Rebuild the VideoDatabase from the snapshot catalog (deterministic
///      index rebuild), then re-apply log records with seq > snapshot seq
///      through the normal ingest path. Records at or below the snapshot
///      seq are stale duplicates from a crash between snapshot publication
///      and log reset, and are skipped.
///
/// Compaction — bounded replay:
///   Every `compact_every` records the full catalog (segments + streamed
///   OGs folded in) is written to catalog.snap.tmp, fsynced, renamed over
///   catalog.snap (directory fsynced), and the log is reset. Compaction
///   folds streamed OGs into their segment, so replay-after-compaction maps
///   them with the segment's geometry-derived FeatureScaling — the
///   documented contract of AddObjectGraph (use the producing segment's
///   Scaling()).
///
/// Shards: WAL records and snapshots carry the engine-wide segment and og
/// ids, which do not depend on the shard count, so the on-disk formats are
/// the same at every N. In paged mode all shards share the one leaf store
/// (it serializes Append and allows concurrent Read).
///
/// Concurrency: reads go straight to the wrapped QueryEngine (snapshot
/// isolation, admission control, caching — unchanged). Ingest serializes
/// on one mutex covering the WAL append + publish + compaction decision.
class DurableQueryEngine {
 public:
  /// Opens (creating if needed) the durability directory and recovers
  /// state. kCorruption from the snapshot is an error (the log alone
  /// cannot prove completeness); log damage is self-healing by truncation.
  static api::StatusOr<std::unique_ptr<DurableQueryEngine>> Open(
      const std::string& wal_dir, index::StrgIndexParams params = {},
      DurableEngineOptions opts = {});

  // ---- Writers (durable: logged + synced before publication). ----

  api::StatusOr<uint64_t> AddVideo(const std::string& name,
                                   const api::SegmentResult& segment,
                                   int* segment_id = nullptr)
      STRG_EXCLUDES(ingest_mu_);
  api::StatusOr<uint64_t> AddObjectGraph(int segment_id,
                                         const std::string& video,
                                         const core::Og& og,
                                         const dist::FeatureScaling& scaling)
      STRG_EXCLUDES(ingest_mu_);

  // ---- Readers (delegate to the serving engine). ----

  /// Async submit/complete surface, same contract as QueryEngine::Submit.
  QueryHandle Submit(const api::QuerySpec& spec, const QueryOptions& opts = {},
                     CompletionFn on_complete = nullptr) {
    return engine_.Submit(spec, opts, std::move(on_complete));
  }

  QueryResult Query(const api::QuerySpec& spec, const QueryOptions& opts = {}) {
    return engine_.Query(spec, opts);
  }

  // ---- Durability controls. ----

  /// Publishes a catalog snapshot and resets the log now.
  api::Status Compact() STRG_EXCLUDES(ingest_mu_);
  /// Forces an fsync of pending log records (relevant under kEveryN /
  /// kOnPublish). In paged mode also commits the leaf store so the page
  /// file on disk is self-describing for offline audits (strgtool stat).
  api::Status Sync() STRG_EXCLUDES(ingest_mu_);

  // ---- Introspection. ----

  QueryEngine& engine() { return engine_; }
  const QueryEngine& engine() const { return engine_; }
  uint64_t Generation() const { return engine_.Generation(); }
  std::string MetricsJson() const { return engine_.MetricsJson(); }
  const RecoveryStats& recovery() const { return recovery_; }
  /// The durable mirror: exactly what a crash-now recovery would rebuild.
  /// Opted out of the analysis: the accessor hands out an unlocked
  /// reference for test/CLI inspection of a quiesced engine — callers must
  /// not hold it across concurrent AddVideo/AddObjectGraph calls.
  const storage::Catalog& catalog() const STRG_NO_THREAD_SAFETY_ANALYSIS {
    return catalog_;
  }

  static std::string SnapshotPath(const std::string& wal_dir);
  static std::string SnapshotTmpPath(const std::string& wal_dir);
  static std::string LogPath(const std::string& wal_dir);
  /// Paged-mode files (see DurableEngineOptions::storage).
  static std::string StorePath(const std::string& wal_dir);
  static std::string PagedSnapshotPath(const std::string& wal_dir);
  static std::string PagedSnapshotTmpPath(const std::string& wal_dir);

  /// The leaf-record store backing the index in paged mode (nullptr when
  /// storage.paged is off). Exposed for metrics/tests.
  storage::PagedRecordStore* paged_store() { return og_store_.get(); }

  /// Arms a crash point (fault-injection tests only).
  void set_fail_point(FailPoint point) { fail_point_ = point; }

 private:
  DurableQueryEngine(std::string wal_dir, index::StrgIndexParams params,
                     DurableEngineOptions opts,
                     std::unique_ptr<storage::PagedRecordStore> og_store);

  /// Runs in the constructor path, before the engine is shared; it takes
  /// ingest_mu_ anyway (uncontended) so the guarded-field proofs hold
  /// everywhere instead of carrying a "single-threaded here" exemption.
  api::Status Recover() STRG_EXCLUDES(ingest_mu_);
  api::Status CompactLocked() STRG_REQUIRES(ingest_mu_);
  /// Applies one decoded WAL payload to the engine + catalog mirror.
  api::Status ApplyRecord(std::string_view payload, uint64_t* seq)
      STRG_REQUIRES(ingest_mu_);

  const std::string wal_dir_;
  const DurableEngineOptions opts_;
  RecoveryStats recovery_;
  FailPoint fail_point_ = FailPoint::kNone;

  /// One lock covers the whole durable write protocol: WAL append + seq
  /// advance + catalog mirror + publish + compaction decision.
  Mutex ingest_mu_{LockRank::kIngestDurable};
  uint64_t next_seq_ STRG_GUARDED_BY(ingest_mu_) = 1;     ///< next WAL seq
  uint64_t log_records_ STRG_GUARDED_BY(ingest_mu_) = 0;  ///< live log size
  storage::Catalog catalog_ STRG_GUARDED_BY(ingest_mu_);
  storage::WalWriter wal_ STRG_GUARDED_BY(ingest_mu_);
  /// Declared before engine_ so it outlives it: every index generation the
  /// engine holds references leaf records in this store.
  std::unique_ptr<storage::PagedRecordStore> og_store_;
  QueryEngine engine_;
};

}  // namespace strg::server

#endif  // STRG_SERVER_DURABLE_ENGINE_H_
