// One interface over the two engines the workloads serve from, plus the
// reference record list every answer check compares against.
#ifndef STRG_PERFBENCH_ENGINE_H_
#define STRG_PERFBENCH_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "server/durable_engine.h"
#include "server/sharded_engine.h"
#include "storage/catalog.h"

namespace strg::perfbench {

/// What a user of either engine does: submit reads, add videos and OGs.
class Engine {
 public:
  virtual ~Engine() = default;
  virtual server::QueryHandle Submit(const api::QuerySpec& spec,
                                     const server::QueryOptions& opts,
                                     server::CompletionFn done) = 0;
  server::QueryResult Query(const api::QuerySpec& spec) {
    server::QueryOptions opts;
    opts.use_cache = false;
    return Submit(spec, opts, nullptr).Wait();
  }
  /// Returns false when the engine refused the write.
  virtual bool AddVideo(const std::string& name,
                        const api::SegmentResult& segment,
                        int* segment_id) = 0;
  virtual bool AddObjectGraph(int segment_id, const std::string& video,
                              const core::Og& og,
                              const dist::FeatureScaling& scaling) = 0;
  /// The published snapshot of every shard (one for an unsharded engine).
  virtual std::vector<std::shared_ptr<const server::Snapshot>> Snapshots()
      const = 0;
  virtual const server::ServerMetrics& metrics() const = 0;
  /// Shard legs executed and legs that started with a finite tau.
  virtual void LegCounts(uint64_t* legs, uint64_t* tau_legs) const = 0;
};

std::unique_ptr<Engine> MakeShardedEngine();

/// Opens (or recovers) a durable paged engine in `dir`.
api::StatusOr<std::unique_ptr<Engine>> OpenDurableEngine(
    const std::string& dir, uint64_t cache_bytes);
server::DurableQueryEngine* AsDurable(Engine* engine);

/// One acknowledged OG as a user identifies it, plus its query sequence.
struct Record {
  std::string video;
  int start_frame = 0;
  size_t length = 0;
  dist::Sequence sequence;
};

}  // namespace strg::perfbench

#endif  // STRG_PERFBENCH_ENGINE_H_
