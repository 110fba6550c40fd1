#include "engine.h"

#include <cstdlib>

namespace strg::perfbench {

namespace {

/// Sums every `"key":<count>` inside the "shards" array of a metrics scrape.
uint64_t SumShardField(const std::string& json, const std::string& key) {
  const size_t begin = json.find("\"shards\":[");
  const size_t end = json.find(']', begin);
  if (begin == std::string::npos || end == std::string::npos) return 0;
  const std::string needle = "\"" + key + "\":";
  uint64_t total = 0;
  for (size_t at = json.find(needle, begin); at != std::string::npos && at < end;
       at = json.find(needle, at + 1)) {
    total += std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
  }
  return total;
}

class ShardedEngine final : public Engine {
 public:
  ShardedEngine() : engine_(IndexParams(), Options()) {}

  server::QueryHandle Submit(const api::QuerySpec& spec,
                             const server::QueryOptions& opts,
                             server::CompletionFn done) override {
    return engine_.Submit(spec, opts, std::move(done));
  }
  bool AddVideo(const std::string& name, const api::SegmentResult& segment,
                int* segment_id) override {
    engine_.AddVideo(name, segment, segment_id);
    return true;
  }
  bool AddObjectGraph(int segment_id, const std::string& video,
                      const core::Og& og,
                      const dist::FeatureScaling& scaling) override {
    engine_.AddObjectGraph(segment_id, video, og, scaling);
    return true;
  }
  std::vector<std::shared_ptr<const server::Snapshot>> Snapshots()
      const override {
    std::vector<std::shared_ptr<const server::Snapshot>> out;
    for (size_t s = 0; s < engine_.NumShards(); ++s) {
      out.push_back(engine_.shard(s).snapshot());
    }
    return out;
  }
  const server::ServerMetrics& metrics() const override {
    return engine_.metrics();
  }
  void LegCounts(uint64_t* legs, uint64_t* tau_legs) const override {
    const std::string json = engine_.MetricsJson();
    *legs = SumShardField(json, "queries");
    *tau_legs = SumShardField(json, "tau_prune_hits");
  }

 private:
  static server::ShardedEngineOptions Options() {
    server::ShardedEngineOptions o;
    o.num_shards = kShards;
    o.num_threads = kRuntimeThreads;  // one runtime for every shard
    return o;
  }
  server::ShardedQueryEngine engine_;
};

class DurableEngine final : public Engine {
 public:
  explicit DurableEngine(std::unique_ptr<server::DurableQueryEngine> engine)
      : engine_(std::move(engine)) {}

  server::QueryHandle Submit(const api::QuerySpec& spec,
                             const server::QueryOptions& opts,
                             server::CompletionFn done) override {
    return engine_->Submit(spec, opts, std::move(done));
  }
  bool AddVideo(const std::string& name, const api::SegmentResult& segment,
                int* segment_id) override {
    return engine_->AddVideo(name, segment, segment_id).ok();
  }
  bool AddObjectGraph(int segment_id, const std::string& video,
                      const core::Og& og,
                      const dist::FeatureScaling& scaling) override {
    return engine_->AddObjectGraph(segment_id, video, og, scaling).ok();
  }
  std::vector<std::shared_ptr<const server::Snapshot>> Snapshots()
      const override {
    return {engine_->engine().snapshot()};
  }
  const server::ServerMetrics& metrics() const override {
    return engine_->engine().metrics();
  }
  void LegCounts(uint64_t* legs, uint64_t* tau_legs) const override {
    *legs = 0;  // unsharded: no scatter legs
    *tau_legs = 0;
  }
  server::DurableQueryEngine* durable() { return engine_.get(); }

 private:
  std::unique_ptr<server::DurableQueryEngine> engine_;
};

}  // namespace

std::unique_ptr<Engine> MakeShardedEngine() {
  return std::make_unique<ShardedEngine>();
}

api::StatusOr<std::unique_ptr<Engine>> OpenDurableEngine(
    const std::string& dir, uint64_t cache_bytes) {
  server::DurableEngineOptions opts;
  opts.wal.sync_policy = storage::WalSyncPolicy::kEveryN;  // group of 32
  opts.engine.num_threads = kRuntimeThreads;
  opts.storage.paged = true;
  opts.storage.cache_bytes = cache_bytes;
  auto opened = server::DurableQueryEngine::Open(dir, IndexParams(), opts);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<Engine> engine =
      std::make_unique<DurableEngine>(std::move(opened).value());
  return engine;
}

server::DurableQueryEngine* AsDurable(Engine* engine) {
  auto* d = dynamic_cast<DurableEngine*>(engine);
  return d == nullptr ? nullptr : d->durable();
}

}  // namespace strg::perfbench
