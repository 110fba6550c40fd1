#ifndef STRG_SERVER_ASYNC_RUNTIME_H_
#define STRG_SERVER_ASYNC_RUNTIME_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace strg::server {

/// Event-loop request runtime: a bounded submission queue drained by a
/// fixed worker pool. Requests are plain posted tasks that signal their own
/// completion state (see RequestState in query_engine.h), so the engine
/// fans one request out into per-shard leg tasks on the same workers.
///
/// The queue bound is the load-shedding backstop: Post never blocks and
/// never queues unboundedly — when the queue is full it refuses, and the
/// caller converts that refusal into a typed kOverloaded completion.
/// Engine-level admission (max_pending) normally rejects first: the engine
/// sizes this queue to max_pending legs per shard.
class AsyncRuntime {
 public:
  struct Options {
    /// Worker threads (0 = hardware concurrency, at least 1).
    size_t num_threads = 0;
    /// Max tasks accepted but not yet started. Posts beyond this shed.
    size_t max_queue = 4096;
  };

  AsyncRuntime();  ///< defaults (out-of-line: nested-NSDMI default-arg quirk)
  explicit AsyncRuntime(Options opts);
  /// Drains: tasks already accepted still run to completion before the
  /// workers join (completion states posted from them stay reachable).
  ~AsyncRuntime();

  AsyncRuntime(const AsyncRuntime&) = delete;
  AsyncRuntime& operator=(const AsyncRuntime&) = delete;

  /// Enqueues `task` for execution on the worker pool. Returns false iff
  /// the submission queue is at capacity (the caller sheds the request)
  /// or the runtime is shutting down. Never blocks beyond the queue mutex.
  bool Post(std::function<void()> task) STRG_EXCLUDES(mu_);

  size_t NumThreads() const { return workers_.size(); }
  /// Tasks accepted but not yet started (a point-in-time reading).
  size_t QueueDepth() const STRG_EXCLUDES(mu_);

 private:
  void WorkerLoop() STRG_EXCLUDES(mu_);

  const size_t max_queue_;
  mutable Mutex mu_{LockRank::kAsyncRuntime};
  CondVar cv_;
  std::queue<std::function<void()>> queue_ STRG_GUARDED_BY(mu_);
  bool stop_ STRG_GUARDED_BY(mu_) = false;
  /// Declared last: workers start after every field above is constructed
  /// and the destructor's join happens while they are all still alive.
  std::vector<std::thread> workers_;
};

}  // namespace strg::server

#endif  // STRG_SERVER_ASYNC_RUNTIME_H_
