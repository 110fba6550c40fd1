#ifndef STRG_API_QUERY_SPEC_H_
#define STRG_API_QUERY_SPEC_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "distance/sequence.h"

namespace strg::api {

/// Per-request options of the submit/complete query surface. One options
/// vocabulary across the stack: the bare VideoDatabase and the serving
/// QueryEngine both take this struct, so a request keeps its deadline and
/// routing hints as it crosses layers.
/// (server::QueryOptions is an alias of this type — the historical spelling
/// kept for source compatibility.)
struct SubmitOptions {
  /// Per-request deadline measured from submission. 0 = none. Negative =
  /// already expired (deterministic deadline handling, used by tests).
  std::chrono::microseconds timeout{0};
  /// Consult/fill the serving layer's result cache. Ignored by layers that
  /// have no cache (the bare VideoDatabase).
  bool use_cache = true;
  /// Restrict a scatter-gather query to one shard (>= 0); -1 = fan out to
  /// every shard. Layers without shards ignore it.
  int shard_hint = -1;
};

/// One value describing any retrieval request the system answers: k-NN,
/// range and temporal-window queries are a tagged kind plus the union of
/// their parameters, so every layer — database dispatch, result-cache
/// keying, metrics attribution — consumes the same object instead of
/// re-encoding the request per call site.
struct QuerySpec {
  enum class Kind {
    kSimilar = 0,  ///< k-NN over stored OGs (Algorithm 3)
    kRange,        ///< all OGs within `radius` (EGED_M), ascending
    kActive,       ///< OGs of `video` alive inside the frame window
  };

  Kind kind = Kind::kSimilar;

  /// Probe sequence for kSimilar / kRange (ignored by kActive).
  dist::Sequence sequence;
  size_t k = 10;        ///< kSimilar: neighbours requested
  double radius = 0.0;  ///< kRange: EGED_M cutoff

  std::string video;    ///< kActive: camera/clip name
  int first_frame = 0;  ///< kActive: window start (inclusive)
  int last_frame = 0;   ///< kActive: window end (inclusive)

  static QuerySpec Similar(dist::Sequence query, size_t k) {
    QuerySpec s;
    s.kind = Kind::kSimilar;
    s.sequence = std::move(query);
    s.k = k;
    return s;
  }
  static QuerySpec WithinRadius(dist::Sequence query, double radius) {
    QuerySpec s;
    s.kind = Kind::kRange;
    s.sequence = std::move(query);
    s.radius = radius;
    return s;
  }
  static QuerySpec Active(std::string video, int first_frame,
                          int last_frame) {
    QuerySpec s;
    s.kind = Kind::kActive;
    s.video = std::move(video);
    s.first_frame = first_frame;
    s.last_frame = last_frame;
    return s;
  }

  /// Request digest for result-cache keying: FNV-1a over the kind seed and
  /// the kind's live parameters only, so "kNN k=3" and "range r=3" over the
  /// same probe never collide. Computed once per request, at the API edge.
  uint64_t Digest() const;
};

}  // namespace strg::api

#endif  // STRG_API_QUERY_SPEC_H_
