#ifndef STRG_SERVER_SHARDED_ENGINE_H_
#define STRG_SERVER_SHARDED_ENGINE_H_

#include "server/query_engine.h"

namespace strg::server {

/// The former scatter-gather engine's spellings. QueryEngine serves any
/// number of shards (EngineOptions::num_shards); these names remain for
/// callers written against the separate sharded engine.
using ShardedQueryEngine = QueryEngine;
using ShardedEngineOptions = EngineOptions;

}  // namespace strg::server

#endif  // STRG_SERVER_SHARDED_ENGINE_H_
