// The workloads: which engine, how large, and at what rates. Sizes
// and the reasons for each workload are listed in perfbench/README.md.
#include <cstdlib>

#include "bench.h"

namespace strg::perfbench {

std::vector<std::string> WorkloadNames() {
  return {"serve_cold", "durable_paged"};
}

WorkloadConfig ConfigFor(const std::string& workload) {
  WorkloadConfig c;
  c.name = workload;
  if (workload == "serve_cold") {
    // Read-only Fig. 7 path: ~3000 OGs on 4 in-RAM shards, uniform probes.
    c.engine = EngineKind::kShardedInRam;
    c.base_videos = 32;
    c.items_per_pattern = 64;  // 3072 OGs
    c.read_rate = 200.0;  // ~1/4 of capacity: a slow host stays unsaturated
    c.slo_p99_ms = 50.0;
    c.slo_start_rate = 900.0;
  } else if (workload == "durable_paged") {
    // WAL + out-of-core leaves, cache ~1/8 of the leaf bytes, Zipf probes.
    c.engine = EngineKind::kDurablePaged;
    c.base_videos = 24;
    c.items_per_pattern = 48;  // 2304 OGs
    c.zipf_probes = true;
    c.read_rate = 20.0;  // ~1/5 of capacity: a slow host stays unsaturated
    c.write_rate = 70.0;
    c.slo_p99_ms = 300.0;
    c.slo_start_rate = 80.0;
  } else {
    std::abort();
  }
  return c;
}

}  // namespace strg::perfbench
