// The three workloads and the metric names every run prints.
#pragma once

#include <array>

#include "common.h"

namespace cutbench {

struct MetricName {
  const char* name;
  const char* unit;
};

// End-to-end metrics (--trace 0), printed by every workload. An "op" is one
// solve on mincut-ring, one k-cut run on kcut-ring and one client request
// (a query batch or a run of single queries) on serve-mixed.
inline constexpr std::array<MetricName, 6> kEndToEnd = {{
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"op_ms_p50", "ms"},
    {"op_ms_tail", "ms"},
    {"ops_per_s", "1/s"},
    {"approx_ratio_mean", "ratio"},
}};

// Per-layer metrics (--trace 1), printed by every workload; a layer the
// workload never enters reads 0. Per-op values are means over traced ops.
inline constexpr std::array<MetricName, 46> kPerLayer = {{
    {"ampc_algo.tracker_ms", "ms"},
    {"ampc.rounds", "count"},
    {"ampc.charged_rounds", "count"},
    {"ampc.dht_read_words", "words"},
    {"ampc.dht_write_words", "words"},
    {"ampc.peak_table_words", "words"},
    {"ampc.max_machine_traffic", "words"},
    {"ampc.budget_violations", "count"},
    {"ampc.rounds.msf", "count"},
    {"ampc.rounds.euler", "count"},
    {"ampc.rounds.components", "count"},
    {"ampc.rounds.list_rank", "count"},
    {"ampc.rounds.low_depth", "count"},
    {"ampc.rounds.singleton", "count"},
    {"ampc.rounds.prefix_sums", "count"},
    {"ampc.rounds.segmented_min_prefix", "count"},
    {"ampc.us_per_round", "us"},
    {"ampc.lease_us", "us"},
    {"ampc.table_reuse_frac", "frac"},
    {"ampc.model_rounds", "count"},
    {"ampc.dht_words", "words"},
    {"exact.local_ms", "ms"},
    {"exact.local_solves", "count"},
    {"mincut.self_ms", "ms"},
    {"mincut.instances", "count"},
    {"mincut.tracker_calls", "count"},
    {"mincut.depth", "count"},
    {"mincut.kcut_passes", "count"},
    {"mincut.split_calls", "count"},
    {"mincut.split_ms", "ms"},
    {"serve.pin_ns", "ns"},
    {"serve.walk_ns", "ns"},
    {"serve.batch_us", "us"},
    {"serve.cache_hit_frac", "frac"},
    {"serve.cache_evictions", "count"},
    {"kernel.merge_ms", "ms"},
    {"kernel.merged_parallel", "count"},
    {"flow.gomory_hu_ms", "ms"},
    {"flow.gusfield_step_us_p50", "us"},
    {"flow.gusfield_step_us_max", "us"},
    {"serve.index_ms", "ms"},
    {"serve.rebuild_coverage", "frac"},
    {"support.pool_threads", "count"},
    {"trace.overhead_frac", "frac"},
    {"trace.spans", "count"},
    {"trace.equal_frac", "frac"},
}};

// Set-up is repeated this many times per solve run; setup_s is the median.
inline constexpr int kSetupReps = 5;

// Starts a metric set holding every per-layer name at 0, in table order.
inline void zero_layers(MetricSet& m) {
  for (const MetricName& n : kPerLayer) m.set(n.name, 0.0, n.unit);
}

RunResult run_mincut_ring(const RunArgs& args);
RunResult run_kcut_ring(const RunArgs& args);
RunResult run_serve_mixed(const RunArgs& args);

}  // namespace cutbench
