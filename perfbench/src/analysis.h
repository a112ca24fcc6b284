// The analysis sequences of the traced run, rebuilt from the same
// public calls `core::analyze_capture` and `core::run_shards` make, with
// a span around each call into a layer.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "core/analysis_session.h"
#include "core/ingest.h"
#include "core/shard.h"

namespace perfbench {

/// `core::analyze_capture` at `workers` > 1, call for call: ingest feeds
/// a `ParallelAnalyzer` and the three streaming observers per batch.
/// Spans: ingest.capture > {tracker.feed, observe.ports, observe.types,
/// observe.geo}, then tracker.finish.
struct TracedAnalysis {
  explicit TracedAnalysis(const synscan::enrich::InternetRegistry& registry)
      : analysis(registry) {}
  synscan::core::AnalyzedCapture analysis;
  synscan::core::IngestResult ingest;
};
[[nodiscard]] TracedAnalysis traced_analyze_capture(
    const std::filesystem::path& path, std::size_t workers,
    const synscan::core::IngestOptions& options);

/// `core::run_shards` with the rollup store on, call for call: a pool of
/// `workers` threads loads each shard's `.spr` or re-analyzes and saves
/// it (spans store.load, shard.analyze, store.save under the calling
/// thread's shard.pool span), then the calling thread merges in plan
/// order (merge.add, merge.finish).
struct TracedShards {
  explicit TracedShards(const synscan::enrich::InternetRegistry& registry)
      : analysis(registry) {}
  synscan::core::AnalyzedCapture analysis;
  synscan::core::ShardRunStats stats;
};
[[nodiscard]] TracedShards traced_run_shards(const synscan::core::ShardPlan& plan,
                                             std::size_t workers);

}  // namespace perfbench
