#include "analysis.h"

#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>

#include "common.h"
#include "core/parallel.h"
#include "core/rollup.h"
#include "core/rollup_store.h"
#include "trace.h"

namespace perfbench {

namespace core = synscan::core;

TracedAnalysis traced_analyze_capture(const fs::path& path, std::size_t workers,
                                      const core::IngestOptions& options) {
  TracedAnalysis out(bench_registry());
  auto& analysis = out.analysis;
  core::ParallelAnalyzer analyzer(bench_telescope(), workers);
  std::vector<std::uint32_t> rows;
  {
    const trace::Scope ingest_span("ingest.capture");
    out.ingest = core::ingest_capture(
        path, bench_telescope(), options, [&](const synscan::telescope::ProbeBatch& batch) {
          {
            const trace::Scope span("tracker.feed");
            analyzer.feed_probes(batch);
          }
          const auto n = batch.size();
          if (rows.size() < n) {
            const auto old = static_cast<std::uint32_t>(rows.size());
            rows.resize(n);
            for (std::uint32_t i = old; i < n; ++i) rows[i] = i;
          }
          const std::span<const std::uint32_t> all(rows.data(), n);
          {
            const trace::Scope span("observe.ports");
            analysis.ports.observe_batch(batch, all);
          }
          {
            const trace::Scope span("observe.types");
            analysis.types.observe_batch(batch, all);
          }
          {
            const trace::Scope span("observe.geo");
            analysis.geo.observe_batch(batch, all);
          }
        });
  }
  analyzer.absorb_sensor_counters(out.ingest.sensor);
  analysis.frames = out.ingest.frames;
  analysis.final_status = out.ingest.status;
  analysis.from_cache = out.ingest.from_cache;
  const trace::Scope finish_span("tracker.finish");
  analysis.result = analyzer.finish();
  return out;
}

TracedShards traced_run_shards(const core::ShardPlan& plan, std::size_t workers) {
  const auto& telescope = bench_telescope();
  const auto& registry = bench_registry();
  const core::TrackerConfig config{};
  const auto fingerprint = core::analysis_fingerprint(config, telescope.monitored_count());
  const auto count = plan.shards.size();
  std::vector<std::unique_ptr<core::CaptureRollup>> rollups(count);
  TracedShards out(registry);

  std::mutex mutex;
  std::size_t next = 0;  // guarded by mutex, like the counters below
  std::exception_ptr error;

  const auto process = [&](std::size_t index) {
    const auto& capture = plan.shards[index].capture;
    const auto identity = core::cache_identity(capture);
    const auto store = core::rollup_path_for(capture);
    if (identity) {
      std::optional<core::CaptureRollup> stored;
      {
        const trace::Scope span("store.load");
        stored = core::load_rollup(store, registry, *identity, fingerprint);
      }
      if (stored) {
        stored->capture = capture;
        rollups[index] = std::make_unique<core::CaptureRollup>(std::move(*stored));
        const std::lock_guard lock(mutex);
        ++out.stats.store_hits;
        return;
      }
    }
    std::optional<core::CaptureRollup> rollup;
    {
      const trace::Scope span("shard.analyze");
      rollup.emplace(core::analyze_shard(capture, telescope, registry, config,
                                         pinned_ingest()));
    }
    bool wrote = false;
    if (identity) {
      const trace::Scope span("store.save");
      wrote = core::save_rollup(store, *rollup, *identity, fingerprint);
    }
    rollups[index] = std::make_unique<core::CaptureRollup>(std::move(*rollup));
    const std::lock_guard lock(mutex);
    ++out.stats.store_misses;
    if (wrote) ++out.stats.store_writes;
  };

  {
    const trace::Scope pool_span("shard.pool");
    const auto pool_id = pool_span.id();
    const auto worker_loop = [&] {
      for (;;) {
        std::size_t index = 0;
        {
          const std::lock_guard lock(mutex);
          if (error || next >= count) return;
          index = next++;
        }
        try {
          const trace::Scope span("shard.task", pool_id);
          process(index);
        } catch (...) {
          const std::lock_guard lock(mutex);
          if (!error) error = std::current_exception();
          return;
        }
      }
    };
    std::vector<std::thread> pool;
    const auto threads = std::min(workers, std::max<std::size_t>(count, 1));
    for (std::size_t i = 0; i < threads; ++i) pool.emplace_back(worker_loop);
    for (auto& thread : pool) thread.join();
  }
  if (error) std::rethrow_exception(error);
  out.stats.shards = count;

  core::RollupMerger merger(telescope, registry, config);
  for (auto& rollup : rollups) {
    const trace::Scope span("merge.add");
    merger.add(std::move(*rollup));
  }
  const trace::Scope span("merge.finish");
  out.analysis = merger.finish();
  return out;
}

}  // namespace perfbench
