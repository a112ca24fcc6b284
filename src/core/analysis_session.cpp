#include "core/analysis_session.h"

#include <optional>
#include <span>
#include <vector>

#include "core/parallel.h"
#include "obs/timer.h"
#include "telescope/probe_batch.h"

namespace synscan::core {

AnalyzedCapture analyze_capture(const std::filesystem::path& path,
                                const telescope::Telescope& telescope,
                                const enrich::InternetRegistry& registry,
                                std::size_t workers, const IngestOptions& options) {
  AnalyzedCapture analysis(registry);
  // Classification happens once, on the ingest thread. The streaming
  // observers (not thread-safe) consume each batch there in file order;
  // campaign tracking runs serially or sharded by source across the
  // workers, which receive row-index slices into a shared copy of the
  // batch columns.
  std::optional<Pipeline> serial;
  std::optional<ParallelAnalyzer> parallel;
  if (workers <= 1) {
    serial.emplace(telescope);
  } else {
    parallel.emplace(telescope, workers);
  }
  std::vector<std::uint32_t> rows;
  {
    obs::ScopedTimer ingest("analyze.ingest");
    const auto ingested = ingest_capture(
        path, telescope, options, [&](const telescope::ProbeBatch& batch) {
          if (serial) {
            serial->feed_probes(batch);
          } else {
            parallel->feed_probes(batch);
          }
          const auto n = batch.size();
          if (rows.size() < n) {
            const auto old = static_cast<std::uint32_t>(rows.size());
            rows.resize(n);
            for (std::uint32_t i = old; i < n; ++i) rows[i] = i;
          }
          const std::span<const std::uint32_t> all(rows.data(), n);
          const obs::ScopedTimer observers("analyze.observers");
          analysis.ports.observe_batch(batch, all);
          analysis.types.observe_batch(batch, all);
          analysis.geo.observe_batch(batch, all);
        });
    if (serial) {
      serial->absorb_sensor_counters(ingested.sensor);
    } else {
      parallel->absorb_sensor_counters(ingested.sensor);
    }
    analysis.frames = ingested.frames;
    analysis.final_status = ingested.status;
    analysis.from_cache = ingested.from_cache;
  }
  const obs::ScopedTimer finish("analyze.finish");
  analysis.result = serial ? serial->finish() : parallel->finish();
  return analysis;
}

}  // namespace synscan::core
