#include "layers.h"

#include <algorithm>
#include <array>
#include <thread>

#include "analysis.h"
#include "core/rollup.h"
#include "core/rollup_store.h"
#include "core/shard.h"
#include "pcap/mapped_reader.h"
#include "reads.h"
#include "server/daemon.h"
#include "telescope/sensor.h"

namespace perfbench {

namespace core = synscan::core;

namespace {

constexpr std::array<const char*, 8> kShareLayers = {
    "ingest", "tracker", "observe", "report", "shard", "merge", "client", "idle"};

/// Closed-loop read rounds in the layer pass.
constexpr std::size_t kLayerReadRounds = 5;
/// The layer pass's open-loop load (share of execution capacity) and length.
constexpr double kLayerLoad = 0.25;
constexpr double kLayerSeconds = 1.0;

}  // namespace

void default_sequence_metrics(Metrics& metrics) {
  metrics.set("store.hits", 0, "count");
  metrics.set("store.misses", 0, "count");
}

void decomposition_metrics(const std::vector<trace::Span>& spans,
                           const std::vector<std::uint32_t>& roots,
                           const std::vector<double>& traced_s,
                           const std::vector<double>& untraced_s, Metrics& metrics) {
  double wall = 0;
  double unattributed = 0;
  std::map<std::string, double> layers;
  for (const auto root : roots) {
    const auto part = trace::decompose(spans, root);
    wall += part.wall_s;
    unattributed += part.unattributed_s;
    for (const auto& [layer, seconds] : part.layer_self_s) layers[layer] += seconds;
  }
  double attributed = 0;
  for (const auto* layer : kShareLayers) {
    const double seconds = layers[layer];
    attributed += seconds;
    metrics.set(std::string("self.") + layer + "_share", wall > 0 ? seconds / wall : 0,
                "share");
  }
  // Layers outside the share list would break the sum; fold them into
  // the unattributed remainder so shares + remainder stay exactly 1.
  double other = 0;
  for (const auto& [layer, seconds] : layers) other += seconds;
  other -= attributed;
  metrics.set("trace.wall_s", wall / static_cast<double>(std::max<std::size_t>(roots.size(), 1)),
              "s");
  metrics.set("trace.unattributed_share", wall > 0 ? (unattributed + other) / wall : 0,
              "share");
  const double base = median(untraced_s);
  metrics.set("trace.overhead_share", base > 0 ? median(traced_s) / base - 1 : 0, "share");
}

void layer_pass(const fs::path& capture, const fs::path& dir, std::uint64_t seed,
                Metrics& metrics, std::vector<trace::Span>& spans, std::uint64_t& attempted,
                std::uint64_t& failed) {
  fs::create_directories(dir);
  const auto cache = dir / "layer.spc";
  const auto store = dir / "layer.spr";
  fs::remove(cache);
  fs::remove(store);
  trace::start();

  // pcap + telescope: one mapped walk, classification timed apart.
  {
    auto reader = synscan::pcap::MappedReader::open(capture);
    synscan::telescope::Sensor sensor(bench_telescope());
    synscan::telescope::ProbeBatch batch;
    std::vector<synscan::net::FrameView> views;
    std::uint64_t frames = 0;
    {
      const trace::Scope span("pcap.read");
      while (reader.next_batch(views, 4096) == synscan::pcap::ReadStatus::kOk) {
        frames += views.size();
        batch.clear();
        const trace::Scope classify("telescope.classify");
        (void)sensor.classify_batch(views, batch);
      }
    }
    metrics.set("pcap.frames", static_cast<double>(frames), "count");
    metrics.set("pcap.bytes", static_cast<double>(reader.byte_size()), "bytes");
    const double denominator = frames > 0 ? static_cast<double>(frames) : 1;
    metrics.set("telescope.probe_share",
                static_cast<double>(sensor.counters().scan_probes) / denominator, "share");
    metrics.set("telescope.simd_row_share", static_cast<double>(sensor.simd_rows()) / denominator,
                "share");
  }

  // Cold analysis with the pinned workers, then emission.
  auto options = pinned_ingest();
  options.cache_path = cache;
  auto cold = traced_analyze_capture(capture, kAnalysisWorkers, options);
  std::string report;
  {
    const trace::Scope span("report.emit");
    report = report_bytes(cold.analysis);
  }
  const auto& result = cold.analysis.result;
  metrics.set("ingest.batches", static_cast<double>(cold.ingest.batches), "count");
  metrics.set("ingest.chunks", static_cast<double>(cold.ingest.chunks), "count");
  const auto cache_size = file_bytes(cache);
  metrics.set("probe_cache.write_bytes", static_cast<double>(cache_size), "bytes");
  metrics.set("probe_cache.bytes_per_probe",
              result.sensor.scan_probes > 0
                  ? static_cast<double>(cache_size) / static_cast<double>(result.sensor.scan_probes)
                  : 0,
              "bytes");
  metrics.set("tracker.probes", static_cast<double>(result.tracker.probes), "count");
  metrics.set("tracker.campaigns", static_cast<double>(result.campaigns.size()), "count");
  std::uint64_t campaign_probes = 0;
  for (const auto& campaign : result.campaigns) campaign_probes += campaign.packets;
  metrics.set("tracker.campaign_probe_share",
              result.tracker.probes > 0 ? static_cast<double>(campaign_probes) /
                                              static_cast<double>(result.tracker.probes)
                                        : 0,
              "share");
  metrics.set("tracker.expired_flows", static_cast<double>(result.tracker.expired_flows),
              "count");
  metrics.set("tracker.peak_open_flows", static_cast<double>(result.tracker.peak_open_flows),
              "count");
  metrics.set("emit.bytes", static_cast<double>(report.size()), "bytes");

  // Probe cache read on its own.
  {
    const trace::Scope span("probe_cache.read");
    const auto warm = core::ingest_capture(capture, bench_telescope(), options,
                                           [](const synscan::telescope::ProbeBatch&) {});
    ++attempted;
    if (!warm.from_cache) ++failed;
  }

  // Shard, rollup store and merge on this one capture.
  {
    const std::vector<fs::path> captures = {capture};
    {
      const trace::Scope span("shard.plan");
      (void)core::plan_shards(captures);
    }
    const core::TrackerConfig config{};
    const auto fingerprint =
        core::analysis_fingerprint(config, bench_telescope().monitored_count());
    const auto identity = core::cache_identity(capture);
    std::optional<core::CaptureRollup> rollup;
    {
      const trace::Scope span("shard.analyze");
      rollup.emplace(core::analyze_shard(capture, bench_telescope(), bench_registry(), config,
                                         options));
    }
    bool saved = false;
    {
      const trace::Scope span("store.save");
      saved = identity && core::save_rollup(store, *rollup, *identity, fingerprint);
    }
    std::optional<core::CaptureRollup> loaded;
    if (saved) {
      const trace::Scope span("store.load");
      loaded = core::load_rollup(store, bench_registry(), *identity, fingerprint);
    }
    metrics.set("store.save_bytes", static_cast<double>(file_bytes(store)), "bytes");
    metrics.set("store.load_bytes", static_cast<double>(loaded ? file_bytes(store) : 0), "bytes");
    metrics.set("merge.boundary_segments",
                static_cast<double>(loaded ? loaded->segments.size() : 0), "count");
    ++attempted;
    if (!loaded) {
      ++failed;
    } else {
      core::RollupMerger merger(bench_telescope(), bench_registry(), config);
      {
        const trace::Scope span("merge.add");
        merger.add(std::move(*loaded));
      }
      std::optional<core::AnalyzedCapture> merged_analysis;
      {
        const trace::Scope span("merge.finish");
        merged_analysis.emplace(merger.finish());
      }
      const auto merged = report_bytes(*merged_analysis);
      // A one-shard merge must reproduce the serial shard analysis; the
      // serial campaign order equals the parallel one (canonical order).
      const auto diff = diff_reports(merged, report);
      if (diff.campaign_lines != 0) ++failed;
    }
  }

  // Query execution in process.
  const auto reads = closed_loop_reads(cold.analysis, report, kLayerReadRounds, nullptr);
  attempted += reads.attempted;
  failed += reads.failed;
  std::array<double, kReadClasses> exec_ms{};
  for (std::size_t cls = 0; cls < kReadClasses; ++cls) {
    exec_ms[cls] = class_latency_ms(reads, static_cast<ReadClass>(cls));
    metrics.set(std::string("server.exec_") + kReadClassNames[cls] + "_ms", exec_ms[cls], "ms");
  }

  // A daemon holding the capture, under a short open-loop mix.
  {
    synscan::server::DaemonConfig config;
    config.unix_socket = (dir / "layer.sock").string();
    config.workers = kDaemonIoWorkers;
    config.analysis_workers = kAnalysisWorkers;
    config.ingest = options;
    synscan::server::Daemon daemon(bench_telescope(), bench_registry(), config);
    {
      const trace::Scope span("server.preload");
      daemon.preload(capture.string());
    }
    std::thread serve([&daemon] { daemon.serve(); });
    StepResult step;
    try {
      OpenLoop loop(config.unix_socket, reader_connections(), expected_bodies(cold.analysis));
      // Offer a quarter of what the I/O workers can execute, so the
      // residual is transport and queueing at light load on every capture.
      const double mean_exec_ms = 0.70 * exec_ms[0] + 0.25 * exec_ms[1] + 0.05 * exec_ms[2];
      const double rate = std::clamp(kLayerLoad * static_cast<double>(kDaemonIoWorkers) * 1e3 /
                                         std::max(mean_exec_ms, 1e-3),
                                     10.0, 1000.0);
      step = loop.run_step(rate, kLayerSeconds, seed + 17, {}, 0);
    } catch (...) {
      daemon.request_shutdown();
      serve.join();
      throw;
    }
    daemon.request_shutdown();
    serve.join();
    attempted += step.reads.attempted;
    failed += step.reads.failed;
    std::vector<double> residual;
    for (std::size_t command = 0; command < step.reads.command_ms.size(); ++command) {
      const double exec = median(reads.command_ms[command]);
      for (const double ms : step.reads.command_ms[command]) residual.push_back(ms - exec);
    }
    metrics.set("server.residual_p99_ms", percentile(residual, 0.99), "ms");
    metrics.set("server.response_bytes", static_cast<double>(step.reads.response_bytes), "bytes");
    metrics.set("client.gen_late_p99_ms", percentile(step.late_ms, 0.99), "ms");
    metrics.set("client.max_outstanding", static_cast<double>(step.max_outstanding), "count");
  }

  auto recorded = trace::stop();
  const auto summary = trace::summarize(recorded);
  const auto total = [&](const char* name) {
    const auto it = summary.total_s.find(name);
    return it == summary.total_s.end() ? 0.0 : it->second;
  };
  const auto self = [&](const char* name) {
    const auto it = summary.self_s.find(name);
    return it == summary.self_s.end() ? 0.0 : it->second;
  };
  metrics.set("pcap.read_s", self("pcap.read"), "s");
  metrics.set("telescope.classify_s", total("telescope.classify"), "s");
  metrics.set("ingest.self_s", self("ingest.capture"), "s");
  metrics.set("probe_cache.read_s", total("probe_cache.read"), "s");
  metrics.set("tracker.feed_s", total("tracker.feed"), "s");
  metrics.set("tracker.finish_s", total("tracker.finish"), "s");
  metrics.set("observe.ports_s", total("observe.ports"), "s");
  metrics.set("observe.types_s", total("observe.types"), "s");
  metrics.set("observe.geo_s", total("observe.geo"), "s");
  metrics.set("emit.s", total("report.emit"), "s");
  metrics.set("shard.plan_s", total("shard.plan"), "s");
  metrics.set("shard.analyze_s", total("shard.analyze"), "s");
  metrics.set("store.save_s", total("store.save"), "s");
  metrics.set("store.load_s", total("store.load"), "s");
  metrics.set("merge.add_s", total("merge.add"), "s");
  metrics.set("merge.finish_s", total("merge.finish"), "s");
  metrics.set("server.load_analyze_s", total("server.preload"), "s");
  spans.insert(spans.end(), recorded.begin(), recorded.end());
  fs::remove(cache);
  fs::remove(store);
}

}  // namespace perfbench
