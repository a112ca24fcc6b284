#include "workloads.h"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "analysis.h"
#include "core/parallel.h"
#include "core/rollup_store.h"
#include "core/shard.h"
#include "layers.h"
#include "pcap/pcap.h"
#include "reads.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/protocol.h"
#include "trace.h"

namespace perfbench {

namespace core = synscan::core;

namespace {

// Input sizes (simgen scale divides the calibrated volume).
constexpr double kCaptureScale = 2.0;  // 2024: ~2.6M frames, ~180 MB
constexpr double kDecadeScale = 4.0;   // 2015-2024: ~9M frames
constexpr double kDaemonScale = 4.0;   // 2024: ~1.2M frames
constexpr synscan::net::TimeUs kWeekUs = 7 * synscan::net::kMicrosPerDay;

/// Set-up repetitions; set-up time is their median.
constexpr int kSetupReps = 3;
constexpr int kProgramSetupReps = 21;
constexpr int kDaemonSetupReps = 9;
/// Traced-sequence repetitions (each beside an untraced one).
constexpr int kTraceReps = 3;
constexpr int kMinJobs = 3;

// daemon-mix ladder.
constexpr double kRefRate = 125;       // reads/s every class meets
constexpr double kRoundShare = 0.8;    // of --seconds: reference-rate rounds
constexpr double kRoundSeconds = 1.0;  // each half-round; the writer LOADs once
constexpr double kLoadPeriod = kRoundSeconds / 2;  // two LOADs per write half-round
constexpr double kStepSeconds = 1.0;   // per read-only ladder step
constexpr double kCapacitySeconds = 3.0;  // the capacity step past the ladder
constexpr double kCapacityBin = 0.25;     // seconds per completion count
constexpr int kCapacityTries = 3;
constexpr double kStealLimit = 0.02;  // share of CPU time the hypervisor may steal
constexpr double kLadderStart = 2;     // x kRefRate
constexpr double kLadderGrowth = 1.5;  // rate factor from step to step
constexpr int kLadderMaxSteps = 10;    // 250/s to ~9600/s
constexpr double kP99LimitMs = 250;
constexpr double kBacklogSeconds = 0.1;  // backlog limit: this much arrival
constexpr double kTraceStepSeconds = 2.0;

fs::path spc_of(const fs::path& capture) {
  auto path = capture;
  path += ".spc";
  return path;
}

std::string pinned_json(std::size_t readers) {
  Detail pinned;
  pinned.number("analysis_workers", kAnalysisWorkers);
  pinned.number("scan_chunks", kScanChunks);
  pinned.number("shard_workers", kShardWorkers);
  pinned.number("daemon_io_workers", kDaemonIoWorkers);
  pinned.number("daemon_analysis_workers", kDaemonAnalysisWorkers);
  pinned.number("read_connections", static_cast<double>(readers));
  pinned.number("writer_connections", 1);
  return pinned.to_json();
}

std::string diff_json(const ReportDiff& diff) {
  std::string fields = "[";
  for (std::size_t i = 0; i < diff.fields.size(); ++i) {
    if (i != 0) fields += ", ";
    fields += json_string(diff.fields[i]);
  }
  Detail detail;
  detail.number("counter_fields", static_cast<double>(diff.counter_fields));
  detail.number("campaign_lines", static_cast<double>(diff.campaign_lines));
  detail.raw("fields", fields + "]");
  return detail.to_json();
}

/// Traced-run bookkeeping: spans and roots of the sequence repetitions.
struct Sequence {
  std::vector<trace::Span> spans;
  std::vector<std::uint32_t> roots;
  std::vector<double> traced;
  std::vector<double> untraced;

  /// Runs `untraced` and `traced` alternately; each returns its cost
  /// (wall seconds, or whatever the workload compares).
  template <class Untraced, class Traced>
  void run(Untraced untraced_op, Traced traced_op) {
    for (int rep = 0; rep < kTraceReps; ++rep) {
      untraced.push_back(untraced_op());
      trace::start();
      double cost = 0;
      {
        const trace::Scope root("bench.op");
        roots.push_back(root.id());
        cost = traced_op();
      }
      auto recorded = trace::stop();
      spans.insert(spans.end(), recorded.begin(), recorded.end());
      traced.push_back(cost);
    }
  }
};

/// Shared tail of every traced run: decomposition, layer pass, spans.
void finish_traced(RunResult& out, Sequence& sequence, const fs::path& capture,
                   const RunArgs& args, double generate_s, const ReportDiff& diff) {
  decomposition_metrics(sequence.spans, sequence.roots, sequence.traced, sequence.untraced,
                        out.metrics);
  layer_pass(capture, args.work_dir / "layers", args.seed, out.metrics, sequence.spans,
             out.attempted, out.failed);
  out.metrics.set("simgen.generate_s", generate_s, "s");
  out.metrics.set("report_diff_fields", static_cast<double>(diff.total()), "count");
  const auto trace_file = args.work_dir.parent_path() /
                          ("trace-" + args.workload + "-" + std::to_string(args.seed) + ".jsonl");
  trace::write_jsonl(sequence.spans, trace_file);
  out.detail.text("trace_file", trace_file.string());
  out.detail.number("spans", static_cast<double>(sequence.spans.size()));
}

/// The measured phase of a batch workload: `job` runs until
/// `--seconds` have passed (at least kMinJobs times), each
/// followed by one round of in-process reads of its result (`last`,
/// `report`), so jobs and reads sample the same stretch of host time.
struct BatchRun {
  std::vector<double> jobs;
  ReadSamples reads;
  std::vector<double> round_p99;  ///< p99 of each round of reads
  double exec_seconds = 0;
};
template <class Job>
BatchRun measure_batch(const RunArgs& args, Job& job,
                       const std::optional<core::AnalyzedCapture>& last,
                       const std::string& report) {
  BatchRun run;
  const auto start = Clock::now();
  while (static_cast<int>(run.jobs.size()) < kMinJobs ||
         seconds_since(start) < args.seconds) {
    run.jobs.push_back(job());
    double exec = 0;
    const auto round = closed_loop_reads(*last, report, 1, &exec);
    run.round_p99.push_back(percentile(round.all_ms(), 0.99));
    run.reads.append(round);
    run.exec_seconds += exec;
  }
  return run;
}

/// The end-to-end read metrics of a batch workload: per-class latencies
/// (class_latency_ms), the median over rounds of each round's p99 (as
/// daemon-mix takes it over its read halves), and reads per second of
/// execution.
void set_read_metrics(const BatchRun& run, Metrics& metrics) {
  for (std::size_t cls = 0; cls < kReadClasses; ++cls) {
    metrics.set(std::string("q_") + kReadClassNames[cls] + "_p50_ms",
                class_latency_ms(run.reads, static_cast<ReadClass>(cls)), "ms");
  }
  metrics.set("q_p99_ms", median(run.round_p99), "ms");
  metrics.set("max_qps",
              run.exec_seconds > 0
                  ? static_cast<double>(run.reads.attempted) / run.exec_seconds
                  : 0,
              "1/s");
}

std::string json_numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (const double value : values) {
    if (out.size() > 1) out += ", ";
    out += std::to_string(value);
  }
  return out + "]";
}

void set_read_detail(RunResult& out, const ReadSamples& reads) {
  Detail detail;
  for (std::size_t cls = 0; cls < kReadClasses; ++cls) {
    detail.number(std::string(kReadClassNames[cls]) + "_samples",
                  static_cast<double>(reads.ms[cls].size()));
  }
  out.detail.raw("reads", detail.to_json());
}

}  // namespace

// ---------------------------------------------------------------------------
// capture-cold

RunResult run_capture_cold(const RunArgs& args) {
  RunResult out;
  const auto capture = args.work_dir / "capture.pcap";
  auto start = Clock::now();
  generate_capture(2024, kCaptureScale, args.seed, capture);
  const double generate_s = seconds_since(start);

  // Program set-up before the first capture: the telescope model, the
  // registry index and the analysis worker pool.
  std::vector<double> setup;
  for (int rep = 0; rep < kProgramSetupReps; ++rep) {
    start = Clock::now();
    const auto telescope = synscan::telescope::Telescope::paper_default();
    const auto records = bench_registry().records();
    const synscan::enrich::InternetRegistry registry(
        std::vector<synscan::enrich::PrefixRecord>(records.begin(), records.end()));
    {
      core::ParallelAnalyzer analyzer(telescope, kAnalysisWorkers);
      (void)analyzer.finish();
    }
    setup.push_back(seconds_since(start));
  }

  // Reference: the serial pipeline, no probe cache.
  auto serial = pinned_ingest();
  serial.use_cache = false;
  const auto reference = report_bytes(
      core::analyze_capture(capture, bench_telescope(), bench_registry(), 1, serial));

  ReportDiff worst;
  const auto check = [&](const std::string& payload) {
    const auto diff = diff_reports(payload, reference);
    ++out.attempted;
    if (diff.campaign_lines != 0) ++out.failed;
    if (diff.total() >= worst.total()) worst = diff;
  };
  std::optional<core::AnalyzedCapture> last;
  std::string last_report;
  // Each job starts with the previous job's .spc gone and the disk
  // quiet, so its own .spc write is measured without earlier writeback.
  const auto cold_analysis = [&] {
    fs::remove(spc_of(capture));
    settle(args.work_dir);
    const auto op_start = Clock::now();
    last.emplace(core::analyze_capture(capture, bench_telescope(), bench_registry(),
                                       kAnalysisWorkers, pinned_ingest()));
    last_report = report_bytes(*last);
    const double elapsed = seconds_since(op_start);
    check(last_report);
    return elapsed;
  };

  out.detail.raw("pinned", pinned_json(0));
  out.detail.number("simgen_generate_s", generate_s);
  settle(args.work_dir);
  if (!args.trace) {
    const bool scoped_rss = reset_peak_rss();
    const auto run = measure_batch(args, cold_analysis, last, last_report);
    const auto& [jobs, reads, round_p99, exec_seconds] = run;
    out.attempted += reads.attempted;
    out.failed += reads.failed;
    out.metrics.set("setup_s", median(setup), "s");
    out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.metrics.set("analyze_s", median(jobs), "s");
    out.metrics.set("store_bytes_per_capture_byte",
                    static_cast<double>(file_bytes(spc_of(capture))) /
                        static_cast<double>(file_bytes(capture)),
                    "ratio");
    set_read_metrics(run, out.metrics);
    out.detail.raw("job_s", json_numbers(jobs));
    out.detail.number("peak_rss_scoped", scoped_rss ? 1 : 0);
    set_read_detail(out, reads);
  } else {
    Sequence sequence;
    sequence.run(cold_analysis, [&] {
      fs::remove(spc_of(capture));
      settle(args.work_dir);
      const auto op_start = Clock::now();
      auto traced = traced_analyze_capture(capture, kAnalysisWorkers, pinned_ingest());
      std::string payload;
      {
        const trace::Scope span("report.emit");
        payload = report_bytes(traced.analysis);
      }
      const double elapsed = seconds_since(op_start);
      check(payload);
      return elapsed;
    });
    default_sequence_metrics(out.metrics);
    finish_traced(out, sequence, capture, args, generate_s, worst);
  }
  out.detail.raw("report_diff", diff_json(worst));
  return out;
}

// ---------------------------------------------------------------------------
// decade-refresh

RunResult run_decade_refresh(const RunArgs& args) {
  RunResult out;
  const auto data = args.work_dir / "decade";
  fs::create_directories(data);
  std::vector<fs::path> captures;
  auto start = Clock::now();
  for (int year = 2015; year <= 2024; ++year) {
    std::optional<synscan::pcap::Writer> writer;
    std::int64_t week = -1;
    synscan::net::TimeUs window_start = 0;
    generate_year(year, kDecadeScale, args.seed, [&](const synscan::net::RawFrame& frame) {
      // Weeks count from the year's first frame.
      if (week < 0) window_start = frame.timestamp_us;
      const auto index = std::max<std::int64_t>(0, (frame.timestamp_us - window_start) / kWeekUs);
      if (index != week) {
        if (writer) writer->flush();
        week = index;
        char name[32];
        std::snprintf(name, sizeof name, "y%dw%02lld.pcap", year, static_cast<long long>(week));
        captures.push_back(data / name);
        writer.emplace(synscan::pcap::Writer::create(captures.back()));
      }
      writer->write(frame);
    });
    if (writer) writer->flush();
  }
  const double generate_s = seconds_since(start);

  const auto clear_stores = [&] {
    for (const auto& capture : captures) {
      fs::remove(spc_of(capture));
      fs::remove(core::rollup_path_for(capture));
    }
  };
  core::ShardRunOptions store_on;
  store_on.workers = kShardWorkers;
  store_on.use_rollup_store = true;
  store_on.ingest = pinned_ingest();

  // Set-up: the initial `.spc`/`.spr` build of the whole decade.
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    clear_stores();
    start = Clock::now();
    const auto plan = core::plan_shards(captures);
    (void)core::run_shards(plan, bench_telescope(), bench_registry(), core::TrackerConfig{},
                           store_on);
    setup.push_back(seconds_since(start));
  }

  // Reference: the same shard set with the rollup store off.
  auto store_off = store_on;
  store_off.use_rollup_store = false;
  const auto reference = report_bytes(
      core::run_shards(core::plan_shards(captures), bench_telescope(), bench_registry(),
                       core::TrackerConfig{}, store_off)
          .analysis);

  const auto newest = core::plan_shards(captures).shards.back().capture;
  ReportDiff worst;
  const auto check = [&](const std::string& payload, const core::ShardRunStats& stats) {
    ++out.attempted;
    const auto diff = diff_reports(payload, reference);
    if (payload != reference || stats.store_misses != 1 ||
        stats.store_hits + 1 != captures.size()) {
      ++out.failed;
    }
    if (diff.total() >= worst.total()) worst = diff;
  };
  std::optional<core::AnalyzedCapture> last;
  std::string last_report;
  const auto refresh = [&] {
    fs::remove(core::rollup_path_for(newest));
    const auto op_start = Clock::now();
    const auto plan = core::plan_shards(captures);
    auto result = core::run_shards(plan, bench_telescope(), bench_registry(),
                                   core::TrackerConfig{}, store_on);
    last_report = report_bytes(result.analysis);
    const double elapsed = seconds_since(op_start);
    check(last_report, result.stats);
    last.emplace(std::move(result.analysis));
    return elapsed;
  };

  std::uint64_t capture_bytes = 0;
  std::uint64_t store_bytes = 0;
  for (const auto& capture : captures) {
    capture_bytes += file_bytes(capture);
    store_bytes += file_bytes(spc_of(capture)) + file_bytes(core::rollup_path_for(capture));
  }
  out.detail.raw("pinned", pinned_json(0));
  out.detail.number("simgen_generate_s", generate_s);
  out.detail.number("captures", static_cast<double>(captures.size()));
  out.detail.number("capture_bytes", static_cast<double>(capture_bytes));
  settle(args.work_dir);
  if (!args.trace) {
    const bool scoped_rss = reset_peak_rss();
    const auto run = measure_batch(args, refresh, last, last_report);
    const auto& [jobs, reads, round_p99, exec_seconds] = run;
    out.attempted += reads.attempted;
    out.failed += reads.failed;
    out.metrics.set("setup_s", median(setup), "s");
    out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.metrics.set("analyze_s", median(jobs), "s");
    out.metrics.set("store_bytes_per_capture_byte",
                    static_cast<double>(store_bytes) / static_cast<double>(capture_bytes),
                    "ratio");
    set_read_metrics(run, out.metrics);
    out.detail.raw("job_s", json_numbers(jobs));
    out.detail.number("peak_rss_scoped", scoped_rss ? 1 : 0);
    set_read_detail(out, reads);
  } else {
    Sequence sequence;
    core::ShardRunStats traced_stats;
    sequence.run(refresh, [&] {
      fs::remove(core::rollup_path_for(newest));
      const auto op_start = Clock::now();
      std::optional<core::ShardPlan> plan;
      {
        const trace::Scope span("shard.plan");
        plan.emplace(core::plan_shards(captures));
      }
      auto traced = traced_run_shards(*plan, kShardWorkers);
      std::string payload;
      {
        const trace::Scope span("report.emit");
        payload = report_bytes(traced.analysis);
      }
      const double elapsed = seconds_since(op_start);
      check(payload, traced.stats);
      traced_stats = traced.stats;
      return elapsed;
    });
    out.metrics.set("store.hits", static_cast<double>(traced_stats.store_hits), "count");
    out.metrics.set("store.misses", static_cast<double>(traced_stats.store_misses), "count");
    const auto largest = *std::max_element(
        captures.begin(), captures.end(),
        [](const fs::path& a, const fs::path& b) { return file_bytes(a) < file_bytes(b); });
    finish_traced(out, sequence, largest, args, generate_s, worst);
  }
  out.detail.raw("report_diff", diff_json(worst));
  return out;
}

// ---------------------------------------------------------------------------
// daemon-mix

namespace {

/// A daemon serving on its own thread; shut down and joined on scope exit.
class DaemonHost {
 public:
  explicit DaemonHost(const synscan::server::DaemonConfig& config)
      : daemon_(bench_telescope(), bench_registry(), config),
        serve_([this] { daemon_.serve(); }) {}
  ~DaemonHost() {
    daemon_.request_shutdown();
    serve_.join();
  }
  DaemonHost(const DaemonHost&) = delete;
  DaemonHost& operator=(const DaemonHost&) = delete;

 private:
  synscan::server::Daemon daemon_;
  std::thread serve_;
};

/// The backlog grew: more than kBacklogSeconds of arrivals were still
/// unanswered when sending stopped, so the rate exceeded capacity.
bool step_saturated(const StepResult& step) {
  return static_cast<double>(step.end_outstanding) > std::max(8.0, step.rate * kBacklogSeconds);
}

/// Read capacity from a step whose backlog grew: completed reads per
/// second in kCapacityBin-second bins while sending, as the median over
/// the bins after the first (the queue is still filling there). The
/// daemon is never idle then, so a host stall spoils a bin, not the
/// figure.
double capacity_qps(const StepResult& step) {
  const auto bins = static_cast<std::size_t>(kCapacitySeconds / kCapacityBin);
  std::vector<double> rates(bins, 0);
  for (const double t : step.done_s) {
    const auto bin = static_cast<std::size_t>(t / kCapacityBin);
    if (bin < bins) rates[bin] += 1 / kCapacityBin;
  }
  rates.erase(rates.begin());
  return median(rates);
}

bool step_passes(const StepResult& step) {
  const auto all = step.reads.all_ms();
  return !all.empty() && percentile(all, 0.99) <= kP99LimitMs && step.reads.failed == 0 &&
         step.load_failed == 0 && !step_saturated(step);
}

std::string step_json(const StepResult& step) {
  Detail detail;
  detail.number("rate", step.rate);
  detail.number("sent", static_cast<double>(step.reads.attempted));
  detail.number("failed", static_cast<double>(step.reads.failed));
  detail.number("p50_ms", median(step.reads.all_ms()));
  detail.number("p99_ms", percentile(step.reads.all_ms(), 0.99));
  detail.number("gen_late_p99_ms", percentile(step.late_ms, 0.99));
  detail.number("max_outstanding", static_cast<double>(step.max_outstanding));
  detail.number("end_outstanding", static_cast<double>(step.end_outstanding));
  detail.number("throughput", step.window_throughput);
  detail.number("loads", static_cast<double>(step.load_s.size()));
  detail.number("passes", step_passes(step) ? 1 : 0);
  detail.number("saturated", step_saturated(step) ? 1 : 0);
  return detail.to_json();
}

}  // namespace

RunResult run_daemon_mix(const RunArgs& args) {
  RunResult out;
  const auto capture = args.work_dir / "capture.pcap";
  const auto sibling = args.work_dir / "capture_b.pcap";
  auto start = Clock::now();
  generate_capture(2024, kDaemonScale, args.seed, capture);
  const double generate_s = seconds_since(start);
  fs::copy_file(capture, sibling, fs::copy_options::overwrite_existing);
  // The writer's sibling is served from its own warm `.spc`.
  (void)core::ingest_capture(sibling, bench_telescope(), pinned_ingest(),
                             [](const synscan::telescope::ProbeBatch&) {});

  synscan::server::DaemonConfig config;
  config.unix_socket = (args.work_dir / "d.sock").string();
  config.workers = kDaemonIoWorkers;
  config.analysis_workers = kDaemonAnalysisWorkers;
  config.ingest = pinned_ingest();

  // Set-up: daemon start through the first LOAD acknowledged (cold).
  std::vector<double> setup;
  std::unique_ptr<DaemonHost> host;
  for (int rep = 0; rep < kDaemonSetupReps; ++rep) {
    host.reset();
    fs::remove(spc_of(capture));
    start = Clock::now();
    host = std::make_unique<DaemonHost>(config);
    auto client = synscan::server::Client::connect_unix(config.unix_socket);
    const auto reply = client.roundtrip("LOAD " + capture.string());
    setup.push_back(seconds_since(start));
    std::string_view body;
    std::string error;
    if (!synscan::server::parse_response(reply, body, error)) {
      throw std::runtime_error("daemon set-up LOAD failed: " + error);
    }
  }

  // Reference: the offline report at the daemon's analysis workers.
  const auto offline = core::analyze_capture(capture, bench_telescope(), bench_registry(),
                                             kDaemonAnalysisWorkers, pinned_ingest());
  const auto reference = report_bytes(offline);
  ReportDiff diff;
  {
    auto client = synscan::server::Client::connect_unix(config.unix_socket);
    const auto reply = client.roundtrip("QUERY analyze");
    std::string_view body;
    std::string error;
    ++out.attempted;
    if (!synscan::server::parse_response(reply, body, error)) {
      ++out.failed;
    } else {
      diff = diff_reports(std::string(body), reference);
      if (body != reference) ++out.failed;
    }
  }

  const auto readers = reader_connections();
  const std::vector<std::string> load_paths = {sibling.string(), capture.string()};
  out.detail.raw("pinned", pinned_json(readers));
  out.detail.number("simgen_generate_s", generate_s);
  out.detail.number("p99_limit_ms", kP99LimitMs);
  out.detail.number("load_period_s", kLoadPeriod);
  settle(args.work_dir);
  if (!args.trace) {
    const bool scoped_rss = reset_peak_rss();
    OpenLoop loop(config.unix_socket, readers, expected_bodies(offline));
    // Reference rate, in rounds of two one-second halves: reads alone
    // (per-class latencies and the tail), then reads with the writer
    // re-LOADing twice (LOAD round trips). The tail is the median of the
    // read halves' p99 and each class's latency the median of their
    // medians, so a contention burst spoils one half, not the figure.
    // The write halves' tail is left out: it is set by how the host
    // schedules the LOAD's analysis threads beside the reads on few
    // cores, and swung by a third from run to run.
    //
    // A read half in which the hypervisor stole more than kStealLimit of
    // the CPU time is disturbed: a few percent of steal multiplies the
    // round trip of a sub-millisecond query, and such spells last from
    // seconds to minutes. So rounds go on until `rounds` read halves are
    // calm or twice that many rounds have run, and the metrics take the
    // `rounds` rounds with the least steal.
    std::vector<StepResult> steps_run;
    struct Round {
      std::size_t step;  ///< index of the read half in steps_run; the write half follows
      double steal;
    };
    std::vector<Round> rounds_run;
    const int rounds = std::max(3, static_cast<int>(args.seconds * kRoundShare / 2));
    int calm = 0;
    std::uint64_t step_seed = args.seed * 1000;
    while (calm < rounds && rounds_run.size() < 2 * static_cast<std::size_t>(rounds)) {
      const auto before = cpu_ticks();
      steps_run.push_back(loop.run_step(kRefRate, kRoundSeconds, step_seed++, {}, 0));
      rounds_run.push_back({steps_run.size() - 1, steal_share(before, cpu_ticks())});
      if (rounds_run.back().steal <= kStealLimit) ++calm;
      steps_run.push_back(
          loop.run_step(kRefRate, kRoundSeconds, step_seed++, load_paths, kLoadPeriod));
      out.attempted += steps_run.back().load_s.size();
      out.failed += steps_run.back().load_failed;
    }
    auto kept = rounds_run;
    std::stable_sort(kept.begin(), kept.end(),
                     [](const Round& a, const Round& b) { return a.steal < b.steal; });
    kept.resize(static_cast<std::size_t>(rounds));
    ReadSamples quiet;
    std::array<std::vector<double>, kReadClasses> round_p50;
    std::vector<double> round_p99;
    std::vector<double> loads;
    for (const auto& round : kept) {
      const auto& reads = steps_run[round.step].reads;
      quiet.append(reads);
      for (std::size_t cls = 0; cls < kReadClasses; ++cls) {
        round_p50[cls].push_back(class_latency_ms(reads, static_cast<ReadClass>(cls)));
      }
      round_p99.push_back(percentile(reads.all_ms(), 0.99));
      const auto& write = steps_run[round.step + 1];
      loads.insert(loads.end(), write.load_s.begin(), write.load_s.end());
    }
    std::vector<double> round_steal;
    for (const auto& round : rounds_run) round_steal.push_back(round.steal);

    // Read-only ladder: the rate rises by kLadderGrowth until the backlog
    // grows, so the last step is past capacity. The detail shows latency
    // and backlog per rate. One longer step at the next rate then keeps
    // the daemon busy throughout; max_qps is its completed-read rate
    // (capacity_qps), the read capacity. A ladder that never saturates
    // measured the generator, not the daemon, and so does a capacity
    // step whose backlog does not grow: each is a failed op.
    double rate = kRefRate * kLadderStart;
    bool saturated = false;
    for (int step = 0; step < kLadderMaxSteps && !saturated; ++step, rate *= kLadderGrowth) {
      steps_run.push_back(loop.run_step(rate, kStepSeconds, step_seed++, {}, 0));
      saturated = step_saturated(steps_run.back());
    }
    // The capacity step is run again while the hypervisor steals more
    // than kStealLimit, up to kCapacityTries times; the least stolen counts.
    std::size_t capacity = 0;
    double capacity_steal = 1;
    for (int attempt = 0; attempt < kCapacityTries && capacity_steal > kStealLimit; ++attempt) {
      const auto before = cpu_ticks();
      steps_run.push_back(loop.run_step(rate, kCapacitySeconds, step_seed++, {}, 0));
      const double stolen = steal_share(before, cpu_ticks());
      if (stolen < capacity_steal) {
        capacity = steps_run.size() - 1;
        capacity_steal = stolen;
      }
    }
    const double max_qps = capacity_qps(steps_run[capacity]);
    out.attempted += 2;
    if (!saturated) ++out.failed;
    if (!step_saturated(steps_run[capacity])) ++out.failed;

    std::string steps;
    for (const auto& step : steps_run) {
      out.attempted += step.reads.attempted;
      out.failed += step.reads.failed;
      steps += steps.empty() ? "[" : ", ";
      steps += step_json(step);
    }
    out.metrics.set("setup_s", median(setup), "s");
    out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.metrics.set("analyze_s", median(loads), "s");
    out.metrics.set("store_bytes_per_capture_byte",
                    static_cast<double>(file_bytes(spc_of(capture))) /
                        static_cast<double>(file_bytes(capture)),
                    "ratio");
    for (std::size_t cls = 0; cls < kReadClasses; ++cls) {
      out.metrics.set(std::string("q_") + kReadClassNames[cls] + "_p50_ms",
                      median(round_p50[cls]), "ms");
    }
    out.metrics.set("q_p99_ms", median(round_p99), "ms");
    out.metrics.set("max_qps", max_qps, "1/s");
    out.detail.raw("steps", steps + "]");
    out.detail.number("rounds", rounds);
    out.detail.number("rounds_run", static_cast<double>(rounds_run.size()));
    out.detail.raw("round_steal", json_numbers(round_steal));
    out.detail.number("capacity_steal", capacity_steal);
    out.detail.number("steal_limit", kStealLimit);
    out.detail.number("loads", static_cast<double>(loads.size()));
    out.detail.number("peak_rss_scoped", scoped_rss ? 1 : 0);
    set_read_detail(out, quiet);
  } else {
    Sequence sequence;
    {
      OpenLoop loop(config.unix_socket, readers, expected_bodies(offline));
      std::uint64_t step_seed = args.seed * 7 + 1;
      const auto step = [&] {
        auto result = loop.run_step(kRefRate, kTraceStepSeconds, step_seed++, load_paths,
                                    kLoadPeriod);
        out.attempted += result.reads.attempted + result.load_s.size();
        out.failed += result.reads.failed + result.load_failed;
        return result.busy_s;
      };
      sequence.run(step, step);
    }
    host.reset();
    default_sequence_metrics(out.metrics);
    finish_traced(out, sequence, capture, args, generate_s, diff);
  }
  out.detail.raw("report_diff", diff_json(diff));
  return out;
}

}  // namespace perfbench
