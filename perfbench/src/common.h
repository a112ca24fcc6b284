// Shared pieces of the end-to-end benchmark: run arguments, clocks and
// statistics, input generation, report emission and comparison, host
// identity, memory high-water marks and the result printer.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/analysis_session.h"
#include "core/ingest.h"
#include "enrich/registry.h"
#include "net/packet.h"
#include "telescope/telescope.h"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Worker counts pinned for every workload (recorded in each result).
inline constexpr std::size_t kAnalysisWorkers = 4;
inline constexpr std::size_t kScanChunks = 4;
inline constexpr std::size_t kShardWorkers = 4;
inline constexpr std::size_t kDaemonIoWorkers = 2;
inline constexpr std::size_t kDaemonAnalysisWorkers = 2;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path work_dir;  ///< private scratch directory of this run
};

[[nodiscard]] double seconds_since(Clock::time_point start);

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// The fixed telescope and registry every command of the CLI uses.
[[nodiscard]] const synscan::telescope::Telescope& bench_telescope();
[[nodiscard]] const synscan::enrich::InternetRegistry& bench_registry();

/// Ingest options of the pinned analysis path.
[[nodiscard]] synscan::core::IngestOptions pinned_ingest();

/// Generates simgen traffic for `year` at `scale` into `sink`, in
/// timestamp order. The run seed and the year derive the generator
/// seed, so a seed names one input.
void generate_year(int year, double scale, std::uint64_t seed,
                   const std::function<void(const synscan::net::RawFrame&)>& sink);

/// `generate_year` into one capture file.
void generate_capture(int year, double scale, std::uint64_t seed, const fs::path& out);

/// Read connections of an open loop: nproc - 1, so that with the writer
/// the generator holds nproc connections.
[[nodiscard]] std::size_t reader_connections();

/// The `analyze --json` bytes: counters line, newline, campaign JSONL.
[[nodiscard]] std::string report_bytes(const synscan::core::AnalyzedCapture& analysis);

/// How a report differs from its reference: counters fields compared
/// one by one, campaign lines compared as bytes.
struct ReportDiff {
  std::uint64_t counter_fields = 0;  ///< counters fields that differ
  std::uint64_t campaign_lines = 0;  ///< campaign lines that differ
  std::vector<std::string> fields;   ///< "name: got vs want"
  [[nodiscard]] std::uint64_t total() const { return counter_fields + campaign_lines; }
};
[[nodiscard]] ReportDiff diff_reports(const std::string& got, const std::string& want);

/// Size of a file, 0 when missing.
[[nodiscard]] std::uint64_t file_bytes(const fs::path& path);

/// Resets the resident-set high-water mark (Linux clear_refs); returns
/// false when the kernel refuses, in which case the peak covers the
/// whole process.
/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs wanted to run ("steal" in /proc/stat), and all CPU time, in
/// clock ticks since boot; both 0 where /proc/stat has no steal column.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();
/// Share of CPU time stolen between two readings.
[[nodiscard]] double steal_share(const CpuTicks& before, const CpuTicks& after);

bool reset_peak_rss();
[[nodiscard]] double peak_rss_mb();

/// Flushes the file system holding `dir` (inputs and caches written in
/// set-up), so their writeback does not overlap the measured phase.
void settle(const fs::path& dir);

/// Metric values of one run, by name.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Free-form run details printed as a JSON line before the result.
class Detail {
 public:
  void number(const std::string& key, double value);
  void text(const std::string& key, const std::string& value);
  void raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

[[nodiscard]] std::string json_string(const std::string& text);

/// The host object: nproc, CPU model, memcpy GB/s, compiler, build type.
[[nodiscard]] std::string host_json();

/// Outcome of one run, printed by `main`.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  Detail detail;
};

}  // namespace perfbench
