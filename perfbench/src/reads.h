// The read mix and the two ways the benchmark issues it: in process
// through `server::run_query` (closed loop, one thread) and against a
// running `server::Daemon` over its Unix socket (open loop, one
// generator thread, exponential arrivals from the run seed).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/analysis_session.h"

namespace perfbench {

enum class ReadClass : std::uint8_t { kCounters = 0, kCampaigns = 1, kAnalyze = 2 };
inline constexpr std::size_t kReadClasses = 3;
inline constexpr std::array<const char*, kReadClasses> kReadClassNames = {
    "counters", "campaigns", "analyze"};

/// Draws read commands: 70% `QUERY counters`, 25% `QUERY campaigns` with
/// a `tool=` or `min_packets=` filter, 5% `QUERY analyze`. The mix is
/// exact in every block of 20 reads (14, 5, 1), shuffled by the seed;
/// campaign filters cycle through five listings of different sizes.
class ReadMix {
 public:
  static constexpr std::size_t kBlock = 20;
  explicit ReadMix(std::uint64_t seed) : rng_(seed) {}
  struct Read {
    ReadClass cls;
    std::size_t command;  ///< index into `commands()`
  };
  [[nodiscard]] Read next();
  /// Every distinct command the mix can draw.
  [[nodiscard]] static const std::vector<std::string>& commands();
  [[nodiscard]] static ReadClass class_of(std::size_t command);

 private:
  std::mt19937_64 rng_;
  std::array<ReadClass, kBlock> block_{};
  std::size_t in_block_ = kBlock;
  std::size_t next_filter_ = 0;
};

/// Expected response body of every mix command against `analysis`
/// (computed with `server::run_query`). Empty on a query error.
[[nodiscard]] std::vector<std::string> expected_bodies(
    const synscan::core::AnalyzedCapture& analysis);

/// Latency samples per class and per mix command plus failure counts.
struct ReadSamples {
  std::array<std::vector<double>, kReadClasses> ms;
  /// The same samples by command (index into `ReadMix::commands()`).
  std::vector<std::vector<double>> command_ms =
      std::vector<std::vector<double>>(ReadMix::commands().size());
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t response_bytes = 0;
  [[nodiscard]] std::vector<double> all_ms() const;
  void append(const ReadSamples& other);
};

/// A class's latency: the mean over its commands of each command's
/// median. Counters and analyze are one command each, so there it is the
/// median. The five campaigns filters take from under 0.1 ms to over
/// 20 ms, so the class median would sit on whichever filter the sample
/// counts put in the middle; the mean of the filters' medians moves with
/// every filter and not with the counts.
[[nodiscard]] double class_latency_ms(const ReadSamples& samples, ReadClass cls);

/// Issues `rounds` rounds of the mix in process through
/// `server::run_query`. A round is 14 counters, 5 campaigns (cycling
/// through the filters) and one analyze, so every run reads the same
/// set; the 14 counters are timed as one block, after one untimed
/// warm-up counters query, and give one sample (the mean per query),
/// every other read gives its own. Spans are
/// `server.exec_<class>`. A read fails when the query errors or, for
/// `analyze`, when its bytes differ from `report`. Returns the samples
/// and total execution seconds.
ReadSamples closed_loop_reads(const synscan::core::AnalyzedCapture& analysis,
                              const std::string& report, std::size_t rounds,
                              double* exec_seconds);

/// One open-loop step against a daemon.
struct StepResult {
  double rate = 0;
  ReadSamples reads;
  std::vector<double> late_ms;     ///< send time minus scheduled time
  std::uint64_t max_outstanding = 0;
  std::uint64_t end_outstanding = 0;  ///< outstanding when sending stopped
  double window_throughput = 0;  ///< reads completed while sending, per second
  std::vector<double> done_s;      ///< when each of those completed, from the step's start
  std::vector<double> load_s;      ///< LOAD round trips of the writer
  std::uint64_t load_failed = 0;
  double busy_s = 0;  ///< generator time outside waits for sockets
};

/// Drives a daemon over `readers` read connections plus one writer
/// connection, all from the calling thread.
class OpenLoop {
 public:
  /// `expected` holds the body every command must return (as from
  /// `expected_bodies`); replies are compared byte for byte.
  OpenLoop(const std::string& socket_path, std::size_t readers,
           std::vector<std::string> expected);
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Sends reads at `rate` per second for `seconds`, then waits for
  /// every reply. When `load_paths` is non-empty the writer LOADs them
  /// in turn every `load_period_s` (one LOAD in flight at most).
  StepResult run_step(double rate, double seconds, std::uint64_t seed,
                      const std::vector<std::string>& load_paths, double load_period_s);

 private:
  struct Connection;
  std::vector<std::unique_ptr<Connection>> connections_;  ///< readers, then the writer
  std::vector<std::string> expected_;
  std::size_t readers_;
};

}  // namespace perfbench
