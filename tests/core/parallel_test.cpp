#include "core/parallel.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>

#include "core/analysis_session.h"
#include "pcap/pcap.h"
#include "report/json.h"
#include "simgen/generator.h"
#include "test_support.h"

namespace synscan::core {
namespace {

const telescope::Telescope& test_telescope() {
  static const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/20"), 1000}}, {{23, 0}});
  return telescope;
}

std::vector<net::RawFrame> workload() {
  static const std::vector<net::RawFrame> frames = [] {
    simgen::YearConfig config;
    config.window_days = 1;
    config.seed = 4242;
    config.port_table = {{80, 60}, {22, 40}};
    config.noise_sources = 40;
    config.backscatter_fraction = 0.05;
    simgen::GroupSpec group;
    group.name = "parallel-workload";
    group.tool = simgen::WireTool::kZmap;
    group.pool = enrich::ScannerType::kHosting;
    group.sources = 6;
    group.campaigns = 12;
    group.hits_median = 300;
    group.hits_sigma = 1.2;
    group.pps_median = 500000;
    group.pps_sigma = 1.2;
    config.groups.push_back(group);

    std::vector<net::RawFrame> out;
    simgen::TrafficGenerator generator(config, test_telescope(),
                                       enrich::InternetRegistry::synthetic_default());
    (void)generator.run([&](const net::RawFrame& f) { out.push_back(f); });
    return out;
  }();
  return frames;
}

/// Summary of campaigns that must be invariant across worker counts.
std::multimap<std::uint32_t, std::pair<std::uint64_t, std::uint32_t>> summarize(
    const std::vector<Campaign>& campaigns) {
  std::multimap<std::uint32_t, std::pair<std::uint64_t, std::uint32_t>> out;
  for (const auto& campaign : campaigns) {
    out.emplace(campaign.source.value(),
                std::make_pair(campaign.packets, campaign.distinct_destinations));
  }
  return out;
}

/// Feeds `frames` to `analyzer` the way the batched ingest does: one
/// feeder-side classification, probes as a batch, counters absorbed.
void feed_frames(ParallelAnalyzer& analyzer, const std::vector<net::RawFrame>& frames) {
  telescope::SensorCounters counters;
  analyzer.feed_probes(testing::classify_frames(test_telescope(), frames, counters));
  analyzer.absorb_sensor_counters(counters);
}

/// `workload()` plus a tail that tests stream-end expiry: after the
/// generated traffic, eight sources each probe once, and only then, more
/// than one expiry later, does a last source end the stream. Each of the
/// eight flows expired against the stream end; a source-sharded worker
/// whose own last packet is one of those probes must judge it against
/// the whole stream's end, not its own.
std::vector<net::RawFrame> workload_with_quiet_tail() {
  auto frames = workload();
  const TrackerConfig config;
  const auto quiet_at = frames.back().timestamp_us + 2 * config.expiry;
  const auto dark = net::Ipv4Address::from_octets(198, 51, 1, 1);
  for (std::uint8_t i = 0; i < 8; ++i) {
    frames.push_back(
        {quiet_at, testing::syn_frame(net::Ipv4Address::from_octets(45, 0, 0, i), dark, 80)});
  }
  frames.push_back({quiet_at + config.expiry + net::kMicrosPerSecond,
                    testing::syn_frame(net::Ipv4Address::from_octets(46, 0, 0, 1), dark,
                                       80)});
  return frames;
}

TEST(ParallelAnalyzer, MatchesSerialPipeline) {
  const auto frames = workload_with_quiet_tail();

  Pipeline serial(test_telescope());
  for (const auto& frame : frames) serial.feed_frame(frame);
  const auto serial_result = serial.finish();

  ParallelAnalyzer parallel(test_telescope(), 4);
  feed_frames(parallel, frames);
  const auto parallel_result = parallel.finish();

  // Every sensor and tracker counter the JSON report emits.
  const auto& want = serial_result;
  const auto& got = parallel_result;
  EXPECT_EQ(got.sensor.scan_probes, want.sensor.scan_probes);
  EXPECT_EQ(got.sensor.backscatter, want.sensor.backscatter);
  EXPECT_EQ(got.sensor.xmas_or_null, want.sensor.xmas_or_null);
  EXPECT_EQ(got.sensor.other_tcp, want.sensor.other_tcp);
  EXPECT_EQ(got.sensor.udp, want.sensor.udp);
  EXPECT_EQ(got.sensor.icmp, want.sensor.icmp);
  EXPECT_EQ(got.sensor.not_monitored, want.sensor.not_monitored);
  EXPECT_EQ(got.sensor.ingress_blocked, want.sensor.ingress_blocked);
  EXPECT_EQ(got.sensor.malformed, want.sensor.malformed);
  EXPECT_EQ(got.sensor.spoofed_source, want.sensor.spoofed_source);
  EXPECT_EQ(got.tracker.probes, want.tracker.probes);
  EXPECT_EQ(got.tracker.subthreshold_flows, want.tracker.subthreshold_flows);
  EXPECT_EQ(got.tracker.subthreshold_packets, want.tracker.subthreshold_packets);
  EXPECT_EQ(got.tracker.expired_flows, want.tracker.expired_flows);
  // The quiet tail's eight flows all count as expired.
  EXPECT_GE(want.tracker.expired_flows, 8u);
  ASSERT_EQ(got.campaigns.size(), want.campaigns.size());
  EXPECT_EQ(summarize(got.campaigns), summarize(want.campaigns));
}

TEST(ParallelAnalyzer, DeterministicAcrossWorkerCounts) {
  const auto frames = workload();
  std::vector<PipelineResult> results;
  for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
    ParallelAnalyzer analyzer(test_telescope(), workers);
    feed_frames(analyzer, frames);
    results.push_back(analyzer.finish());
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(summarize(results[i].campaigns), summarize(results[0].campaigns));
    EXPECT_EQ(results[i].sensor.scan_probes, results[0].sensor.scan_probes);
    // Merged order is deterministic too.
    ASSERT_EQ(results[i].campaigns.size(), results[0].campaigns.size());
    for (std::size_t c = 0; c < results[i].campaigns.size(); ++c) {
      EXPECT_EQ(results[i].campaigns[c].source, results[0].campaigns[c].source);
      EXPECT_EQ(results[i].campaigns[c].id, c + 1);
    }
  }
}

TEST(ParallelAnalyzer, RejectsZeroWorkers) {
  EXPECT_THROW(ParallelAnalyzer(test_telescope(), 0), std::invalid_argument);
}

TEST(ParallelAnalyzer, FinishTwiceThrows) {
  ParallelAnalyzer analyzer(test_telescope(), 2);
  (void)analyzer.finish();
  EXPECT_THROW((void)analyzer.finish(), std::logic_error);
}

TEST(ParallelAnalyzer, DestructorWithoutFinishIsClean) {
  auto frames = workload();
  frames.resize(std::min<std::size_t>(500, frames.size()));
  ParallelAnalyzer analyzer(test_telescope(), 3);
  feed_frames(analyzer, frames);
  // No finish(): the destructor must join without deadlock or leak.
}

/// The report `analyze --json` writes (counters line, then campaign
/// lines) is the same byte for byte whatever the worker count, including
/// the quiet tail's stream-end expiries.
TEST(AnalyzeCapture, ReportBytesEqualAcrossWorkerCounts) {
  const auto dir = testing::scratch_dir();
  const auto path = dir / "quiet_tail.pcap";
  {
    auto writer = pcap::Writer::create(path);
    for (const auto& frame : workload_with_quiet_tail()) writer.write(frame);
    writer.flush();
  }
  IngestOptions options;
  options.use_cache = false;
  options.batch_frames = 256;  // many batches, so slices interleave
  std::vector<std::string> reports;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    const auto analysis =
        analyze_capture(path, test_telescope(),
                        enrich::InternetRegistry::synthetic_default(), workers, options);
    std::string report;
    report::append_counters_json(report, analysis.result);
    report.push_back('\n');
    report::append_campaigns_jsonl(report, analysis.result.campaigns);
    reports.push_back(std::move(report));
  }
  ASSERT_NE(reports[0].find("\"expired_flows\":"), std::string::npos);
  EXPECT_EQ(reports[1], reports[0]);
  EXPECT_EQ(reports[2], reports[0]);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace synscan::core
