#include "core/parallel.h"

#include <gtest/gtest.h>

#include <map>

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
  for (const auto& frame : frames) parallel.feed_frame(frame);
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
    for (const auto& frame : frames) analyzer.feed_frame(frame);
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

TEST(ParallelAnalyzer, UndecodableFramesCountedAsMalformed) {
  ParallelAnalyzer analyzer(test_telescope(), 2);
  analyzer.feed_frame({1, {0xde, 0xad}});
  analyzer.feed_frame({2, {}});
  const auto result = analyzer.finish();
  EXPECT_EQ(result.sensor.malformed, 2u);
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
  const auto frames = workload();
  ParallelAnalyzer analyzer(test_telescope(), 3);
  for (std::size_t i = 0; i < std::min<std::size_t>(500, frames.size()); ++i) {
    analyzer.feed_frame(frames[i]);
  }
  // No finish(): the destructor must join without deadlock or leak.
}

}  // namespace
}  // namespace synscan::core
