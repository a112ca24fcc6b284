// Integration: frames through sensor, tracker and observers, including
// the pcap round trip (generate -> write -> read -> analyze).
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "core/port_tally.h"
#include "core/volatility.h"
#include "pcap/pcap.h"
#include "simgen/generator.h"
#include "test_support.h"

namespace synscan {
namespace {

const telescope::Telescope& test_telescope() {
  static const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/20"), 1000}},
      {{23, 0}});  // telnet blocked from the start
  return telescope;
}

simgen::YearConfig pipeline_config() {
  simgen::YearConfig config;
  config.year = 2021;
  config.window_days = 1;
  config.seed = 777;
  config.port_table = {{80, 60}, {23, 20}, {443, 20}};
  config.noise_sources = 10;
  config.backscatter_fraction = 0.1;

  simgen::GroupSpec group;
  group.name = "pipeline-group";
  group.tool = simgen::WireTool::kZmap;
  group.pool = enrich::ScannerType::kHosting;
  group.sources = 4;
  group.campaigns = 4;
  group.hits_median = 250;
  group.hits_sigma = 1.1;
  group.pps_median = 500000;
  group.pps_sigma = 1.1;
  config.groups.push_back(group);
  return config;
}

TEST(PipelineIntegration, SensorSeparatesTrafficClasses) {
  core::Pipeline pipeline(test_telescope());
  simgen::TrafficGenerator generator(pipeline_config(), test_telescope(),
                                     enrich::InternetRegistry::synthetic_default());
  const auto gen_stats =
      generator.run([&](const net::RawFrame& f) { pipeline.feed_frame(f); });
  const auto result = pipeline.finish();

  // Every generated frame was classified as *something*.
  EXPECT_EQ(result.sensor.total(), gen_stats.total_frames);
  // Backscatter frames never become probes.
  EXPECT_GT(result.sensor.backscatter, 0u);
  // Port 23 traffic was dropped at the ingress.
  EXPECT_GT(result.sensor.ingress_blocked, 0u);
  EXPECT_EQ(result.sensor.scan_probes + result.sensor.backscatter +
                result.sensor.ingress_blocked + result.sensor.other_tcp,
            gen_stats.total_frames);
}

TEST(PipelineIntegration, ObserversSeeExactlyTheProbes) {
  core::Pipeline pipeline(test_telescope());
  core::PortTally tally;
  pipeline.add_observer(tally);
  simgen::TrafficGenerator generator(pipeline_config(), test_telescope(),
                                     enrich::InternetRegistry::synthetic_default());
  (void)generator.run([&](const net::RawFrame& f) { pipeline.feed_frame(f); });
  const auto result = pipeline.finish();
  EXPECT_EQ(tally.total_packets(), result.sensor.scan_probes);
  EXPECT_EQ(result.tracker.probes, result.sensor.scan_probes);
  // The blocked port must be invisible downstream.
  EXPECT_EQ(tally.packets_on_port(23), 0u);
  EXPECT_GT(tally.packets_on_port(80), 0u);
}

TEST(PipelineIntegration, PcapRoundTripPreservesAnalysis) {
  namespace fs = std::filesystem;
  const auto dir = testing::scratch_dir();
  const auto path = dir / "window.pcap";

  // Pass 1: generate straight into the pipeline AND onto disk.
  core::Pipeline live(test_telescope());
  {
    auto writer = pcap::Writer::create(path);
    simgen::TrafficGenerator generator(pipeline_config(), test_telescope(),
                                       enrich::InternetRegistry::synthetic_default());
    (void)generator.run([&](const net::RawFrame& f) {
      writer.write(f);
      live.feed_frame(f);
    });
    writer.flush();
  }
  const auto live_result = live.finish();

  // Pass 2: read the capture back and re-analyze.
  core::Pipeline replay(test_telescope());
  auto reader = pcap::Reader::open(path);
  net::RawFrame frame;
  while (reader.next(frame) == pcap::ReadStatus::kOk) {
    replay.feed_frame(frame);
  }
  const auto replay_result = replay.finish();

  EXPECT_EQ(replay_result.sensor.scan_probes, live_result.sensor.scan_probes);
  ASSERT_EQ(replay_result.campaigns.size(), live_result.campaigns.size());
  for (std::size_t i = 0; i < live_result.campaigns.size(); ++i) {
    EXPECT_EQ(replay_result.campaigns[i].source, live_result.campaigns[i].source);
    EXPECT_EQ(replay_result.campaigns[i].packets, live_result.campaigns[i].packets);
    EXPECT_EQ(replay_result.campaigns[i].tool, live_result.campaigns[i].tool);
  }
  fs::remove_all(dir);
}

TEST(PipelineIntegration, FeedProbeBypassesSensor) {
  core::Pipeline pipeline(test_telescope());
  core::PortTally tally;
  pipeline.add_observer(tally);
  for (int i = 0; i < 150; ++i) {
    pipeline.feed_probe(testing::ProbeBuilder()
                            .from(net::Ipv4Address::from_octets(9, 9, 9, 9))
                            .to(net::Ipv4Address(0xc6330000u + static_cast<std::uint32_t>(i)))
                            .at(i * net::kMicrosPerSecond));
  }
  const auto result = pipeline.finish();
  EXPECT_EQ(result.sensor.scan_probes, 0u);  // sensor untouched
  EXPECT_EQ(tally.total_packets(), 150u);
  EXPECT_EQ(result.campaigns.size(), 1u);
}

TEST(PipelineIntegration, VolatilityObserverIntegrates) {
  core::Pipeline pipeline(test_telescope());
  core::VolatilityTracker volatility(0, net::kMicrosPerDay);  // daily buckets
  pipeline.add_observer(volatility);
  simgen::TrafficGenerator generator(pipeline_config(), test_telescope(),
                                     enrich::InternetRegistry::synthetic_default());
  (void)generator.run([&](const net::RawFrame& f) { pipeline.feed_frame(f); });
  auto result = pipeline.finish();
  for (const auto& campaign : result.campaigns) volatility.on_campaign(campaign);
  const auto vol = volatility.result();
  EXPECT_GT(vol.netblocks, 0u);
}

}  // namespace
}  // namespace synscan
