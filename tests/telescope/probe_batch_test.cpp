#include "telescope/probe_batch.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "net/endian.h"
#include "telescope/reference_sensor.h"
#include "test_support.h"

namespace synscan::telescope {
namespace {

bool same_counters(const SensorCounters& a, const SensorCounters& b) {
  return a.scan_probes == b.scan_probes && a.backscatter == b.backscatter &&
         a.xmas_or_null == b.xmas_or_null && a.other_tcp == b.other_tcp &&
         a.udp == b.udp && a.icmp == b.icmp && a.not_monitored == b.not_monitored &&
         a.ingress_blocked == b.ingress_blocked && a.malformed == b.malformed &&
         a.spoofed_source == b.spoofed_source;
}

bool same_probe(const ScanProbe& a, const ScanProbe& b) {
  return a.timestamp_us == b.timestamp_us && a.source == b.source &&
         a.destination == b.destination && a.source_port == b.source_port &&
         a.destination_port == b.destination_port && a.sequence == b.sequence &&
         a.acknowledgment == b.acknowledgment && a.ip_id == b.ip_id &&
         a.window == b.window && a.ttl == b.ttl;
}

TEST(ProbeBatch, PushBackGetRoundTrip) {
  ProbeBatch batch;
  testing::ProbeBuilder builder;
  const ScanProbe original =
      builder.at(42).from(net::Ipv4Address::from_octets(9, 9, 9, 9)).seq(0xdeadbeef);
  batch.push_back(original);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(same_probe(batch.get(0), original));

  batch.clear();
  EXPECT_TRUE(batch.empty());
}

class ClassifyBatchDifferential : public ::testing::Test {
 protected:
  ClassifyBatchDifferential()
      : telescope_({{*net::Ipv4Prefix::parse("203.0.113.0/24"), 1000}},
                   {{23, 1000 * net::kMicrosPerSecond}}) {}

  /// Runs the same frames through the decode-based reference sensor,
  /// `Sensor::classify` and `Sensor::classify_batch` and asserts
  /// identical verdicts, probes and counters.
  void expect_equivalent(const std::vector<net::RawFrame>& frames) {
    testing::ReferenceSensor reference(telescope_);
    Sensor single(telescope_);
    std::vector<ScanProbe> expected;
    ScanProbe probe;
    ScanProbe single_probe;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const auto verdict = reference.classify(frames[i], probe);
      EXPECT_EQ(single.classify(frames[i], single_probe), verdict) << "frame " << i;
      if (verdict == FrameClass::kScanProbe) {
        EXPECT_TRUE(same_probe(single_probe, probe)) << "frame " << i;
        expected.push_back(probe);
      }
    }
    EXPECT_TRUE(same_counters(reference.counters(), single.counters()))
        << "classify counter histogram diverged";

    Sensor batched(telescope_);
    std::vector<net::FrameView> views;
    views.reserve(frames.size());
    for (const auto& frame : frames) views.push_back(net::as_view(frame));
    // Two calls into one batch: the second appends after existing rows.
    const std::span<const net::FrameView> all(views);
    const auto half = all.size() / 2;
    ProbeBatch batch;
    auto appended = batched.classify_batch(all.first(half), batch);
    appended += batched.classify_batch(all.subspan(half), batch);

    EXPECT_TRUE(same_counters(reference.counters(), batched.counters()))
        << "classify_batch counter histogram diverged";
    ASSERT_EQ(appended, expected.size());
    ASSERT_EQ(batch.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(same_probe(batch.get(i), expected[i])) << "probe " << i;
    }
  }

  net::Ipv4Address dark_dst() { return net::Ipv4Address::from_octets(203, 0, 113, 7); }
  net::Ipv4Address src() { return net::Ipv4Address::from_octets(93, 184, 216, 34); }

  /// One frame of every sensor class — the decision-table sweep.
  std::vector<net::RawFrame> class_sweep_frames();

  Telescope telescope_;
};

std::vector<net::RawFrame> ClassifyBatchDifferential::class_sweep_frames() {
  std::vector<net::RawFrame> frames;
  const auto add = [&](net::TimeUs t, std::vector<std::uint8_t> bytes) {
    frames.push_back({t, std::move(bytes)});
  };

  add(5, testing::syn_frame(src(), dark_dst(), 80));                 // scan probe
  add(6, testing::syn_frame(src(), dark_dst(), 80,
                            net::flag_bit(net::TcpFlag::kSyn) |
                                net::flag_bit(net::TcpFlag::kAck)));  // backscatter
  add(7, testing::syn_frame(src(), dark_dst(), 80,
                            net::flag_bit(net::TcpFlag::kRst)));      // backscatter
  add(8, testing::syn_frame(src(), dark_dst(), 80, 0x3f));            // xmas
  add(9, testing::syn_frame(src(), dark_dst(), 80, 0x00));            // null
  add(10, testing::syn_frame(src(), dark_dst(), 80,
                             net::flag_bit(net::TcpFlag::kFin)));     // other tcp
  add(11, testing::syn_frame(src(), net::Ipv4Address::from_octets(203, 0, 114, 7),
                             80));                                    // not monitored
  add(12, testing::syn_frame(src(), dark_dst(), 23));                 // ingress blocked
  add(13, testing::syn_frame(net::Ipv4Address::from_octets(10, 0, 0, 1), dark_dst(),
                             80));                                    // spoofed (private)
  add(14, testing::syn_frame(net::Ipv4Address::from_octets(224, 0, 0, 1), dark_dst(),
                             80));                                    // spoofed (reserved)
  add(15, {0x01, 0x02, 0x03});                                        // malformed

  net::UdpFrameSpec udp;
  udp.src_ip = src();
  udp.dst_ip = dark_dst();
  udp.src_port = 4444;
  udp.dst_port = 53;
  add(16, net::build_udp_frame(udp));                                 // udp
  return frames;
}

TEST_F(ClassifyBatchDifferential, EveryFrameClassMatches) {
  expect_equivalent(class_sweep_frames());
}

TEST_F(ClassifyBatchDifferential, MutatedFramesNeverDiverge) {
  // Deterministic fuzz: take a valid SYN frame and sweep single-byte
  // mutations and truncations through every offset. Each mutant goes
  // through both classifiers; whatever the verdict, it must agree.
  const auto base = testing::syn_frame(src(), dark_dst(), 80);
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  std::vector<net::RawFrame> frames;
  for (std::size_t offset = 0; offset < base.size(); ++offset) {
    for (int bit = 0; bit < 8; bit += 3) {
      auto mutant = base;
      mutant[offset] = static_cast<std::uint8_t>(mutant[offset] ^ (1u << bit));
      frames.push_back({static_cast<net::TimeUs>(offset), std::move(mutant)});
    }
    auto truncated = base;
    truncated.resize(offset);
    frames.push_back({static_cast<net::TimeUs>(offset), std::move(truncated)});
    // And a fully random frame of this length.
    std::vector<std::uint8_t> random(offset);
    for (auto& byte : random) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      byte = static_cast<std::uint8_t>(rng >> 56);
    }
    frames.push_back({static_cast<net::TimeUs>(offset), std::move(random)});
  }
  expect_equivalent(frames);
}

TEST_F(ClassifyBatchDifferential, FragmentsAndShortTransportsMatch) {
  std::vector<net::RawFrame> frames;
  // A later fragment: valid IPv4, fragment_offset != 0.
  auto fragment = testing::syn_frame(src(), dark_dst(), 80);
  fragment[14 + 6] = 0x00;
  fragment[14 + 7] = 0x07;  // fragment offset 7
  frames.push_back({1, std::move(fragment)});

  // TCP data offset below 5 words (decode_tcp rejects it).
  auto bad_offset = testing::syn_frame(src(), dark_dst(), 80);
  bad_offset[14 + 20 + 12] = 0x10;  // data offset = 1
  frames.push_back({2, std::move(bad_offset)});

  // UDP with a length field below the 8-byte minimum.
  net::UdpFrameSpec udp;
  udp.src_ip = src();
  udp.dst_ip = dark_dst();
  auto bad_udp = net::build_udp_frame(udp);
  bad_udp[14 + 20 + 4] = 0;
  bad_udp[14 + 20 + 5] = 3;  // length = 3
  frames.push_back({3, std::move(bad_udp)});

  expect_equivalent(frames);
}

}  // namespace
}  // namespace synscan::telescope
