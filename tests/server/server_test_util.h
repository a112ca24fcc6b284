// Shared fixtures for the synscand server tests: a small telescope, a
// deterministic campaign-shaped capture and per-test scratch space.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>

#include "net/packet.h"
#include "pcap/pcap.h"
#include "simgen/rng.h"
#include "telescope/telescope.h"
#include "test_support.h"

namespace synscan::testing {

inline const telescope::Telescope& server_telescope() {
  static const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/16"), 1000}}, {{23, 0}});
  return telescope;
}

/// Burst-structured SYN traffic (per-source runs) with backscatter and
/// off-telescope noise — enough campaigns for filters to bite.
inline void write_server_capture(const std::filesystem::path& path,
                                 std::uint64_t frames = 20'000,
                                 std::uint64_t seed = 99) {
  simgen::Rng rng(seed);
  auto writer = pcap::Writer::create(path);
  net::RawFrame frame;
  net::TimeUs now = 0;
  std::uint32_t burst_source = 0;
  std::uint16_t burst_port = 80;
  std::uint32_t burst_left = 0;
  for (std::uint64_t i = 0; i < frames; ++i) {
    now += 40;
    const std::uint64_t draw = rng.next_u64() % 100;
    net::TcpFrameSpec tcp;
    if (burst_left == 0) {
      burst_source = 0x05000000u + (rng.next_u32() % 512) * 977u;
      burst_port = (rng.next_u64() % 4 == 0) ? 443 : 80;
      burst_left = 16 + rng.next_u32() % 48;
    }
    --burst_left;
    tcp.src_ip = net::Ipv4Address(burst_source);
    tcp.dst_ip = net::Ipv4Address(0xc6330000u + rng.next_u32() % 65536);
    tcp.src_port = static_cast<std::uint16_t>(40000 + rng.next_u32() % 20000);
    tcp.dst_port = burst_port;
    tcp.sequence = rng.next_u32();
    tcp.ip_id = static_cast<std::uint16_t>(rng.next_u32());
    if (draw < 90) {
      // scan probe (defaults: SYN)
    } else if (draw < 95) {
      tcp.flags = net::flag_bit(net::TcpFlag::kSyn) | net::flag_bit(net::TcpFlag::kAck);
    } else {
      tcp.dst_ip = net::Ipv4Address(0x08080000u + rng.next_u32() % 65536);  // off-net
    }
    frame.timestamp_us = now;
    frame.bytes = net::build_tcp_frame(tcp);
    writer.write(frame);
  }
  writer.flush();
}

/// A fresh scratch directory unique to this call: `scratch_dir` names
/// it per test case and process, and the counter separates several
/// dirs (e.g. daemon harnesses) inside one case.
inline std::filesystem::path make_scratch_dir(const std::string& tag) {
  static std::atomic<unsigned> counter{0};
  return scratch_dir(tag + "_" + std::to_string(counter.fetch_add(1)));
}

}  // namespace synscan::testing
