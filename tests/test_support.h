// Shared helpers for the test suites.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.h"
#include "telescope/probe_batch.h"
#include "telescope/sensor.h"

namespace synscan::testing {

/// Builds a ScanProbe with sensible defaults, overridable per field.
struct ProbeBuilder {
  telescope::ScanProbe probe;

  ProbeBuilder() {
    probe.timestamp_us = 1'000'000;
    probe.source = net::Ipv4Address::from_octets(5, 6, 7, 8);
    probe.destination = net::Ipv4Address::from_octets(198, 51, 3, 4);
    probe.source_port = 40000;
    probe.destination_port = 80;
    probe.sequence = 0x12345678;
    probe.ip_id = 7;
    probe.window = 1024;
    probe.ttl = 64;
  }

  ProbeBuilder& at(net::TimeUs t) {
    probe.timestamp_us = t;
    return *this;
  }
  ProbeBuilder& from(net::Ipv4Address src) {
    probe.source = src;
    return *this;
  }
  ProbeBuilder& to(net::Ipv4Address dst) {
    probe.destination = dst;
    return *this;
  }
  ProbeBuilder& port(std::uint16_t p) {
    probe.destination_port = p;
    return *this;
  }
  ProbeBuilder& sport(std::uint16_t p) {
    probe.source_port = p;
    return *this;
  }
  ProbeBuilder& seq(std::uint32_t s) {
    probe.sequence = s;
    return *this;
  }
  ProbeBuilder& ipid(std::uint16_t id) {
    probe.ip_id = id;
    return *this;
  }
  operator telescope::ScanProbe() const { return probe; }  // NOLINT(google-explicit-constructor)
};

/// A minimal valid SYN frame for sensor-level tests.
inline std::vector<std::uint8_t> syn_frame(net::Ipv4Address src, net::Ipv4Address dst,
                                           std::uint16_t dst_port,
                                           std::uint8_t flags = net::flag_bit(net::TcpFlag::kSyn)) {
  net::TcpFrameSpec spec;
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.src_port = 12345;
  spec.dst_port = dst_port;
  spec.sequence = 42;
  spec.flags = flags;
  return net::build_tcp_frame(spec);
}

/// Classifies `frames` with a fresh sensor into one probe batch — the
/// shape the batched ingest hands `ParallelAnalyzer::feed_probes` — and
/// adds the sensor's tally to `counters`.
inline telescope::ProbeBatch classify_frames(const telescope::Telescope& telescope,
                                             const std::vector<net::RawFrame>& frames,
                                             telescope::SensorCounters& counters) {
  std::vector<net::FrameView> views;
  views.reserve(frames.size());
  for (const auto& frame : frames) views.push_back(net::as_view(frame));
  telescope::Sensor sensor(telescope);
  telescope::ProbeBatch batch;
  (void)sensor.classify_batch(views, batch);
  counters.add(sensor.counters());
  return batch;
}

/// A fresh, empty scratch directory for the running test case, named
/// from its suite, its test name, an optional `tag` (for a second dir in
/// one case) and the process id. ctest runs every case as its own
/// process, possibly in parallel, so a fixed name would let one case's
/// clean-up delete a sibling's files. The caller removes the directory.
inline std::filesystem::path scratch_dir(std::string_view tag = {}) {
  // Outside a test body (SetUpTestSuite) there is no test info; the
  // suite name alone is then unique among this suite's processes.
  const auto& unit = *::testing::UnitTest::GetInstance();
  const auto* info = unit.current_test_info();
  const auto* suite = unit.current_test_suite();
  std::string name = "synscan_";
  name += info != nullptr    ? info->test_suite_name()
          : suite != nullptr ? suite->name()
                             : "global";
  name += '_';
  name += info != nullptr ? info->name() : "suite";
  if (!tag.empty()) {
    name += '_';
    name += tag;
  }
  name += '_' + std::to_string(::getpid());
  // Parameterized names carry '/' (e.g. "Seeds/Suite", "Case/0").
  for (auto& c : name) {
    if (c == '/') c = '_';
  }
  auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace synscan::testing
