// Test-only reference implementation of the sensor's rule set, kept on
// the decoded-frame chain the production sensor used before it moved to
// one raw-byte classifier (`telescope::detail::classify_raw`): decode the
// frame with `net::decode_frame`, then decide on the decoded headers.
//
// The classify differentials in tests/telescope/probe_batch_test.cpp feed
// identical frames through this and through `Sensor::classify` and
// `Sensor::classify_batch` and assert identical probes and counters, so
// any drift in the raw-byte rules is caught against an implementation
// whose correctness is easy to audit.
#pragma once

#include "net/packet.h"
#include "telescope/sensor.h"
#include "telescope/telescope.h"

namespace synscan::testing {

/// Straightforward decode-then-classify port of the sensor (§3.2): a
/// TCP SYN without ACK to a dark address is a scan probe; everything else
/// is counted and dropped.
class ReferenceSensor {
 public:
  explicit ReferenceSensor(const telescope::Telescope& telescope) : telescope_(&telescope) {}

  telescope::FrameClass classify(const net::RawFrame& frame, telescope::ScanProbe& probe) {
    const auto decoded = net::decode_frame(frame.bytes);
    if (!decoded) {
      ++counters_.malformed;
      return telescope::FrameClass::kMalformed;
    }
    return classify_decoded(frame.timestamp_us, *decoded, probe);
  }

  [[nodiscard]] const telescope::SensorCounters& counters() const noexcept {
    return counters_;
  }

 private:
  telescope::FrameClass classify_decoded(net::TimeUs timestamp_us,
                                         const net::DecodedFrame& frame,
                                         telescope::ScanProbe& probe) {
    using telescope::FrameClass;
    if (!telescope_->monitors(frame.ip.destination)) {
      ++counters_.not_monitored;
      return FrameClass::kNotMonitored;
    }

    if (const auto* tcp = frame.tcp()) {
      if (telescope_->ingress_blocked(tcp->destination_port, timestamp_us)) {
        ++counters_.ingress_blocked;
        return FrameClass::kIngressBlocked;
      }
      if (tcp->is_xmas() || tcp->is_null()) {
        ++counters_.xmas_or_null;
        return FrameClass::kXmasOrNull;
      }
      if (tcp->is_syn_probe()) {
        if (frame.ip.source.is_reserved_source() || frame.ip.source.is_private()) {
          ++counters_.spoofed_source;
          return FrameClass::kSpoofedSource;
        }
        probe.timestamp_us = timestamp_us;
        probe.source = frame.ip.source;
        probe.destination = frame.ip.destination;
        probe.source_port = tcp->source_port;
        probe.destination_port = tcp->destination_port;
        probe.sequence = tcp->sequence;
        probe.acknowledgment = tcp->acknowledgment;
        probe.ip_id = frame.ip.identification;
        probe.window = tcp->window;
        probe.ttl = frame.ip.ttl;
        ++counters_.scan_probes;
        return FrameClass::kScanProbe;
      }
      if (tcp->is_syn_ack() || tcp->has(net::TcpFlag::kRst)) {
        ++counters_.backscatter;
        return FrameClass::kBackscatter;
      }
      ++counters_.other_tcp;
      return FrameClass::kOtherTcp;
    }
    if (frame.udp() != nullptr) {
      ++counters_.udp;
      return FrameClass::kUdp;
    }
    if (frame.icmp() != nullptr) {
      ++counters_.icmp;
      return FrameClass::kIcmp;
    }
    ++counters_.malformed;
    return FrameClass::kMalformed;
  }

  const telescope::Telescope* telescope_;
  telescope::SensorCounters counters_;
};

}  // namespace synscan::testing
