#include "telescope/sensor.h"

#include <algorithm>

#include "net/endian.h"
#include "net/headers.h"
#include "telescope/classify_detail.h"
#include "telescope/probe_batch.h"

namespace synscan::telescope {

FrameClass Sensor::classify(const net::RawFrame& frame, ScanProbe& probe) {
  const auto decoded = net::decode_frame(frame.bytes);
  if (!decoded) {
    ++counters_.malformed;
    return FrameClass::kMalformed;
  }
  return classify_decoded(frame.timestamp_us, *decoded, probe);
}

FrameClass Sensor::classify_decoded(net::TimeUs timestamp_us, const net::DecodedFrame& frame,
                                    ScanProbe& probe) {
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

namespace detail {

// One frame of the batched fast path (shared with the fused ingest scan
// via classify_detail.h). Every early return mirrors a rejection in
// decode_frame/classify_decoded so the counter histogram stays
// bit-identical to the record-at-a-time path.
FrameClass classify_raw(const Telescope& telescope, net::TimeUs timestamp_us,
                        std::span<const std::uint8_t> bytes, SensorCounters& counters,
                        ProbeCursor& out) {
  // Link layer: decode_ethernet rejects short frames; decode_frame then
  // drops anything that is not IPv4.
  if (bytes.size() < net::EthernetHeader::kSize ||
      net::load_be16(bytes.data() + 12) !=
          static_cast<std::uint16_t>(net::EtherType::kIpv4)) {
    ++counters.malformed;
    return FrameClass::kMalformed;
  }

  // Network layer: the decode_ipv4 validation chain, minus field structs.
  const std::uint8_t* ip = bytes.data() + net::EthernetHeader::kSize;
  const std::size_t ip_size = bytes.size() - net::EthernetHeader::kSize;
  if (ip_size < net::Ipv4Header::kMinSize) {
    ++counters.malformed;
    return FrameClass::kMalformed;
  }
  const std::uint8_t version = ip[0] >> 4;
  const std::size_t header_length = static_cast<std::size_t>(ip[0] & 0x0f) * 4;
  const std::uint16_t total_length = net::load_be16(ip + 2);
  if (version != 4 || header_length < net::Ipv4Header::kMinSize ||
      ip_size < header_length || total_length < header_length) {
    ++counters.malformed;
    return FrameClass::kMalformed;
  }

  const net::Ipv4Address destination(net::load_be32(ip + 16));
  if (!telescope.monitors(destination)) {
    ++counters.not_monitored;
    return FrameClass::kNotMonitored;
  }

  // Transport presence rules from decode_frame: a later fragment carries no
  // transport header, and the payload window is bounded by the smaller of
  // the captured bytes and the declared total length (Ethernet padding).
  const bool later_fragment = (net::load_be16(ip + 6) & 0x1fff) != 0;
  const std::size_t available = std::min<std::size_t>(ip_size, total_length);
  const std::uint8_t protocol = ip[9];
  const std::uint8_t* transport = ip + header_length;
  const std::size_t transport_size = available - header_length;

  if (!later_fragment && protocol == static_cast<std::uint8_t>(net::IpProtocol::kTcp) &&
      transport_size >= net::TcpHeader::kMinSize) {
    const std::size_t tcp_header_length =
        static_cast<std::size_t>(transport[12] >> 4) * 4;
    if (tcp_header_length >= net::TcpHeader::kMinSize &&
        transport_size >= tcp_header_length) {
      const std::uint16_t destination_port = net::load_be16(transport + 2);
      if (telescope.ingress_blocked(destination_port, timestamp_us)) {
        ++counters.ingress_blocked;
        return FrameClass::kIngressBlocked;
      }
      const std::uint8_t flags = transport[13] & 0x3f;
      if (flags == 0x3f || flags == 0) {
        ++counters.xmas_or_null;
        return FrameClass::kXmasOrNull;
      }
      const bool syn = (flags & net::flag_bit(net::TcpFlag::kSyn)) != 0;
      const bool ack = (flags & net::flag_bit(net::TcpFlag::kAck)) != 0;
      if (syn && !ack) {
        const net::Ipv4Address source(net::load_be32(ip + 12));
        if (source.is_reserved_source() || source.is_private()) {
          ++counters.spoofed_source;
          return FrameClass::kSpoofedSource;
        }
        const auto i = out.count++;
        out.timestamp_us[i] = timestamp_us;
        out.source[i] = source.value();
        out.destination[i] = destination.value();
        out.source_port[i] = net::load_be16(transport);
        out.destination_port[i] = destination_port;
        out.sequence[i] = net::load_be32(transport + 4);
        out.acknowledgment[i] = net::load_be32(transport + 8);
        out.ip_id[i] = net::load_be16(ip + 4);
        out.window[i] = net::load_be16(transport + 14);
        out.ttl[i] = ip[8];
        ++counters.scan_probes;
        return FrameClass::kScanProbe;
      }
      if ((syn && ack) || (flags & net::flag_bit(net::TcpFlag::kRst)) != 0) {
        ++counters.backscatter;
        return FrameClass::kBackscatter;
      }
      ++counters.other_tcp;
      return FrameClass::kOtherTcp;
    }
    // Truncated TCP header: decode_tcp would fail, leaving no transport.
  } else if (!later_fragment &&
             protocol == static_cast<std::uint8_t>(net::IpProtocol::kUdp) &&
             transport_size >= net::UdpHeader::kSize) {
    if (net::load_be16(transport + 4) >= net::UdpHeader::kSize) {
      ++counters.udp;
      return FrameClass::kUdp;
    }
    // A UDP length below 8 fails decode_udp: no transport header.
  } else if (!later_fragment &&
             protocol == static_cast<std::uint8_t>(net::IpProtocol::kIcmp) &&
             transport_size >= net::IcmpHeader::kSize) {
    ++counters.icmp;
    return FrameClass::kIcmp;
  }
  ++counters.malformed;
  return FrameClass::kMalformed;
}

}  // namespace detail

std::size_t Sensor::classify_batch(std::span<const net::FrameView> frames,
                                   ProbeBatch& out) {
  // Pre-size every column to the worst case (all frames are probes) so
  // classify_raw can write through raw pointers, then trim to the actual
  // probe count. clear() retains capacity, so a recycled batch re-sizes
  // without reallocating.
  const auto before = out.size();
  const auto limit = before + frames.size();
  out.timestamp_us.resize(limit);
  out.source.resize(limit);
  out.destination.resize(limit);
  out.source_port.resize(limit);
  out.destination_port.resize(limit);
  out.sequence.resize(limit);
  out.acknowledgment.resize(limit);
  out.ip_id.resize(limit);
  out.window.resize(limit);
  out.ttl.resize(limit);
  detail::ProbeCursor cursor{out.timestamp_us.data() + before,
                             out.source.data() + before,
                             out.destination.data() + before,
                             out.source_port.data() + before,
                             out.destination_port.data() + before,
                             out.sequence.data() + before,
                             out.acknowledgment.data() + before,
                             out.ip_id.data() + before,
                             out.window.data() + before,
                             out.ttl.data() + before};
  for (const auto& frame : frames) {
    detail::classify_raw(*telescope_, frame.timestamp_us, frame.bytes, counters_, cursor);
  }
  const auto count = before + cursor.count;
  out.timestamp_us.resize(count);
  out.source.resize(count);
  out.destination.resize(count);
  out.source_port.resize(count);
  out.destination_port.resize(count);
  out.sequence.resize(count);
  out.acknowledgment.resize(count);
  out.ip_id.resize(count);
  out.window.resize(count);
  out.ttl.resize(count);
  return cursor.count;
}

}  // namespace synscan::telescope
