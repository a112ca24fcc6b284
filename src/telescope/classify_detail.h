// Internal plumbing shared between the batch classifier
// (`Sensor::classify_batch`, sensor.cpp) and the fused scan-and-classify
// loop in core/ingest.cpp. Not part of the telescope public surface:
// both drive the raw per-frame classifier through a pre-sized probe
// cursor instead of materializing `ScanProbe`s.
#pragma once

#include <cstdint>
#include <span>

#include "net/packet.h"
#include "telescope/sensor.h"
#include "telescope/telescope.h"

namespace synscan::telescope::detail {

/// Raw write cursor over a `ProbeBatch` whose columns are pre-sized to
/// the batch's worst case: probe emission is ten unchecked stores plus
/// one shared count, instead of ten `push_back` capacity checks.
struct ProbeCursor {
  net::TimeUs* timestamp_us;
  std::uint32_t* source;
  std::uint32_t* destination;
  std::uint16_t* source_port;
  std::uint16_t* destination_port;
  std::uint32_t* sequence;
  std::uint32_t* acknowledgment;
  std::uint16_t* ip_id;
  std::uint16_t* window;
  std::uint8_t* ttl;
  std::size_t count = 0;
};

/// One frame of the batched fast path (defined in sensor.cpp). Every
/// early return mirrors a rejection in decode_frame/classify_decoded so
/// the counter histogram stays bit-identical to the record-at-a-time
/// path.
FrameClass classify_raw(const Telescope& telescope, net::TimeUs timestamp_us,
                        std::span<const std::uint8_t> bytes, SensorCounters& counters,
                        ProbeCursor& out);

}  // namespace synscan::telescope::detail
