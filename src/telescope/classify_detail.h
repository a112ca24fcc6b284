// Internal plumbing shared between the sensor (`Sensor::classify` and
// `Sensor::classify_batch`, sensor.cpp) and the fused scan-and-classify
// loop in core/ingest.cpp. Not part of the telescope public surface:
// all three drive the one raw per-frame classifier through a probe
// cursor instead of materializing `ScanProbe`s.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "net/packet.h"
#include "telescope/probe_batch.h"
#include "telescope/sensor.h"
#include "telescope/telescope.h"

namespace synscan::telescope::detail {

/// Raw write cursor over a `ProbeBatch` whose columns are pre-sized to
/// the batch's worst case (`arm_cursor`), or over one probe's fields:
/// probe emission is ten unchecked stores plus one shared count, instead
/// of ten `push_back` capacity checks.
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

/// Resizes all ten columns of `batch` to `rows`. resize() keeps
/// capacity, so a recycled batch re-arms without allocating.
inline void resize_columns(ProbeBatch& batch, std::size_t rows) {
  batch.timestamp_us.resize(rows);
  batch.source.resize(rows);
  batch.destination.resize(rows);
  batch.source_port.resize(rows);
  batch.destination_port.resize(rows);
  batch.sequence.resize(rows);
  batch.acknowledgment.resize(rows);
  batch.ip_id.resize(rows);
  batch.window.resize(rows);
  batch.ttl.resize(rows);
}

/// Pre-sizes `batch` for `room` more probes after row `first` (the
/// worst case: every frame a probe) and returns a cursor at row `first`.
/// Once the frames are classified, `resize_columns(batch, first +
/// cursor.count)` trims the unused tail.
inline ProbeCursor arm_cursor(ProbeBatch& batch, std::size_t first, std::size_t room) {
  resize_columns(batch, first + room);
  return {batch.timestamp_us.data() + first,     batch.source.data() + first,
          batch.destination.data() + first,      batch.source_port.data() + first,
          batch.destination_port.data() + first, batch.sequence.data() + first,
          batch.acknowledgment.data() + first,   batch.ip_id.data() + first,
          batch.window.data() + first,           batch.ttl.data() + first};
}

/// Classifies one frame (defined in sensor.cpp): the sensor's only rule
/// set. Appends the probe at `out.count` when the verdict is kScanProbe.
FrameClass classify_raw(const Telescope& telescope, net::TimeUs timestamp_us,
                        std::span<const std::uint8_t> bytes, SensorCounters& counters,
                        ProbeCursor& out);

}  // namespace synscan::telescope::detail
