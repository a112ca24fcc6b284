// Batched capture ingest: capture file -> classified probe batches.
//
// This is the front half of every replay. It picks the fastest available
// path for the input —
//   1. a validated columnar probe cache (`.spc`, core/probe_cache.h):
//      skip decode and classification entirely;
//   2. a classic pcap, memory-mapped (`pcap::MappedReader`) or, for
//      `use_mmap = false` and unmappable files, read into memory: one
//      fused walk over the records classifies each frame in place with
//      the scalar classifier (`telescope::detail::classify_raw`, the
//      same code `Sensor::classify_batch` runs), split into
//      record-aligned chunks on parallel threads once the capture is
//      large enough (`scan_chunks`);
//   3. pcapng input: record-at-a-time reads, classified in batches via
//      `Sensor::classify_batch` —
// and hands the probes to the caller one `ProbeBatch` at a time. The
// three paths produce bit-identical probes and sensor counters (held
// together by tests/integration/ingest_differential_test.cpp).
//
// After a cold decode of a regular file the probes are written back as a
// `.spc` v2 cache (best-effort: cache I/O failures never fail the run),
// so the second replay of the same capture takes path 1. A cache this
// build cannot read (stale, corrupt, v1 or raw-codec) is rescanned and
// rewritten.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>

#include "core/probe_cache.h"
#include "pcap/pcap.h"
#include "telescope/probe_batch.h"
#include "telescope/sensor.h"
#include "telescope/telescope.h"

namespace synscan::core {

struct IngestOptions {
  /// Map regular classic-pcap files instead of streaming them.
  bool use_mmap = true;
  /// Read and write the sibling `.spc` probe cache.
  bool use_cache = true;
  /// Frames classified per batch on the decode paths.
  std::size_t batch_frames = 4096;
  /// Cold-scan parallelism: the capture's record region is split into
  /// this many record-aligned chunks (`pcap::partition_records`), each
  /// scanned and classified by its own thread, and the per-chunk probe
  /// batches are merged back in capture order — probes, counters,
  /// terminal status and `.spc` bytes are identical to the serial scan.
  /// 0 = auto (one chunk per hardware thread), 1 = serial. Small
  /// captures stay serial regardless: splitting pays off only once the
  /// scan outweighs thread startup.
  std::size_t scan_chunks = 0;
  /// Cache location override; empty means `<capture>.spc`.
  std::filesystem::path cache_path;
};

struct IngestResult {
  telescope::SensorCounters sensor;
  std::uint64_t frames = 0;
  pcap::ReadStatus status = pcap::ReadStatus::kEndOfFile;
  std::uint64_t batches = 0;
  std::uint64_t chunks = 0;  ///< scan chunks used by the cold path
  bool from_cache = false;   ///< probes came from a validated cache
  bool mapped = false;       ///< capture bytes were mmap'ed
};

/// Receives each probe batch in capture order. The batch is only valid
/// for the duration of the call (buffers are recycled).
using ProbeBatchSink = std::function<void(const telescope::ProbeBatch&)>;

/// Replays `path` (classic pcap or pcapng) through the fastest available
/// ingest path and feeds every scan probe to `sink` in capture order.
/// Throws what the underlying readers throw (unopenable file, bad
/// global header). `result.status` carries the reader's terminal status
/// exactly as `pcap::Reader` would have reported it.
IngestResult ingest_capture(const std::filesystem::path& path,
                            const telescope::Telescope& telescope,
                            const IngestOptions& options, const ProbeBatchSink& sink);

}  // namespace synscan::core
