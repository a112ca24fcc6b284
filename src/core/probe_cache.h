// Columnar probe cache (`.spc`): decode a capture once, replay probes.
//
// A capture's sensor verdict never changes between runs, but the decode
// dominates replay time. After the first pass the ingest driver persists
// every scan probe — plus the sensor counter histogram and the reader's
// terminal status — in a compact little-endian columnar file next to the
// capture. Later runs stream probes straight out of the cache and skip
// frame decode and classification entirely.
//
// Layout (all integers little-endian):
//   header (136 bytes):
//     u32 magic "spc1"        u32 version (=2)
//     u64 source_size         u64 source_mtime_ns
//     u64 frame_count         u64 probe_count
//     u32 terminal_status     u32 codec (=1, delta-varint)
//     u64 x 10 sensor counters (SensorCounters field order)
//     u64 checksum            FNV-1a (64-bit words) over every chunk byte
//   chunks, until probe_count rows are consumed:
//     u64 row_count, then the ten probe columns back-to-back in
//     ProbeBatch field order (timestamp u64; source, destination,
//     sequence, acknowledgment u32; ports, ip_id, window u16; ttl u8).
//     The three high-entropy-but-correlated columns (timestamp_us,
//     source, destination) are each stored as `u64 byte_length` + a
//     zigzag-LEB128 stream of row-over-row deltas (first delta is
//     against 0, so every chunk decodes standalone); the remaining
//     seven columns are plain little-endian arrays.
//
// The writer normalizes chunking to a fixed row count per chunk
// (kCacheRowsPerChunk), independent of how the classifier batched its
// appends — the cache bytes are a pure function of the probe stream, so
// serial and chunked-parallel ingests commit identical files (pinned by
// tests/integration/ingest_differential_test.cpp).
//
// Validity = magic + version 2 + codec 1 + source identity (byte size
// and mtime in nanoseconds) + chunk framing + checksum. Any mismatch —
// including a v1 file or a v2 file with the retired raw codec (0) —
// invalidates the cache; callers fall back to decoding and rewrite it.
// Writes go to a sibling ".tmp" and rename into place so a crashed run
// never leaves a torn cache.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "pcap/mapped_reader.h"
#include "pcap/pcap.h"
#include "telescope/probe_batch.h"
#include "telescope/sensor.h"

namespace synscan::core {

/// Rows per chunk a v2 writer emits (the last chunk may be shorter).
inline constexpr std::size_t kCacheRowsPerChunk = 65536;

/// What ties a cache file to its source capture.
struct CacheIdentity {
  std::uint64_t source_size = 0;
  std::uint64_t source_mtime_ns = 0;
};

/// Stats the source capture as a cache identity; nullopt when the path
/// is not a regular file (streams and FIFOs are never cached).
[[nodiscard]] std::optional<CacheIdentity> cache_identity(
    const std::filesystem::path& source);

/// Header fields of a cache file, as stored (no chunk validation).
struct CacheFileInfo {
  std::uint32_t version = 0;
  std::uint32_t codec = 0;
  std::uint64_t source_size = 0;
  std::uint64_t source_mtime_ns = 0;
  std::uint64_t frame_count = 0;
  std::uint64_t probe_count = 0;
  pcap::ReadStatus terminal_status = pcap::ReadStatus::kEndOfFile;
  telescope::SensorCounters sensor;
  std::uint64_t checksum = 0;
  std::uint64_t file_size = 0;
};

/// Parses just the header, reporting version and codec as stored (a v1
/// or raw-codec file still stats). nullopt when the file is missing, too
/// short, or not an spc file. Powers the `synscan cache stat` subcommand.
[[nodiscard]] std::optional<CacheFileInfo> cache_stat(const std::filesystem::path& path);

/// Outcome of a full offline validation pass (`synscan cache verify`).
struct CacheVerifyReport {
  bool ok = false;
  std::string error;  ///< first defect found; empty when ok
  std::uint64_t chunks = 0;
  std::uint64_t rows = 0;
};

/// Runs the same validation a replay would — header, optional source
/// identity, chunk framing, checksum — and reports the first defect as
/// text instead of silently falling back.
[[nodiscard]] CacheVerifyReport cache_verify(
    const std::filesystem::path& path,
    const std::optional<CacheIdentity>& expected = std::nullopt);

/// Streaming writer. Appended batches are restaged into fixed-row chunks
/// (kCacheRowsPerChunk) so the file bytes do not depend on the caller's
/// batch boundaries; `commit` flushes the tail chunk, patches the header
/// and renames the temp file into place. Destruction without a commit
/// removes the temp file.
class ProbeCacheWriter {
 public:
  /// Starts writing `path`'s sibling temp file. Throws when the temp
  /// file cannot be created.
  ProbeCacheWriter(std::filesystem::path path, const CacheIdentity& identity);
  ~ProbeCacheWriter();
  ProbeCacheWriter(const ProbeCacheWriter&) = delete;
  ProbeCacheWriter& operator=(const ProbeCacheWriter&) = delete;

  /// Stages one `ProbeBatch`, emitting every full fixed-row chunk.
  void append(const telescope::ProbeBatch& batch);

  /// Finalizes header + checksum and renames into place. Returns false
  /// (after cleaning up the temp file) when any write failed — a cache
  /// is best-effort and must never fail the run.
  [[nodiscard]] bool commit(std::uint64_t frame_count, pcap::ReadStatus terminal_status,
                            const telescope::SensorCounters& sensor);

  /// Drops the temp file without committing.
  void abandon();

 private:
  void emit_chunk(std::size_t begin, std::size_t rows);
  void flush_staging(bool final_flush);

  std::filesystem::path path_;
  std::filesystem::path tmp_path_;
  std::ofstream stream_;
  std::vector<std::uint8_t> scratch_;
  telescope::ProbeBatch staging_;
  std::uint64_t probe_count_ = 0;
  std::uint64_t checksum_;
  CacheIdentity identity_;
  bool open_ = false;
};

/// Validating reader over a mapped cache file. `open` fully verifies the
/// file (identity + checksum + framing) before the first chunk is handed
/// out, so a torn or stale cache can never leak probes into a run.
class ProbeCacheReader {
 public:
  /// Returns nullopt when the file is missing, unreadable, or fails any
  /// validity check.
  [[nodiscard]] static std::optional<ProbeCacheReader> open(
      const std::filesystem::path& path, const CacheIdentity& expected);

  /// Clears `out` and fills it with the next chunk; false at end.
  bool next_chunk(telescope::ProbeBatch& out);

  [[nodiscard]] const telescope::SensorCounters& sensor() const noexcept {
    return sensor_;
  }
  [[nodiscard]] std::uint64_t frame_count() const noexcept { return frame_count_; }
  [[nodiscard]] std::uint64_t probe_count() const noexcept { return probe_count_; }
  [[nodiscard]] pcap::ReadStatus terminal_status() const noexcept {
    return terminal_status_;
  }

 private:
  ProbeCacheReader() = default;

  pcap::MappedFile file_;
  std::size_t offset_ = 0;  ///< cursor into the chunk region
  telescope::SensorCounters sensor_;
  std::uint64_t frame_count_ = 0;
  std::uint64_t probe_count_ = 0;
  pcap::ReadStatus terminal_status_ = pcap::ReadStatus::kEndOfFile;
};

}  // namespace synscan::core
