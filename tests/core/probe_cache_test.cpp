#include "core/probe_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "test_support.h"

namespace synscan::core {
namespace {

namespace fs = std::filesystem;

class ProbeCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::scratch_dir();
    source_ = dir_ / "capture.pcap";
    cache_ = dir_ / "capture.pcap.spc";
    std::ofstream out(source_, std::ios::binary);
    out << "stand-in capture bytes";
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] CacheIdentity identity() const {
    const auto id = cache_identity(source_);
    EXPECT_TRUE(id.has_value());
    return *id;
  }

  static telescope::ProbeBatch sample_batch(std::size_t rows, std::uint32_t salt) {
    telescope::ProbeBatch batch;
    for (std::size_t i = 0; i < rows; ++i) {
      testing::ProbeBuilder builder;
      builder.at(static_cast<net::TimeUs>(i) * 100)
          .from(net::Ipv4Address(salt + static_cast<std::uint32_t>(i)))
          .port(static_cast<std::uint16_t>(i % 7))
          .seq(salt ^ static_cast<std::uint32_t>(i))
          .ipid(static_cast<std::uint16_t>(i));
      batch.push_back(builder);
    }
    return batch;
  }

  /// Writes `batch` to `path` in one append, all rows as probes.
  void write_cache(const fs::path& path, const telescope::ProbeBatch& batch) const {
    telescope::SensorCounters sensor;
    sensor.scan_probes = batch.size();
    ProbeCacheWriter writer(path, *cache_identity(source_));
    writer.append(batch);
    ASSERT_TRUE(writer.commit(batch.size(), pcap::ReadStatus::kEndOfFile, sensor));
  }

  static void expect_rows_equal(const telescope::ProbeBatch& got, std::size_t at,
                                const telescope::ProbeBatch& want, std::size_t from,
                                std::size_t rows) {
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(got.timestamp_us[at + i], want.timestamp_us[from + i]);
      EXPECT_EQ(got.source[at + i], want.source[from + i]);
      EXPECT_EQ(got.destination[at + i], want.destination[from + i]);
      EXPECT_EQ(got.source_port[at + i], want.source_port[from + i]);
      EXPECT_EQ(got.destination_port[at + i], want.destination_port[from + i]);
      EXPECT_EQ(got.sequence[at + i], want.sequence[from + i]);
      EXPECT_EQ(got.acknowledgment[at + i], want.acknowledgment[from + i]);
      EXPECT_EQ(got.ip_id[at + i], want.ip_id[from + i]);
      EXPECT_EQ(got.window[at + i], want.window[from + i]);
      EXPECT_EQ(got.ttl[at + i], want.ttl[from + i]);
    }
  }

  static std::vector<std::uint8_t> slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  fs::path dir_;
  fs::path source_;
  fs::path cache_;
};

TEST_F(ProbeCacheTest, WriteReadRoundTrip) {
  const auto id = identity();
  telescope::SensorCounters sensor;
  sensor.scan_probes = 7;
  sensor.malformed = 3;
  sensor.udp = 1;

  {
    ProbeCacheWriter writer(cache_, id);
    writer.append(sample_batch(4, 100));
    writer.append(sample_batch(3, 900));
    ASSERT_TRUE(writer.commit(42, pcap::ReadStatus::kEndOfFile, sensor));
  }
  EXPECT_TRUE(fs::exists(cache_));
  EXPECT_FALSE(fs::exists(cache_.native() + ".tmp"));

  auto reader = ProbeCacheReader::open(cache_, id);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->frame_count(), 42u);
  EXPECT_EQ(reader->probe_count(), 7u);
  EXPECT_EQ(reader->terminal_status(), pcap::ReadStatus::kEndOfFile);
  EXPECT_EQ(reader->sensor().scan_probes, 7u);
  EXPECT_EQ(reader->sensor().malformed, 3u);
  EXPECT_EQ(reader->sensor().udp, 1u);

  // The writer restages appends into the fixed row grid, so the two
  // small appends come back as one chunk holding all seven rows.
  telescope::ProbeBatch chunk;
  ASSERT_TRUE(reader->next_chunk(chunk));
  ASSERT_EQ(chunk.size(), 7u);
  expect_rows_equal(chunk, 0, sample_batch(4, 100), 0, 4);
  expect_rows_equal(chunk, 4, sample_batch(3, 900), 0, 3);
  EXPECT_FALSE(reader->next_chunk(chunk));
  EXPECT_TRUE(chunk.empty());
}

TEST_F(ProbeCacheTest, FileBytesIndependentOfAppendBatching) {
  const auto batch = sample_batch(23, 500);
  const auto whole = dir_ / "whole.spc";
  const auto split = dir_ / "split.spc";
  write_cache(whole, batch);
  {
    telescope::SensorCounters sensor;
    sensor.scan_probes = batch.size();
    ProbeCacheWriter writer(split, identity());
    telescope::ProbeBatch piece;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      piece.push_back(batch.get(i));
      if (piece.size() == 5 || i + 1 == batch.size()) {
        writer.append(piece);
        piece.clear();
      }
    }
    ASSERT_TRUE(writer.commit(batch.size(), pcap::ReadStatus::kEndOfFile, sensor));
  }
  EXPECT_EQ(slurp(whole), slurp(split));
}

TEST_F(ProbeCacheTest, FixedRowGridSplitsLargeStreams) {
  const auto batch = sample_batch(kCacheRowsPerChunk + 3, 9);
  write_cache(cache_, batch);
  auto reader = ProbeCacheReader::open(cache_, identity());
  ASSERT_TRUE(reader.has_value());
  telescope::ProbeBatch chunk;
  ASSERT_TRUE(reader->next_chunk(chunk));
  EXPECT_EQ(chunk.size(), kCacheRowsPerChunk);
  ASSERT_TRUE(reader->next_chunk(chunk));
  EXPECT_EQ(chunk.size(), 3u);
  EXPECT_FALSE(reader->next_chunk(chunk));
}

TEST_F(ProbeCacheTest, DeltaCodecCompressesCorrelatedColumns) {
  // Sequential timestamps and near-sequential addresses — the shape of
  // real probe streams — must come out smaller than plain columns: the
  // 136-byte header, one u64 row count and 33 bytes per row.
  const auto batch = sample_batch(4096, 1000);
  write_cache(cache_, batch);
  EXPECT_LT(fs::file_size(cache_), 136u + 8u + 33u * batch.size());
}

TEST_F(ProbeCacheTest, PreservesTruncatedTerminalStatus) {
  const auto id = identity();
  telescope::SensorCounters sensor;
  sensor.scan_probes = 2;
  {
    ProbeCacheWriter writer(cache_, id);
    writer.append(sample_batch(2, 5));
    ASSERT_TRUE(writer.commit(9, pcap::ReadStatus::kTruncated, sensor));
  }
  auto reader = ProbeCacheReader::open(cache_, id);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->terminal_status(), pcap::ReadStatus::kTruncated);
}

TEST_F(ProbeCacheTest, StaleIdentityIsRejected) {
  const auto id = identity();
  write_cache(cache_, sample_batch(1, 1));
  auto changed = id;
  changed.source_size += 1;
  EXPECT_FALSE(ProbeCacheReader::open(cache_, changed).has_value());
  changed = id;
  changed.source_mtime_ns += 1;
  EXPECT_FALSE(ProbeCacheReader::open(cache_, changed).has_value());
  EXPECT_TRUE(ProbeCacheReader::open(cache_, id).has_value());
}

TEST_F(ProbeCacheTest, BitFlipInCompressedStreamIsRejected) {
  const auto id = identity();
  write_cache(cache_, sample_batch(64, 77));
  ASSERT_TRUE(ProbeCacheReader::open(cache_, id).has_value());
  // 136 = header, +8 row count, +8 length prefix: this lands inside the
  // timestamp varint stream. The checksum must catch the flip.
  {
    std::fstream file(cache_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(136 + 8 + 8 + 5);
    const auto byte = file.get();
    file.seekp(136 + 8 + 8 + 5);
    file.put(static_cast<char>(byte ^ 0x10));
  }
  EXPECT_FALSE(ProbeCacheReader::open(cache_, id).has_value());
  const auto report = cache_verify(cache_);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("checksum"), std::string::npos);
}

TEST_F(ProbeCacheTest, TruncatedCompressedColumnIsRejected) {
  const auto id = identity();
  write_cache(cache_, sample_batch(64, 3));
  // Cut into the fixed-width tail, then deep into the varint region;
  // both must read as "no cache", never as partial probes.
  fs::resize_file(cache_, fs::file_size(cache_) - 5);
  EXPECT_FALSE(ProbeCacheReader::open(cache_, id).has_value());
  fs::resize_file(cache_, 136 + 8 + 8 + 3);
  EXPECT_FALSE(ProbeCacheReader::open(cache_, id).has_value());
  EXPECT_NE(cache_verify(cache_).error.find("truncated"), std::string::npos);
  fs::resize_file(cache_, 40);  // even into the header
  EXPECT_FALSE(ProbeCacheReader::open(cache_, id).has_value());
}

TEST_F(ProbeCacheTest, UnsupportedVersionIsRejected) {
  const auto id = identity();
  write_cache(cache_, sample_batch(4, 8));
  {
    std::fstream file(cache_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(4);
    file.put('\x03');  // version 3: a future format must read as stale
  }
  EXPECT_FALSE(ProbeCacheReader::open(cache_, id).has_value());
  const auto report = cache_verify(cache_);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("version"), std::string::npos);
}

TEST_F(ProbeCacheTest, UnknownCodecIsRejected) {
  const auto id = identity();
  write_cache(cache_, sample_batch(4, 8));
  {
    std::fstream file(cache_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(44);
    file.put('\x09');
  }
  EXPECT_FALSE(ProbeCacheReader::open(cache_, id).has_value());
  EXPECT_NE(cache_verify(cache_).error.find("codec"), std::string::npos);
}

TEST_F(ProbeCacheTest, StatAndVerifyReportTheFile) {
  write_cache(cache_, sample_batch(12, 42));
  const auto info = cache_stat(cache_);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->version, 2u);
  EXPECT_EQ(info->codec, 1u);  // delta-varint
  EXPECT_EQ(info->probe_count, 12u);
  EXPECT_EQ(info->frame_count, 12u);
  EXPECT_EQ(info->sensor.scan_probes, 12u);
  EXPECT_EQ(info->file_size, fs::file_size(cache_));

  auto report = cache_verify(cache_, identity());
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.chunks, 1u);
  EXPECT_EQ(report.rows, 12u);

  auto stale = identity();
  stale.source_size += 1;
  report = cache_verify(cache_, stale);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("stale"), std::string::npos);

  EXPECT_FALSE(cache_stat(dir_ / "missing.spc").has_value());
  EXPECT_FALSE(cache_verify(dir_ / "missing.spc").ok);
}

TEST_F(ProbeCacheTest, AbandonLeavesNoFiles) {
  {
    ProbeCacheWriter writer(cache_, identity());
    writer.append(sample_batch(4, 4));
    // no commit: destructor abandons
  }
  EXPECT_FALSE(fs::exists(cache_));
  EXPECT_FALSE(fs::exists(cache_.native() + ".tmp"));
}

TEST_F(ProbeCacheTest, MissingCacheAndNonRegularSourcesHandled) {
  EXPECT_FALSE(ProbeCacheReader::open(cache_, identity()).has_value());
  EXPECT_FALSE(cache_identity(dir_).has_value());               // a directory
  EXPECT_FALSE(cache_identity(dir_ / "missing.pcap").has_value());
}

}  // namespace
}  // namespace synscan::core
