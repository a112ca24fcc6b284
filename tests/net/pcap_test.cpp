#include "pcap/pcap.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "net/endian.h"
#include "test_support.h"

namespace synscan::pcap {
namespace {

namespace fs = std::filesystem;

class PcapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::scratch_dir();
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] fs::path path(const char* name) const { return dir_ / name; }

  static net::RawFrame frame(net::TimeUs t, std::initializer_list<std::uint8_t> bytes) {
    net::RawFrame f;
    f.timestamp_us = t;
    f.bytes = bytes;
    return f;
  }

  fs::path dir_;
};

TEST_F(PcapTest, WriteReadRoundTrip) {
  const std::vector<net::RawFrame> frames = {
      frame(1'000'000, {1, 2, 3, 4}),
      frame(2'500'000, {5, 6}),
      frame(2'500'001, {7}),
  };
  write_file(path("roundtrip.pcap"), frames);

  const auto [read, status] = read_file(path("roundtrip.pcap"));
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  ASSERT_EQ(read.size(), 3u);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(read[i].timestamp_us, frames[i].timestamp_us);
    EXPECT_EQ(read[i].bytes, frames[i].bytes);
  }
}

TEST_F(PcapTest, EmptyCaptureIsValid) {
  write_file(path("empty.pcap"), {});
  const auto [read, status] = read_file(path("empty.pcap"));
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  EXPECT_TRUE(read.empty());
}

TEST_F(PcapTest, ReaderExposesFileInfo) {
  write_file(path("info.pcap"), {}, LinkType::kEthernet);
  auto reader = Reader::open(path("info.pcap"));
  EXPECT_FALSE(reader.info().big_endian);
  EXPECT_FALSE(reader.info().nanosecond);
  EXPECT_EQ(reader.info().version_major, 2);
  EXPECT_EQ(reader.info().version_minor, 4);
  EXPECT_EQ(reader.info().link_type, LinkType::kEthernet);
  EXPECT_EQ(reader.info().snap_length, 65535u);
}

TEST_F(PcapTest, RejectsUnknownMagic) {
  std::ofstream out(path("garbage.pcap"), std::ios::binary);
  const char junk[32] = "this is not a capture file!";
  out.write(junk, sizeof(junk));
  out.close();
  EXPECT_THROW((void)Reader::open(path("garbage.pcap")), std::runtime_error);
}

TEST_F(PcapTest, RejectsTruncatedGlobalHeader) {
  std::ofstream out(path("short.pcap"), std::ios::binary);
  const char bytes[10] = {};
  out.write(bytes, sizeof(bytes));
  out.close();
  EXPECT_THROW((void)Reader::open(path("short.pcap")), std::runtime_error);
}

TEST_F(PcapTest, TruncatedRecordBodyReported) {
  {
    const std::vector<net::RawFrame> frames = {frame(1, {1, 2, 3, 4, 5, 6, 7, 8})};
    write_file(path("trunc.pcap"), frames);
  }
  // Chop the last 4 bytes of the packet body.
  const auto size = fs::file_size(path("trunc.pcap"));
  fs::resize_file(path("trunc.pcap"), size - 4);

  const auto [read, status] = read_file(path("trunc.pcap"));
  EXPECT_EQ(status, ReadStatus::kTruncated);
  EXPECT_TRUE(read.empty());
}

TEST_F(PcapTest, TruncatedRecordHeaderReported) {
  {
    const std::vector<net::RawFrame> frames = {frame(1, {1, 2}), frame(2, {3, 4})};
    write_file(path("trunc2.pcap"), frames);
  }
  const auto size = fs::file_size(path("trunc2.pcap"));
  fs::resize_file(path("trunc2.pcap"), size - 2 - 8);  // into record 2's header

  const auto [read, status] = read_file(path("trunc2.pcap"));
  EXPECT_EQ(status, ReadStatus::kTruncated);
  EXPECT_EQ(read.size(), 1u);  // the first record survived
}

TEST_F(PcapTest, MidHeaderTruncationReportedOnceThenEndOfFile) {
  // A capture killed mid-record-header must yield the readable prefix,
  // report kTruncated exactly once, and then settle on kEndOfFile.
  {
    const std::vector<net::RawFrame> frames = {frame(1, {1, 2}), frame(2, {3, 4})};
    write_file(path("midhdr.pcap"), frames);
  }
  const auto size = fs::file_size(path("midhdr.pcap"));
  fs::resize_file(path("midhdr.pcap"), size - 2 - 9);  // 7 bytes of record 2's header

  auto reader = Reader::open(path("midhdr.pcap"));
  net::RawFrame out;
  ASSERT_EQ(reader.next(out), ReadStatus::kOk);
  EXPECT_EQ(out.bytes, (std::vector<std::uint8_t>{1, 2}));
  EXPECT_EQ(reader.next(out), ReadStatus::kTruncated);
  EXPECT_EQ(reader.next(out), ReadStatus::kEndOfFile);
  EXPECT_EQ(reader.next(out), ReadStatus::kEndOfFile);
}

TEST_F(PcapTest, MidHeaderTruncationBigEndianReportedOnceThenEndOfFile) {
  // Same contract for a swapped-magic (big-endian) capture.
  std::ofstream out(path("midhdr_be.pcap"), std::ios::binary);
  const auto be16 = [&](std::uint16_t v) {
    std::uint8_t b[2];
    net::store_be16(b, v);
    out.write(reinterpret_cast<const char*>(b), 2);
  };
  const auto be32 = [&](std::uint32_t v) {
    std::uint8_t b[4];
    net::store_be32(b, v);
    out.write(reinterpret_cast<const char*>(b), 4);
  };
  be32(0xa1b2c3d4);  // written big-endian => swapped magic on disk
  be16(2);
  be16(4);
  be32(0);
  be32(0);
  be32(65535);
  be32(1);       // Ethernet
  be32(10);      // record 1: ts seconds
  be32(0);       // ts micros
  be32(2);       // captured
  be32(2);       // original
  out.put(0x01);
  out.put(0x02);
  be32(11);      // record 2: 4 of 16 header bytes, then the file ends
  out.close();

  auto reader = Reader::open(path("midhdr_be.pcap"));
  EXPECT_TRUE(reader.info().big_endian);
  net::RawFrame frame;
  ASSERT_EQ(reader.next(frame), ReadStatus::kOk);
  EXPECT_EQ(frame.bytes, (std::vector<std::uint8_t>{1, 2}));
  EXPECT_EQ(reader.next(frame), ReadStatus::kTruncated);
  EXPECT_EQ(reader.next(frame), ReadStatus::kEndOfFile);
  EXPECT_EQ(reader.next(frame), ReadStatus::kEndOfFile);
}

TEST_F(PcapTest, InsaneCapturedLengthIsBadRecord) {
  {
    const std::vector<net::RawFrame> frames = {frame(1, {1, 2, 3})};
    write_file(path("bad.pcap"), frames);
  }
  // Overwrite the record's captured length with an absurd value.
  std::fstream file(path("bad.pcap"),
                    std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(24 + 8);
  std::uint8_t bytes[4];
  net::store_le32(bytes, 0x7fffffffu);
  file.write(reinterpret_cast<const char*>(bytes), 4);
  file.close();

  const auto [read, status] = read_file(path("bad.pcap"));
  EXPECT_EQ(status, ReadStatus::kBadRecord);
  EXPECT_TRUE(read.empty());
}

TEST_F(PcapTest, CapturedLongerThanOriginalIsBadRecord) {
  {
    const std::vector<net::RawFrame> frames = {frame(1, {1, 2, 3})};
    write_file(path("bad2.pcap"), frames);
  }
  std::fstream file(path("bad2.pcap"),
                    std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(24 + 12);  // original length field
  std::uint8_t bytes[4];
  net::store_le32(bytes, 1);  // claim original was 1 byte < captured 3
  file.write(reinterpret_cast<const char*>(bytes), 4);
  file.close();

  const auto [read, status] = read_file(path("bad2.pcap"));
  EXPECT_EQ(status, ReadStatus::kBadRecord);
}

TEST_F(PcapTest, SnapLengthTruncatesOnDisk) {
  auto writer = Writer(std::make_unique<std::ofstream>(path("snap.pcap"), std::ios::binary),
                       LinkType::kEthernet, /*snap_length=*/8);
  net::RawFrame big;
  big.timestamp_us = 5'000'000;
  big.bytes.assign(100, 0xaa);
  writer.write(big);
  writer.flush();

  const auto [read, status] = read_file(path("snap.pcap"));
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  ASSERT_EQ(read.size(), 1u);
  EXPECT_EQ(read[0].bytes.size(), 8u);  // captured = snap length
}

TEST_F(PcapTest, BigEndianCapturesAreReadable) {
  // Hand-craft a big-endian (swapped-magic) capture with one record.
  std::ofstream out(path("be.pcap"), std::ios::binary);
  const auto be16 = [&](std::uint16_t v) {
    std::uint8_t b[2];
    net::store_be16(b, v);
    out.write(reinterpret_cast<const char*>(b), 2);
  };
  const auto be32 = [&](std::uint32_t v) {
    std::uint8_t b[4];
    net::store_be32(b, v);
    out.write(reinterpret_cast<const char*>(b), 4);
  };
  be32(0xa1b2c3d4);  // written big-endian => reader sees swapped magic
  be16(2);
  be16(4);
  be32(0);
  be32(0);
  be32(65535);
  be32(1);           // Ethernet
  be32(10);          // ts seconds
  be32(250000);      // ts micros
  be32(3);           // captured
  be32(3);           // original
  out.put(1);
  out.put(2);
  out.put(3);
  out.close();

  auto reader = Reader::open(path("be.pcap"));
  EXPECT_TRUE(reader.info().big_endian);
  net::RawFrame frame;
  ASSERT_EQ(reader.next(frame), ReadStatus::kOk);
  EXPECT_EQ(frame.timestamp_us, 10 * net::kMicrosPerSecond + 250000);
  EXPECT_EQ(frame.bytes, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(reader.next(frame), ReadStatus::kEndOfFile);
}

TEST_F(PcapTest, NanosecondCapturesNormalizeToMicros) {
  std::ofstream out(path("ns.pcap"), std::ios::binary);
  const auto le16 = [&](std::uint16_t v) {
    std::uint8_t b[2];
    net::store_le16(b, v);
    out.write(reinterpret_cast<const char*>(b), 2);
  };
  const auto le32 = [&](std::uint32_t v) {
    std::uint8_t b[4];
    net::store_le32(b, v);
    out.write(reinterpret_cast<const char*>(b), 4);
  };
  le32(0xa1b23c4d);  // nanosecond magic
  le16(2);
  le16(4);
  le32(0);
  le32(0);
  le32(65535);
  le32(1);
  le32(7);          // seconds
  le32(123456789);  // nanos -> 123456 micros
  le32(1);
  le32(1);
  out.put(0x42);
  out.close();

  auto reader = Reader::open(path("ns.pcap"));
  EXPECT_TRUE(reader.info().nanosecond);
  net::RawFrame frame;
  ASSERT_EQ(reader.next(frame), ReadStatus::kOk);
  EXPECT_EQ(frame.timestamp_us, 7 * net::kMicrosPerSecond + 123456);
}

TEST_F(PcapTest, FramesWrittenAndReadCountersTrack) {
  auto writer = Writer::create(path("count.pcap"));
  for (int i = 0; i < 5; ++i) writer.write(frame(i, {static_cast<std::uint8_t>(i)}));
  writer.flush();
  EXPECT_EQ(writer.frames_written(), 5u);

  auto reader = Reader::open(path("count.pcap"));
  auto [frames, status] = reader.read_all();
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  EXPECT_EQ(reader.frames_read(), 5u);
}

TEST_F(PcapTest, OpenMissingFileThrows) {
  EXPECT_THROW((void)Reader::open(path("does-not-exist.pcap")), std::runtime_error);
}

}  // namespace
}  // namespace synscan::pcap
