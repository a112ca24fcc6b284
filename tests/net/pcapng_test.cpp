#include "pcap/pcapng.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "net/endian.h"
#include "test_support.h"

namespace synscan::pcap {
namespace {

namespace fs = std::filesystem;

/// Byte-level pcapng builder for tests.
class NgBuilder {
 public:
  explicit NgBuilder(bool big_endian = false) : big_endian_(big_endian) {}

  NgBuilder& section_header() {
    std::vector<std::uint8_t> body;
    u32(body, 0x1A2B3C4D);  // byte-order magic
    u16(body, 1);           // major
    u16(body, 0);           // minor
    u64(body, 0xffffffffffffffffull);  // section length: unknown
    block(0x0A0D0D0A, body);
    return *this;
  }

  /// Adds an IDB; tsresol 6 = microseconds, 9 = nanoseconds, 0x80|n = 2^-n.
  NgBuilder& interface_block(std::uint8_t tsresol = 6) {
    std::vector<std::uint8_t> body;
    u16(body, 1);  // LINKTYPE_ETHERNET
    u16(body, 0);  // reserved
    u32(body, 65535);  // snaplen
    // if_tsresol option.
    u16(body, 9);
    u16(body, 1);
    body.push_back(tsresol);
    body.insert(body.end(), 3, 0);  // pad to 32 bits
    // opt_endofopt.
    u16(body, 0);
    u16(body, 0);
    block(1, body);
    return *this;
  }

  NgBuilder& enhanced_packet(std::uint32_t interface_id, std::uint64_t ticks,
                             std::vector<std::uint8_t> data) {
    std::vector<std::uint8_t> body;
    u32(body, interface_id);
    u32(body, static_cast<std::uint32_t>(ticks >> 32));
    u32(body, static_cast<std::uint32_t>(ticks & 0xffffffff));
    u32(body, static_cast<std::uint32_t>(data.size()));  // captured
    u32(body, static_cast<std::uint32_t>(data.size()));  // original
    body.insert(body.end(), data.begin(), data.end());
    while (body.size() % 4 != 0) body.push_back(0);
    block(6, body);
    return *this;
  }

  NgBuilder& simple_packet(std::vector<std::uint8_t> data) {
    std::vector<std::uint8_t> body;
    u32(body, static_cast<std::uint32_t>(data.size()));
    body.insert(body.end(), data.begin(), data.end());
    while (body.size() % 4 != 0) body.push_back(0);
    block(3, body);
    return *this;
  }

  NgBuilder& unknown_block() {
    std::vector<std::uint8_t> body = {1, 2, 3, 4, 5, 6, 7, 8};
    block(0x0BAD0000, body);
    return *this;
  }

  void write(const fs::path& path) const {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes_.data()),
              static_cast<std::streamsize>(bytes_.size()));
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }

 private:
  void u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
    std::uint8_t b[2];
    big_endian_ ? net::store_be16(b, v) : net::store_le16(b, v);
    out.insert(out.end(), b, b + 2);
  }
  void u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    std::uint8_t b[4];
    big_endian_ ? net::store_be32(b, v) : net::store_le32(b, v);
    out.insert(out.end(), b, b + 4);
  }
  void u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    u32(out, static_cast<std::uint32_t>(big_endian_ ? v >> 32 : v & 0xffffffff));
    u32(out, static_cast<std::uint32_t>(big_endian_ ? v & 0xffffffff : v >> 32));
  }
  void block(std::uint32_t type, const std::vector<std::uint8_t>& body) {
    const auto total = static_cast<std::uint32_t>(12 + body.size());
    u32(bytes_, type);
    u32(bytes_, total);
    bytes_.insert(bytes_.end(), body.begin(), body.end());
    u32(bytes_, total);
  }

  bool big_endian_;
  std::vector<std::uint8_t> bytes_;
};

class PcapngTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::scratch_dir();
  }
  void TearDown() override { fs::remove_all(dir_); }
  [[nodiscard]] fs::path path(const char* name) const { return dir_ / name; }
  fs::path dir_;
};

TEST_F(PcapngTest, ReadsEnhancedPackets) {
  NgBuilder builder;
  builder.section_header()
      .interface_block(6)
      .enhanced_packet(0, 5'000'123, {0xaa, 0xbb, 0xcc})
      .enhanced_packet(0, 6'000'456, {0x01});
  builder.write(path("basic.pcapng"));

  auto reader = NgReader::open(path("basic.pcapng"));
  auto [frames, status] = reader.read_all();
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].timestamp_us, 5'000'123);  // µs resolution: ticks are µs
  EXPECT_EQ(frames[0].bytes, (std::vector<std::uint8_t>{0xaa, 0xbb, 0xcc}));
  EXPECT_EQ(frames[1].timestamp_us, 6'000'456);
  EXPECT_EQ(reader.interfaces_seen(), 1u);
}

TEST_F(PcapngTest, NanosecondResolutionNormalizes) {
  NgBuilder builder;
  builder.section_header().interface_block(9).enhanced_packet(
      0, 1'500'000'789ull, {0x42});  // 1.500000789 s in ns ticks
  builder.write(path("ns.pcapng"));
  auto reader = NgReader::open(path("ns.pcapng"));
  net::RawFrame frame;
  ASSERT_EQ(reader.next(frame), ReadStatus::kOk);
  EXPECT_EQ(frame.timestamp_us, 1'500'000);
}

TEST_F(PcapngTest, Power2ResolutionNormalizes) {
  // tsresol 0x8A = 2^-10 ticks (1024 per second).
  NgBuilder builder;
  builder.section_header().interface_block(0x8A).enhanced_packet(0, 2048, {0x42});
  builder.write(path("p2.pcapng"));
  auto reader = NgReader::open(path("p2.pcapng"));
  net::RawFrame frame;
  ASSERT_EQ(reader.next(frame), ReadStatus::kOk);
  EXPECT_EQ(frame.timestamp_us, 2 * net::kMicrosPerSecond);
}

TEST_F(PcapngTest, SimplePacketBlocksWork) {
  NgBuilder builder;
  builder.section_header().interface_block().simple_packet({9, 8, 7, 6, 5});
  builder.write(path("spb.pcapng"));
  auto [frames, status] = NgReader::open(path("spb.pcapng")).read_all();
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].bytes.size(), 5u);
  EXPECT_EQ(frames[0].timestamp_us, 0);
}

TEST_F(PcapngTest, UnknownBlocksAreSkipped) {
  NgBuilder builder;
  builder.section_header()
      .interface_block()
      .unknown_block()
      .enhanced_packet(0, 1, {0x11})
      .unknown_block();
  builder.write(path("mixed.pcapng"));
  auto [frames, status] = NgReader::open(path("mixed.pcapng")).read_all();
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  EXPECT_EQ(frames.size(), 1u);
}

TEST_F(PcapngTest, BigEndianSections) {
  NgBuilder builder(/*big_endian=*/true);
  builder.section_header().interface_block(6).enhanced_packet(0, 777, {0x01, 0x02});
  builder.write(path("be.pcapng"));
  auto [frames, status] = NgReader::open(path("be.pcapng")).read_all();
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].timestamp_us, 777);
}

TEST_F(PcapngTest, RejectsNonPcapng) {
  std::ofstream out(path("junk.pcapng"), std::ios::binary);
  out << "definitely not a capture";
  out.close();
  EXPECT_THROW((void)NgReader::open(path("junk.pcapng")), std::runtime_error);
}

TEST_F(PcapngTest, TruncatedBlockReported) {
  NgBuilder builder;
  builder.section_header().interface_block().enhanced_packet(0, 1, {1, 2, 3, 4});
  builder.write(path("trunc.pcapng"));
  fs::resize_file(path("trunc.pcapng"), fs::file_size(path("trunc.pcapng")) - 6);
  auto [frames, status] = NgReader::open(path("trunc.pcapng")).read_all();
  EXPECT_EQ(status, ReadStatus::kTruncated);
  EXPECT_TRUE(frames.empty());
}

TEST_F(PcapngTest, CorruptTrailerIsBadRecord) {
  NgBuilder builder;
  builder.section_header().interface_block().enhanced_packet(0, 1, {1, 2, 3, 4});
  builder.write(path("bad.pcapng"));
  // Flip a byte in the trailing total-length of the last block.
  std::fstream file(path("bad.pcapng"), std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(-2, std::ios::end);
  file.put(static_cast<char>(0x5a));
  file.close();
  auto [frames, status] = NgReader::open(path("bad.pcapng")).read_all();
  EXPECT_EQ(status, ReadStatus::kBadRecord);
}

TEST_F(PcapngTest, MultipleSectionsResetInterfaces) {
  NgBuilder builder;
  builder.section_header()
      .interface_block(6)
      .enhanced_packet(0, 10, {1})
      .section_header()
      .interface_block(9)  // new section: ns resolution
      .enhanced_packet(0, 3'000, {2});
  builder.write(path("sections.pcapng"));
  auto [frames, status] = NgReader::open(path("sections.pcapng")).read_all();
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].timestamp_us, 10);  // µs ticks
  EXPECT_EQ(frames[1].timestamp_us, 3);   // ns ticks -> 3 µs
}

TEST_F(PcapngTest, FormatDispatchReadsBoth) {
  // pcapng...
  NgBuilder builder;
  builder.section_header().interface_block().enhanced_packet(0, 1, {0x77});
  builder.write(path("dispatch.pcapng"));
  EXPECT_TRUE(looks_like_pcapng(path("dispatch.pcapng")));
  auto [ng_frames, ng_status] = read_any_capture(path("dispatch.pcapng"));
  EXPECT_EQ(ng_frames.size(), 1u);

  // ...and classic pcap through the same entry point.
  const std::vector<net::RawFrame> classic = {{123, {0x01, 0x02}}};
  write_file(path("dispatch.pcap"), classic);
  EXPECT_FALSE(looks_like_pcapng(path("dispatch.pcap")));
  auto [frames, status] = read_any_capture(path("dispatch.pcap"));
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].timestamp_us, 123);
}

}  // namespace
}  // namespace synscan::pcap
