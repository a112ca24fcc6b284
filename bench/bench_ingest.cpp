// Ingest perf workload: pcap records -> classified ScanProbes, reported
// as JSON (see scripts/bench_baseline.sh and BENCH_ingest.json).
//
// One run measures all three ingest paths over the same generated
// capture, so a single record carries its own baseline:
//   pre        — the original path: pcap::Reader (buffered istream, one
//                byte-vector copy per record) + per-frame
//                Sensor::classify through decode_frame;
//   mmap_batch — core::ingest_capture with the cache off: fused
//                chunked scan + scalar batch classify, SoA ProbeBatch;
//   cache_warm — core::ingest_capture over the .spc probe cache the
//                cold pass just wrote (decode and classify skipped).
// The probe counts of all paths must agree; the binary exits non-zero
// if they diverge, so the baseline doubles as a correctness smoke.
//
// Every measured path is reported as a warmed median-of-N
// (bench::median_result) next to a memcpy GB/s baseline measured on the
// same buffer size, so each record carries the machine's effective
// memory bandwidth: frames/s numbers from different hosts (or a noisy
// VM) become comparable as a fraction of memcpy. `--check-ratio=<min>`
// turns that fraction into a CI gate — mmap_batch GB/s must clear
// `min × memcpy GB/s` — which catches a gross ingest regression (e.g.
// silently falling back to the per-record path) without the flakiness
// of absolute-time assertions on shared runners.
//
// `--scan-chunks=LIST` (comma-separated chunk counts; 0 = auto) sweeps
// the cold mmap_batch path's chunked-scan parallelism and reports one
// row per setting in a `scan_chunk_sweep` column, so multi-core hosts
// record the scaling curve next to the serial baseline (ROADMAP item:
// multi-core ingest numbers). On a single-core host every row degrades
// to the serial scan and the column simply pins that.
//
// Usage: bench_ingest [--frames=N] [--label=STR] [--seed=N]
//                     [--iters=N] [--warmup=N] [--check-ratio=MIN]
//                     [--scan-chunks=LIST]
// Output: one JSON object on stdout.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/ingest.h"
#include "pcap/pcap.h"
#include "simgen/rng.h"
#include "telescope/sensor.h"
#include "telescope/telescope.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace {

using namespace synscan;

namespace fs = std::filesystem;

/// Peak resident set size in kilobytes, or 0 where unsupported.
long peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return usage.ru_maxrss / 1024;  // bytes on macOS
#else
  return usage.ru_maxrss;  // kilobytes on Linux
#endif
#else
  return 0;
#endif
}

struct Options {
  std::uint64_t frames = 2'000'000;
  std::uint64_t seed = 20240806;
  std::string label = "ingest";
  int iterations = 5;
  int warmup = 1;
  /// Minimum mmap_batch GB/s as a fraction of the measured memcpy GB/s
  /// baseline; < 0 disables the gate.
  double check_ratio = -1.0;
  /// Chunked-scan settings to sweep on the cold path (0 = auto).
  std::vector<std::size_t> scan_chunks = {1, 2, 4, 0};
};

std::vector<std::size_t> parse_chunk_list(const char* text) {
  std::vector<std::size_t> values;
  while (*text != '\0') {
    char* end = nullptr;
    values.push_back(static_cast<std::size_t>(std::strtoull(text, &end, 10)));
    if (end == text) {
      std::fprintf(stderr, "bad --scan-chunks list\n");
      std::exit(2);
    }
    text = (*end == ',') ? end + 1 : end;
  }
  if (values.empty()) {
    std::fprintf(stderr, "--scan-chunks needs at least one value\n");
    std::exit(2);
  }
  return values;
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--frames=", 0) == 0) {
      options.frames = std::strtoull(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--label=", 0) == 0) {
      options.label = arg.substr(8);
    } else if (arg.rfind("--iters=", 0) == 0) {
      options.iterations = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--warmup=", 0) == 0) {
      options.warmup = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--check-ratio=", 0) == 0) {
      options.check_ratio = std::strtod(arg.c_str() + 14, nullptr);
    } else if (arg.rfind("--scan-chunks=", 0) == 0) {
      options.scan_chunks = parse_chunk_list(arg.c_str() + 14);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

const telescope::Telescope& bench_telescope() {
  static const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/16"), 1000}},
      {{23, 0}});
  return telescope;
}

/// Writes a telescope-shaped capture: mostly SYN probes, with enough
/// backscatter, off-telescope traffic and UDP that every sensor branch
/// is on the measured path.
void write_capture(const fs::path& path, const Options& options) {
  simgen::Rng rng(options.seed);
  auto writer = pcap::Writer::create(path);
  net::RawFrame frame;
  net::TimeUs now = 0;
  for (std::uint64_t i = 0; i < options.frames; ++i) {
    now += 40;
    const std::uint64_t draw = rng.next_u64() % 100;
    net::TcpFrameSpec tcp;
    tcp.src_ip = net::Ipv4Address(0x05000000u + rng.next_u32() % (1u << 22));
    tcp.dst_ip = net::Ipv4Address(0xc6330000u + rng.next_u32() % 65536);
    tcp.src_port = static_cast<std::uint16_t>(40000 + rng.next_u32() % 20000);
    tcp.dst_port = (draw % 3 == 0) ? 443 : 80;
    tcp.sequence = rng.next_u32();
    tcp.ip_id = static_cast<std::uint16_t>(rng.next_u32());
    if (draw < 75) {
      // scan probe (defaults: SYN)
    } else if (draw < 85) {
      tcp.flags = net::flag_bit(net::TcpFlag::kSyn) | net::flag_bit(net::TcpFlag::kAck);
    } else if (draw < 92) {
      tcp.dst_ip = net::Ipv4Address(0x08080000u + rng.next_u32() % 65536);  // off-net
    } else if (draw < 97) {
      frame.timestamp_us = now;
      net::UdpFrameSpec udp;
      udp.src_ip = tcp.src_ip;
      udp.dst_ip = tcp.dst_ip;
      udp.src_port = tcp.src_port;
      udp.dst_port = 53;
      frame.bytes = net::build_udp_frame(udp);
      writer.write(frame);
      continue;
    } else {
      tcp.dst_port = 23;  // ingress blocked
    }
    frame.timestamp_us = now;
    frame.bytes = net::build_tcp_frame(tcp);
    writer.write(frame);
  }
  writer.flush();
}

struct PathResult {
  double seconds = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t probes = 0;
  std::uint64_t chunks = 0;  ///< scan chunks the cold path actually used
};

/// Measured memcpy bandwidth over a buffer the size of the capture —
/// the hardware ceiling every ingest GB/s column is judged against.
double measure_memcpy_gbps(const fs::path& capture, const Options& options) {
  std::ifstream in(capture, std::ios::binary);
  std::vector<char> src((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<char> dst(src.size());
  const double seconds = synscan::bench::median_seconds(
      [&] {
        std::memcpy(dst.data(), src.data(), src.size());
        // Keep the copy observable so the optimizer cannot drop it.
        asm volatile("" : : "r"(dst.data()) : "memory");
      },
      options.iterations, options.warmup);
  return static_cast<double>(src.size()) / seconds / 1e9;
}

/// The original record-at-a-time path this PR replaced; kept in-tree as
/// pcap::Reader, so the "pre" row stays measurable on every commit.
PathResult run_reader_per_frame(const fs::path& path) {
  PathResult result;
  const auto start = std::chrono::steady_clock::now();
  telescope::Sensor sensor(bench_telescope());
  auto reader = pcap::Reader::open(path);
  net::RawFrame frame;
  telescope::ScanProbe probe;
  while (reader.next(frame) == pcap::ReadStatus::kOk) {
    ++result.frames;
    if (sensor.classify(frame, probe) == telescope::FrameClass::kScanProbe) {
      ++result.probes;
    }
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

PathResult run_ingest(const fs::path& path, bool use_cache, bool expect_hit,
                      std::size_t scan_chunks = 0) {
  PathResult result;
  core::IngestOptions options;
  options.use_cache = use_cache;
  options.scan_chunks = scan_chunks;
  const auto start = std::chrono::steady_clock::now();
  const auto ingest =
      core::ingest_capture(path, bench_telescope(), options,
                           [&](const telescope::ProbeBatch& batch) {
                             result.probes += batch.size();
                           });
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  result.frames = ingest.frames;
  result.chunks = ingest.chunks;
  if (ingest.from_cache != expect_hit) {
    std::fprintf(stderr, "bench_ingest: expected from_cache=%d\n", expect_hit ? 1 : 0);
    std::exit(1);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse(argc, argv);

  const auto dir = fs::temp_directory_path() / "synscan_bench_ingest";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto capture = dir / "workload.pcap";
  write_capture(capture, options);
  const auto capture_bytes = fs::file_size(capture);

  const auto seconds_of = [](const PathResult& r) { return r.seconds; };
  const auto median = [&](auto&& run) {
    return synscan::bench::median_result(run, seconds_of, options.iterations,
                                         options.warmup);
  };

  const double memcpy_gbps = measure_memcpy_gbps(capture, options);
  const auto pre = median([&] { return run_reader_per_frame(capture); });
  const auto post = median([&] { return run_ingest(capture, false, false); });
  (void)run_ingest(capture, true, false);  // cold pass writes the .spc
  const auto warm = median([&] { return run_ingest(capture, true, true); });

  // Chunked-scan scaling sweep over the cold path. Each row must agree
  // with the serial paths on frames and probes — the sweep doubles as a
  // chunking differential.
  std::vector<PathResult> sweep;
  sweep.reserve(options.scan_chunks.size());
  for (const auto chunks : options.scan_chunks) {
    sweep.push_back(median([&] { return run_ingest(capture, false, false, chunks); }));
  }
  fs::remove_all(dir);

  for (const auto& row : sweep) {
    if (row.frames != pre.frames || row.probes != pre.probes) {
      std::fprintf(stderr,
                   "bench_ingest: scan-chunk sweep divergence at %" PRIu64
                   " chunks (frames %" PRIu64 ", probes %" PRIu64 ")\n",
                   row.chunks, row.frames, row.probes);
      return 1;
    }
  }
  if (pre.probes != post.probes || pre.probes != warm.probes ||
      pre.frames != post.frames || pre.frames != warm.frames) {
    std::fprintf(stderr,
                 "bench_ingest: path divergence (frames %" PRIu64 "/%" PRIu64
                 "/%" PRIu64 ", probes %" PRIu64 "/%" PRIu64 "/%" PRIu64 ")\n",
                 pre.frames, post.frames, warm.frames, pre.probes, post.probes,
                 warm.probes);
    return 1;
  }

  const auto fps = [](const PathResult& r) {
    return static_cast<double>(r.frames) / r.seconds;
  };
  // Effective capture bandwidth: original capture bytes retired per
  // second, regardless of which representation the path actually read —
  // the one unit in which all three paths and memcpy are comparable.
  const auto gbps = [&](const PathResult& r) {
    return static_cast<double>(capture_bytes) / r.seconds / 1e9;
  };
  const double ratio = gbps(post) / memcpy_gbps;
  std::string sweep_json = "[";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    char row[160];
    std::snprintf(row, sizeof(row),
                  "%s{\"requested\":%llu,\"chunks\":%" PRIu64
                  ",\"seconds\":%.4f,\"frames_per_sec\":%.0f,\"gbps\":%.2f}",
                  i == 0 ? "" : ",",
                  static_cast<unsigned long long>(options.scan_chunks[i]),
                  sweep[i].chunks, sweep[i].seconds, fps(sweep[i]), gbps(sweep[i]));
    sweep_json.append(row);
  }
  sweep_json.push_back(']');
  std::printf(
      "{\"label\":\"%s\",\"frames\":%" PRIu64 ",\"probes\":%" PRIu64 ","
      "\"capture_bytes\":%" PRIu64 ",\"peak_rss_kb\":%ld,"
      "\"iterations\":%d,\"warmup\":%d,\"memcpy_gbps\":%.2f,"
      "\"pre_seconds\":%.4f,\"pre_frames_per_sec\":%.0f,\"pre_gbps\":%.2f,"
      "\"mmap_batch_seconds\":%.4f,\"mmap_batch_frames_per_sec\":%.0f,"
      "\"mmap_batch_gbps\":%.2f,"
      "\"cache_warm_seconds\":%.4f,\"cache_warm_frames_per_sec\":%.0f,"
      "\"cache_warm_gbps\":%.2f,"
      "\"mmap_speedup\":%.2f,\"cache_speedup\":%.2f,"
      "\"mmap_vs_memcpy\":%.3f,\"scan_chunk_sweep\":%s}\n",
      options.label.c_str(), pre.frames, pre.probes,
      static_cast<std::uint64_t>(capture_bytes), peak_rss_kb(), options.iterations,
      options.warmup, memcpy_gbps, pre.seconds, fps(pre), gbps(pre), post.seconds,
      fps(post), gbps(post), warm.seconds, fps(warm), gbps(warm),
      fps(post) / fps(pre), fps(warm) / fps(pre), ratio, sweep_json.c_str());
  if (options.check_ratio >= 0.0 && ratio < options.check_ratio) {
    std::fprintf(stderr,
                 "bench_ingest: mmap_batch %.2f GB/s is %.3fx memcpy "
                 "(%.2f GB/s), below the --check-ratio=%.3f floor\n",
                 gbps(post), ratio, memcpy_gbps, options.check_ratio);
    return 1;
  }
  return 0;
}
