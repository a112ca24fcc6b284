#include "core/ingest.h"

#include <algorithm>
#include <exception>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/probe_cache.h"
#include "core/sync.h"
#include "obs/metrics.h"
#include "pcap/mapped_reader.h"
#include "pcap/pcapng.h"
#include "telescope/classify_detail.h"

namespace synscan::core {
namespace {

/// Chunked scanning only pays once the scan outweighs thread startup;
/// below this capture size the cold path stays serial regardless of
/// `scan_chunks`.
constexpr std::uint64_t kMinChunkedBytes = 4u << 20;
/// Upper bound on scan chunks (and therefore scan threads) per ingest.
constexpr std::size_t kMaxScanChunks = 64;

/// The `ingest.*` metric cells, resolved once per run iff obs is on.
struct IngestMetrics {
  obs::Counter* batches = nullptr;
  obs::Counter* chunks = nullptr;
  obs::Counter* mmap_bytes = nullptr;
  obs::Counter* fallback_reads = nullptr;
  obs::Counter* cache_hits = nullptr;
  obs::Counter* cache_misses = nullptr;
  obs::Counter* cache_invalidations = nullptr;

  IngestMetrics() {
    if (!obs::enabled()) return;
    auto& registry = obs::MetricsRegistry::global();
    batches = &registry.counter("ingest.batches");
    chunks = &registry.counter("ingest.chunks");
    mmap_bytes = &registry.counter("ingest.mmap_bytes");
    fallback_reads = &registry.counter("ingest.fallback_reads");
    cache_hits = &registry.counter("ingest.cache_hits");
    cache_misses = &registry.counter("ingest.cache_misses");
    cache_invalidations = &registry.counter("ingest.cache_invalidations");
  }
};

/// Classifier sink for the fused record walk (`ChunkReader::scan`):
/// classifies records straight off the walk instead of staging
/// `net::FrameView`s, and hands off one `ProbeBatch` per `batch_frames`
/// frames — probes, probe order and counters are bit-identical to
/// `Sensor::classify_batch` over the same frames. The deliver callback
/// may move the batch away; buffers are re-armed either way.
class FusedClassifier {
 public:
  using Deliver = std::function<void(telescope::ProbeBatch&)>;

  FusedClassifier(const telescope::Telescope& telescope, std::size_t batch_frames,
                  Deliver deliver)
      : telescope_(&telescope),
        batch_frames_(batch_frames),
        deliver_(std::move(deliver)) {
    arm_batch();
  }

  /// One record, in capture order; the bytes are only read during the
  /// call.
  void consume(net::TimeUs timestamp_us, const std::uint8_t* data,
               std::uint32_t captured_length) {
    telescope::detail::classify_raw(*telescope_, timestamp_us, {data, captured_length},
                                    counters_, cursor_);
    if (++window_frames_ == batch_frames_) flush_batch();
  }

  /// Delivers the final partial batch (if any frames were consumed since
  /// the last flush). Call exactly once, after the walk ends.
  void finish() {
    if (window_frames_ > 0) flush_batch();
  }

  [[nodiscard]] const telescope::SensorCounters& counters() const noexcept {
    return counters_;
  }

 private:
  /// Sizes the columns to the window's worst case (all frames probes);
  /// steady state re-arms a recycled batch without allocating.
  void arm_batch() { cursor_ = telescope::detail::arm_cursor(batch_, 0, batch_frames_); }

  void flush_batch() {
    telescope::detail::resize_columns(batch_, cursor_.count);
    deliver_(batch_);
    window_frames_ = 0;
    arm_batch();
  }

  const telescope::Telescope* telescope_;
  std::size_t batch_frames_;
  Deliver deliver_;
  telescope::SensorCounters counters_;
  std::size_t window_frames_ = 0;  ///< frames consumed since last flush
  telescope::ProbeBatch batch_;
  telescope::detail::ProbeCursor cursor_{};
};

/// Everything one scan worker produced, merged on the caller's thread.
struct ChunkOutcome {
  std::vector<telescope::ProbeBatch> batches;
  telescope::SensorCounters counters;
  std::uint64_t frames = 0;
  pcap::ReadStatus status = pcap::ReadStatus::kEndOfFile;
  std::exception_ptr error;
};

/// Hands chunk outcomes from scan workers back to the caller. Slots are
/// disjoint (worker i writes only slot i), so the lock is uncontended in
/// practice; taking it anyway makes the handoff visible to the
/// thread-safety analysis instead of leaning on the join alone.
class ChunkMerge {
 public:
  explicit ChunkMerge(std::size_t chunks) : outcomes_(chunks) {}

  void publish(std::size_t index, ChunkOutcome outcome) SYNSCAN_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    outcomes_[index] = std::move(outcome);
  }

  /// Moves every outcome out, in chunk (capture) order. Call once,
  /// after all workers are joined.
  [[nodiscard]] std::vector<ChunkOutcome> take() SYNSCAN_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    return std::move(outcomes_);
  }

 private:
  Mutex mutex_;
  std::vector<ChunkOutcome> outcomes_ SYNSCAN_GUARDED_BY(mutex_);
};

}  // namespace

IngestResult ingest_capture(const std::filesystem::path& path,
                            const telescope::Telescope& telescope,
                            const IngestOptions& options, const ProbeBatchSink& sink) {
  const IngestMetrics metrics;
  IngestResult result;
  const auto batch_frames = std::max<std::size_t>(std::size_t{1}, options.batch_frames);

  // Streams and FIFOs have no stable identity, so they are never cached.
  const auto identity =
      options.use_cache ? cache_identity(path) : std::optional<CacheIdentity>{};
  const auto cache_path = options.cache_path.empty()
                              ? std::filesystem::path(path.native() + ".spc")
                              : options.cache_path;

  if (identity) {
    std::error_code ec;
    if (std::filesystem::exists(cache_path, ec) && !ec) {
      if (auto reader = ProbeCacheReader::open(cache_path, *identity)) {
        telescope::ProbeBatch batch;
        while (reader->next_chunk(batch)) {
          ++result.batches;
          if (metrics.batches != nullptr) metrics.batches->add();
          sink(batch);
        }
        result.sensor = reader->sensor();
        result.frames = reader->frame_count();
        result.status = reader->terminal_status();
        result.from_cache = true;
        if (metrics.cache_hits != nullptr) metrics.cache_hits->add();
        return result;
      }
      if (metrics.cache_invalidations != nullptr) metrics.cache_invalidations->add();
    } else if (metrics.cache_misses != nullptr) {
      metrics.cache_misses->add();
    }
  }

  // Cold path: decode + classify, refreshing the cache along the way.
  // Cache creation is best-effort (a read-only capture directory must
  // not fail the run).
  std::optional<ProbeCacheWriter> writer;
  if (identity) {
    try {
      writer.emplace(cache_path, *identity);
    } catch (const std::exception&) {
    }
  }

  const auto deliver_batch = [&](telescope::ProbeBatch& batch) {
    ++result.batches;
    if (metrics.batches != nullptr) metrics.batches->add();
    if (batch.empty()) return;
    if (writer) writer->append(batch);
    sink(batch);
  };

  /// Serial fused scan: one walk over the whole record region, records
  /// classified straight off the walk.
  const auto run_serial = [&](pcap::MappedReader& reader) {
    result.chunks = 1;
    FusedClassifier classifier(telescope, batch_frames, deliver_batch);
    pcap::ChunkReader chunk(
        reader.bytes(), reader.info(),
        {std::min<std::size_t>(pcap::kGlobalHeaderSize, reader.bytes().size()),
         reader.bytes().size()});
    result.status = chunk.scan([&classifier](net::TimeUs timestamp_us,
                                             const std::uint8_t* data,
                                             std::uint32_t captured_length) {
      classifier.consume(timestamp_us, data, captured_length);
    });
    classifier.finish();
    result.frames = chunk.frames_read();
    result.sensor = classifier.counters();
  };

  /// Parallel fused scan: each chunk is walked and classified by its own
  /// thread into private batches, then everything is merged back on this
  /// thread in capture order. A defect stops `partition_records` from
  /// splitting further, so non-final chunks always end kEndOfFile; the
  /// merge enforces the serial contract anyway — the first non-EOF
  /// status is terminal and every later chunk is discarded.
  const auto run_chunked = [&](pcap::MappedReader& reader,
                               const std::vector<pcap::ScanChunk>& chunks) {
    ChunkMerge merge(chunks.size());
    {
      std::vector<std::thread> workers;
      workers.reserve(chunks.size());
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        workers.emplace_back([&telescope, &reader, &chunks, &merge, batch_frames, i] {
          // Workers accumulate into a private outcome and publish it
          // whole; nothing shared is touched until the final handoff.
          ChunkOutcome outcome;
          try {
            FusedClassifier classifier(telescope, batch_frames,
                                       [&outcome](telescope::ProbeBatch& batch) {
                                         outcome.batches.push_back(std::move(batch));
                                       });
            pcap::ChunkReader chunk(reader.bytes(), reader.info(), chunks[i]);
            outcome.status = chunk.scan([&classifier](net::TimeUs timestamp_us,
                                                      const std::uint8_t* data,
                                                      std::uint32_t captured_length) {
              classifier.consume(timestamp_us, data, captured_length);
            });
            classifier.finish();
            outcome.frames = chunk.frames_read();
            outcome.counters = classifier.counters();
          } catch (...) {
            outcome.error = std::current_exception();
          }
          merge.publish(i, std::move(outcome));
        });
      }
      for (auto& worker : workers) worker.join();
    }
    result.chunks = chunks.size();
    auto outcomes = merge.take();
    for (auto& outcome : outcomes) {
      if (outcome.error) std::rethrow_exception(outcome.error);
      for (auto& batch : outcome.batches) deliver_batch(batch);
      result.frames += outcome.frames;
      result.sensor.add(outcome.counters);
      if (outcome.status != pcap::ReadStatus::kEndOfFile) {
        result.status = outcome.status;
        break;
      }
    }
  };

  const auto run_cold = [&](pcap::MappedReader& reader) {
    auto want = options.scan_chunks;
    if (want == 0) {
      want = std::max<std::size_t>(std::size_t{1}, std::thread::hardware_concurrency());
    }
    want = std::min(want, kMaxScanChunks);
    if (want > 1 && reader.byte_size() >= kMinChunkedBytes) {
      if (auto chunks = reader.partition(want); chunks.size() > 1) {
        run_chunked(reader, chunks);
      } else {
        run_serial(reader);
      }
    } else {
      run_serial(reader);
    }
    if (metrics.chunks != nullptr) metrics.chunks->add(result.chunks);
  };

  if (pcap::looks_like_pcapng(path)) {
    // pcapng stays record-at-a-time (variable block framing), but the
    // frames are still classified in batches.
    auto reader = pcap::NgReader::open(path);
    if (metrics.fallback_reads != nullptr) metrics.fallback_reads->add();
    telescope::Sensor sensor(telescope);
    telescope::ProbeBatch batch;
    batch.reserve(batch_frames);
    std::vector<net::RawFrame> frames(batch_frames);
    std::vector<net::FrameView> views;
    views.reserve(batch_frames);
    for (;;) {
      auto status = pcap::ReadStatus::kOk;
      std::size_t filled = 0;
      while (filled < batch_frames &&
             (status = reader.next(frames[filled])) == pcap::ReadStatus::kOk) {
        ++filled;
      }
      if (filled > 0) {
        views.clear();
        for (std::size_t i = 0; i < filled; ++i) views.push_back(net::as_view(frames[i]));
        batch.clear();
        sensor.classify_batch(views, batch);
        result.frames += filled;
        deliver_batch(batch);
      }
      if (status != pcap::ReadStatus::kOk) {
        result.status = status;
        break;
      }
    }
    result.sensor = sensor.counters();
  } else if (!options.use_mmap) {
    std::ifstream stream(path, std::ios::binary);
    if (!stream.is_open()) {
      throw std::runtime_error("pcap: cannot open " + path.string());
    }
    auto reader = pcap::MappedReader::open_stream(stream);
    if (metrics.fallback_reads != nullptr) metrics.fallback_reads->add();
    run_cold(reader);
  } else {
    auto reader = pcap::MappedReader::open(path);
    result.mapped = reader.mapped();
    if (result.mapped) {
      if (metrics.mmap_bytes != nullptr) metrics.mmap_bytes->add(reader.byte_size());
    } else if (metrics.fallback_reads != nullptr) {
      metrics.fallback_reads->add();
    }
    run_cold(reader);
  }

  if (writer) {
    (void)writer->commit(result.frames, result.status, result.sensor);
  }
  return result;
}

}  // namespace synscan::core
