// The end-to-end pipeline: frames -> sensor -> campaign tracker and
// streaming observers -> finalized campaigns.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/observers.h"
#include "core/tracker.h"
#include "obs/metrics.h"
#include "telescope/probe_batch.h"
#include "telescope/sensor.h"
#include "telescope/telescope.h"

namespace synscan::core {

/// Everything a pipeline run produces.
struct PipelineResult {
  std::vector<Campaign> campaigns;
  telescope::SensorCounters sensor;
  TrackerCounters tracker;
};

/// Single-pass analysis driver. Attach observers, feed frames (or
/// pre-sensed probes), then call `finish()` exactly once.
class Pipeline {
 public:
  Pipeline(const telescope::Telescope& telescope, TrackerConfig tracker_config = {});
  /// The pipeline keeps a pointer; a temporary telescope would dangle.
  Pipeline(const telescope::Telescope&&, TrackerConfig = {}) = delete;

  /// Registers a streaming observer; not owned, must outlive the run.
  void add_observer(ProbeObserver& observer);

  /// Feeds one raw frame through sensor, observers and tracker.
  void feed_frame(const net::RawFrame& frame);

  /// Feeds an already decoded frame (generator fast path).
  void feed_decoded(net::TimeUs timestamp_us, const net::DecodedFrame& frame);

  /// Feeds a probe that already passed a sensor (e.g. loaded from a
  /// probe log). Observers and tracker see it; sensor counters do not.
  void feed_probe(const telescope::ScanProbe& probe);

  /// Feeds a whole batch of pre-sensed probes (the batched ingest path).
  /// Observers see the batch through `observe_batch`; the tracker feeds
  /// row by row (its state machine is inherently per-probe).
  void feed_probes(const telescope::ProbeBatch& batch);

  /// Feeds a slice of a batch: the rows listed in `rows`, in order. This
  /// is the parallel path — workers receive index slices into a shared
  /// batch instead of per-probe copies. The batch (and `rows`) are only
  /// borrowed for the duration of the call.
  void feed_probe_rows(const telescope::ProbeBatch& batch,
                       std::span<const std::uint32_t> rows);

  /// Folds counters from an external front-end sensor (the batched
  /// ingest classifies on the feeder, not here) into `finish()`'s result.
  void absorb_sensor_counters(const telescope::SensorCounters& counters);

  /// Flushes the tracker and returns all results. Campaigns come back in
  /// canonical order — by first packet, then source, ids re-issued 1..N —
  /// the same order `ParallelAnalyzer::finish()` produces, so reports are
  /// identical whatever the worker count. `stream_end` is forwarded to
  /// `CampaignTracker::finish` (a sharded worker passes the whole
  /// stream's last timestamp).
  [[nodiscard]] PipelineResult finish(net::TimeUs stream_end = 0);

  /// Carry mode only (TrackerConfig::carry_boundary_flows): moves out the
  /// boundary flow segments the tracker exported. Call after `finish()`.
  [[nodiscard]] std::vector<FlowSegment> take_carried_segments() {
    return tracker_.take_boundary_segments();
  }

  /// Maximum probe timestamp the tracker observed (the stream's "now").
  [[nodiscard]] net::TimeUs max_timestamp() const noexcept { return tracker_.now(); }

  [[nodiscard]] const telescope::Telescope& telescope() const noexcept { return *telescope_; }
  [[nodiscard]] const telescope::SensorCounters& sensor_counters() const noexcept {
    return sensor_.counters();
  }

 private:
  const telescope::Telescope* telescope_;
  telescope::Sensor sensor_;
  telescope::SensorCounters absorbed_;  ///< external sensor counters
  std::vector<Campaign> campaigns_;
  CampaignTracker tracker_;
  std::vector<ProbeObserver*> observers_;
  /// Identity row indices [0, n) for full-batch feeds; grown on demand
  /// and reused so `feed_probes` allocates only when batches grow.
  std::vector<std::uint32_t> identity_rows_;
  // Resolved once at construction iff obs is enabled; null pointers keep
  // the per-frame cost at one predictable branch when it is off.
  obs::Counter* obs_frames_ = nullptr;
  obs::Counter* obs_probes_ = nullptr;
  obs::Counter* obs_batches_ = nullptr;
};

}  // namespace synscan::core
