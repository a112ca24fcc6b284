#include "core/pipeline.h"

#include <algorithm>

#include "obs/timer.h"

namespace synscan::core {

Pipeline::Pipeline(const telescope::Telescope& telescope, TrackerConfig tracker_config)
    : telescope_(&telescope),
      sensor_(telescope),
      tracker_(tracker_config, telescope.monitored_count(),
               [this](Campaign&& campaign) { campaigns_.push_back(std::move(campaign)); }) {
  if (obs::enabled()) {
    auto& registry = obs::MetricsRegistry::global();
    obs_frames_ = &registry.counter("pipeline.frames");
    obs_probes_ = &registry.counter("pipeline.probes");
    obs_batches_ = &registry.counter("pipeline.batches");
  }
}

void Pipeline::add_observer(ProbeObserver& observer) { observers_.push_back(&observer); }

void Pipeline::feed_frame(const net::RawFrame& frame) {
  if (obs_frames_ != nullptr) obs_frames_->add();
  telescope::ScanProbe probe;
  if (sensor_.classify(frame, probe) == telescope::FrameClass::kScanProbe) {
    feed_probe(probe);
  }
}

void Pipeline::feed_decoded(net::TimeUs timestamp_us, const net::DecodedFrame& frame) {
  if (obs_frames_ != nullptr) obs_frames_->add();
  telescope::ScanProbe probe;
  if (sensor_.classify_decoded(timestamp_us, frame, probe) ==
      telescope::FrameClass::kScanProbe) {
    feed_probe(probe);
  }
}

void Pipeline::feed_probe(const telescope::ScanProbe& probe) {
  if (obs_probes_ != nullptr) obs_probes_->add();
  for (auto* observer : observers_) observer->on_probe(probe);
  tracker_.feed(probe);
}

void Pipeline::feed_probes(const telescope::ProbeBatch& batch) {
  const auto n = batch.size();
  if (n == 0) return;
  // The identity slice [0, n) is built once and reused; ingest batches
  // have a fixed row budget, so this settles after the first call.
  if (identity_rows_.size() < n) {
    const auto old = static_cast<std::uint32_t>(identity_rows_.size());
    identity_rows_.resize(n);
    for (std::uint32_t i = old; i < n; ++i) identity_rows_[i] = i;
  }
  feed_probe_rows(batch, std::span(identity_rows_.data(), n));
}

void Pipeline::feed_probe_rows(const telescope::ProbeBatch& batch,
                               std::span<const std::uint32_t> rows) {
  if (rows.empty()) return;
  if (obs_probes_ != nullptr) obs_probes_->add(rows.size());
  if (obs_batches_ != nullptr) obs_batches_->add();
  for (auto* observer : observers_) observer->observe_batch(batch, rows);
  tracker_.feed_batch(batch, rows);
}

void Pipeline::absorb_sensor_counters(const telescope::SensorCounters& counters) {
  absorbed_.add(counters);
}

PipelineResult Pipeline::finish(net::TimeUs stream_end) {
  {
    obs::ScopedTimer finish_timer("pipeline.finish");
    tracker_.finish(stream_end);
  }
  PipelineResult result;
  result.campaigns = std::move(campaigns_);
  // Canonical order, matching ParallelAnalyzer::finish(): closure order
  // depends on sweep scheduling and flow-table layout; reports must not.
  std::sort(result.campaigns.begin(), result.campaigns.end(),
            [](const Campaign& a, const Campaign& b) {
              if (a.first_seen_us != b.first_seen_us) {
                return a.first_seen_us < b.first_seen_us;
              }
              return a.source < b.source;
            });
  std::uint64_t next_id = 1;
  for (auto& campaign : result.campaigns) campaign.id = next_id++;
  result.sensor = sensor_.counters();
  result.sensor.add(absorbed_);
  result.tracker = tracker_.counters();
  campaigns_.clear();
  return result;
}

}  // namespace synscan::core
