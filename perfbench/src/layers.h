// Traced-run helpers: the layer pass and the sequence decomposition.
#pragma once

#include <filesystem>
#include <vector>

#include "common.h"
#include "trace.h"

namespace perfbench {

/// Runs every layer once on `capture`, each timed by a span around its
/// public entry point, and sets the per-layer metrics the pass owns:
/// an isolated `pcap::MappedReader` walk with `Sensor::classify_batch`,
/// a cold pinned-worker analysis (ingest, tracker, observers) writing a
/// private `.spc`, a cache-only re-read, emission, a shard analysis
/// with its `.spr` save and load and a one-shard merge, in-process query
/// execution, and a daemon preloaded with the capture under a short
/// open-loop read mix. Scratch files go to `dir`; spans are appended to
/// `spans`. Failed checks add to `failed`.
void layer_pass(const std::filesystem::path& capture, const std::filesystem::path& dir,
                std::uint64_t seed, Metrics& metrics, std::vector<trace::Span>& spans,
                std::uint64_t& attempted, std::uint64_t& failed);

/// Sets trace.wall_s, the self.<layer>_share metrics and
/// trace.unattributed_share from the traced sequence repetitions (the
/// root span ids in `roots`), and trace.overhead_share from the median
/// traced and untraced walls.
void decomposition_metrics(const std::vector<trace::Span>& spans,
                           const std::vector<std::uint32_t>& roots,
                           const std::vector<double>& traced_s,
                           const std::vector<double>& untraced_s, Metrics& metrics);

/// Per-layer metrics that only some workloads produce, at their
/// not-exercised values; workloads overwrite what they measure.
void default_sequence_metrics(Metrics& metrics);

}  // namespace perfbench
