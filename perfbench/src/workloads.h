// The three workloads. Each builds its inputs from the run seed, sets
// up, computes its reference, then either measures (trace off) or runs
// the traced sequence and the layer pass (trace on).
#pragma once

#include "common.h"

namespace perfbench {

[[nodiscard]] RunResult run_capture_cold(const RunArgs& args);
[[nodiscard]] RunResult run_decade_refresh(const RunArgs& args);
[[nodiscard]] RunResult run_daemon_mix(const RunArgs& args);

}  // namespace perfbench
