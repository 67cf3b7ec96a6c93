// workloads.h — the benchmark's three workloads. Each runs one phase of
// the system in its own process and reports that phase under the shared
// end-to-end names (setup_s, peak_rss_mb, throughput_per_s,
// latency_p50_ms) and, traced, its own layers (see perfbench/README.md).
#pragma once

#include "harness.h"

namespace perfbench {

Result run_train(const Options& opt);  ///< train_band_cnn
Result run_serve(const Options& opt);  ///< serve_joint
Result run_night(const Options& opt);  ///< night_cascade

}  // namespace perfbench
