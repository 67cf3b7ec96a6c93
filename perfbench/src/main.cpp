// perfbench — the repository's benchmark program. One workload per
// process:
//
//   perfbench --workload train_band_cnn|serve_joint|night_cascade
//             --seed N --seconds S --trace 0|1
//             [--trace-file PATH] [--work-dir DIR] [--tiny]
//             [--corrupt-reference]
//
// --trace 0 prints the end-to-end metrics, every one of them for every
// workload: each is the workload's own phase measured under a shared name
// (throughput_per_s is samples, requests or alerts per second). --trace 1
// runs the workload untraced and then traced, writes the chrome trace to
// --trace-file and prints every per-layer metric: the layers on the
// workload's own path at full size, the rest from a tiny-size probe of
// the workload that owns them (see perfbench/README.md). The last stdout
// line is the result JSON: {"correct", "attempted", "failed", "metrics"}.
// --tiny shrinks every size for the self-test; --corrupt-reference
// poisons one reference score so the self-test can see the check fail.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (a == "--trace") {
      opt.trace = value() != "0";
    } else if (a == "--trace-file") {
      opt.trace_file = value();
    } else if (a == "--work-dir") {
      opt.work_dir = value();
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--corrupt-reference") {
      opt.corrupt_reference = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

using Run = perfbench::Result (*)(const perfbench::Options&);

Run workload_fn(const std::string& name) {
  if (name == "train_band_cnn") return perfbench::run_train;
  if (name == "serve_joint") return perfbench::run_serve;
  if (name == "night_cascade") return perfbench::run_night;
  usage("--workload must be train_band_cnn, serve_joint or night_cascade");
}

/// Adds the per-layer metrics `r` lacks from tiny-size traced runs of the
/// other workloads, so every workload's traced run prints every metric.
/// Their correctness checks count in attempted/failed like the
/// workload's own.
void add_probed_layers(perfbench::Result& r, const perfbench::Options& opt) {
  std::string probed;
  for (const char* other : {"train_band_cnn", "serve_joint", "night_cascade"}) {
    if (opt.workload == other) continue;
    perfbench::Options o = opt;
    o.workload = other;
    o.tiny = true;
    o.seconds = 0.5;
    o.trace_file.clear();
    o.corrupt_reference = false;
    const perfbench::Result p = workload_fn(other)(o);
    r.attempted += p.attempted;
    r.failed += p.failed;
    for (const perfbench::Metric& m : p.metrics) {
      const bool have = std::any_of(r.metrics.begin(), r.metrics.end(),
                                    [&](const auto& x) { return x.name == m.name; });
      if (!have) r.metrics.push_back(m);
    }
    probed += probed.empty() ? other : std::string(",") + other;
  }
  r.set("tiny_layer_probes", probed);
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  try {
    perfbench::Result r = workload_fn(opt.workload)(opt);
    if (opt.trace) add_probed_layers(r, opt);
    for (const perfbench::Metric& m : r.metrics) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "perfbench: %s is not finite\n", m.name.c_str());
        return 1;
      }
    }
    perfbench::print_result(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
