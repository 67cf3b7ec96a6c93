// harness.h — the shared machinery of the benchmark program: run
// options, the result every workload returns, timing and order
// statistics, span self-time analysis over obs::snapshot_spans(), FLOP
// counting from layer shapes, the sgemm probe, and the machine/run
// fingerprint.
//
// Every layer is measured from outside: the workloads call the public
// functions of nn, data, tensor, infer, core, serve and stream and wrap
// those calls in the benchmark's own obs::Span records. Nothing under
// src/ is changed for the benchmark.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "nn/module.h"
#include "obs/obs.h"
#include "tensor/tensor.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;   ///< chrome trace written by the traced run
  std::string work_dir = ".";  ///< scratch files (snapshot, socket)
  bool tiny = false;        ///< self-test sizes
  bool corrupt_reference = false;  ///< self-test: poison one reference
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One key of the run fingerprint; `text` values are quoted in JSON.
struct Setting {
  std::string key;
  std::string value;
  bool text = false;
};

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Setting> settings;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void set(std::string key, double value);
  void set(std::string key, const std::string& value);
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Order statistics (the input is taken by value and sorted).
double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; +inf entries sort last.
double quantile(std::vector<double> v, double q);

/// Deterministic 64-bit mix (splitmix64 finalizer) for deriving the
/// sub-seeds of a run from --seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

/// Times `setup` `repeats` times and returns the median in seconds. The
/// state the last call built is what the workload keeps.
double timed_setup(int repeats, const std::function<void()>& setup);

/// Runs `rep` once untimed (warm-up), then repeatedly until `seconds`
/// have passed and at least `min_reps` reps ran. Returns each timed rep's
/// wall time in seconds. rep(k) receives the rep index (0 = warm-up).
std::vector<double> timed_reps(double seconds, int min_reps,
                               const std::function<void(int)>& rep);

/// Process peak resident set size in MiB so far.
double peak_rss_mb();

/// Peak RSS as of the end of the first warm-up rep, the value reported as
/// peak_rss_mb. Set-up and the warm-up make every allocation the timed
/// reps make; later reps only repeat them, and their extra high-water
/// marks measured how glibc happened to reuse freed memory across threads
/// (37-50 MB for one serve seed), not the program's footprint.
double warm_peak_rss_mb();

/// Pins the shared thread pool's width and the default prefetch depth,
/// and leaves telemetry capture off.
void pin_runtime(int pool_width, std::int64_t prefetch);

/// Pins the calling thread for the guard's lifetime and then restores its
/// CPU set; threads it starts meanwhile inherit the pin. The CPUs come
/// from the end of the set the process was allowed when the first guard
/// was made (cpu 0 takes the most interrupts): skip the last `skip`, take
/// the `count` before them. Pins nothing unless that set has more than
/// skip + count CPUs.
class CpuPin {
 public:
  explicit CpuPin(int skip = 0, int count = 1);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;
  /// The pinned CPUs as "a,b", or "" when nothing was pinned.
  const std::string& cpus() const { return cpus_; }

 private:
  cpu_set_t saved_;
  std::string cpus_;
};

// ---- traces ----------------------------------------------------------

/// Adds `<metric>` (median per-call wall time) and `<metric without
/// _ms>.self_ms` (median per-call self time) for spans named `span`.
/// Self time is the span's duration minus the time its direct child
/// spans on the same thread cover.
void add_span_metrics(Result& r, const std::vector<sne::obs::SpanRecord>& spans,
                      const char* span, const std::string& metric);

/// Writes the chrome trace explicitly; returns false on I/O failure.
bool write_trace(const Options& opt);

// ---- work accounting -------------------------------------------------

/// Multiply-add FLOPs (2 per MAC) of one forward pass of `m` over an
/// input of `in` (batch axis included), counted from layer shapes for
/// Conv2d, Linear and Highway layers, recursing into Sequential stacks
/// and the repository's model wrappers.
double forward_flops(const sne::nn::Module& m, const sne::Shape& in);

/// Conv-as-GEMM shapes (m = out channels, n = output pixels per sample,
/// k = in channels · kernel²) of every Conv2d in `m` for input `in`.
struct GemmShape {
  std::int64_t m, n, k;
};
std::vector<GemmShape> conv_gemm_shapes(const sne::nn::Module& m,
                                        const sne::Shape& in);

/// Achieved sgemm GFLOP/s over the given shapes (median of 5 rounds of
/// ~`seconds`/5 each, on the current pool width).
double sgemm_gflops(const std::vector<GemmShape>& shapes, double seconds);

// ---- output ----------------------------------------------------------

/// Adds the machine fingerprint (cores, ISA flags, GEMM tier, compiler)
/// and the common run settings to r.settings.
void add_fingerprint(Result& r, const Options& opt, int pool_width,
                     std::int64_t prefetch);

/// Prints the fingerprint line, a human-readable metric table on
/// stdout, and the result JSON as the final line.
void print_result(const Result& r);

}  // namespace perfbench
