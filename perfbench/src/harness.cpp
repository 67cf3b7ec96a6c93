#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

#include "core/band_cnn.h"
#include "core/joint_model.h"
#include "core/lc_classifier.h"
#include "nn/conv2d.h"
#include "nn/highway.h"
#include "nn/linear.h"
#include "nn/sequential.h"
#include "stream/tier1.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"
#include "tensor/runtime.h"

namespace perfbench {

using namespace sne;

void Result::set(std::string key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  settings.push_back({std::move(key), buf, false});
}

void Result::set(std::string key, const std::string& value) {
  settings.push_back({std::move(key), value, true});
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double timed_setup(int repeats, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

namespace {
double g_warm_peak_rss_mb = 0.0;
}  // namespace

std::vector<double> timed_reps(double seconds, int min_reps,
                               const std::function<void(int)>& rep) {
  rep(0);
  if (g_warm_peak_rss_mb == 0.0) g_warm_peak_rss_mb = peak_rss_mb();
  std::vector<double> times;
  const auto start = Clock::now();
  for (int k = 1;
       static_cast<int>(times.size()) < min_reps || seconds_since(start) < seconds;
       ++k) {
    const auto t0 = Clock::now();
    rep(k);
    times.push_back(seconds_since(t0));
  }
  std::fprintf(stderr, "perfbench: rep seconds");
  for (double t : times) std::fprintf(stderr, " %.4f", t);
  std::fprintf(stderr, "\n");
  return times;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double warm_peak_rss_mb() { return g_warm_peak_rss_mb; }

void pin_runtime(int pool_width, std::int64_t prefetch) {
  RuntimeConfig rc = RuntimeConfig::current();
  rc.threads = pool_width;
  rc.prefetch = prefetch;
  rc.trace = false;
  rc.trace_path.clear();
  RuntimeConfig::set_current(rc);
}

CpuPin::CpuPin(int skip, int count) {
  static const std::vector<int> allowed = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return v;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) v.push_back(c);
    }
    return v;
  }();
  CPU_ZERO(&saved_);
  const int n = static_cast<int>(allowed.size());
  if (n <= skip + count || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  cpu_set_t pin;
  CPU_ZERO(&pin);
  std::string cpus;
  for (int i = n - skip - count; i < n - skip; ++i) {
    CPU_SET(allowed[i], &pin);
    if (!cpus.empty()) cpus += ',';
    cpus += std::to_string(allowed[i]);
  }
  if (sched_setaffinity(0, sizeof pin, &pin) == 0) cpus_ = cpus;
}

CpuPin::~CpuPin() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof saved_, &saved_);
}

// ---- traces ----------------------------------------------------------

namespace {

/// Per-call wall and self time (ms) of every span named `name`.
struct SpanTimes {
  std::vector<double> total_ms;
  std::vector<double> self_ms;
};

SpanTimes span_times(const std::vector<obs::SpanRecord>& spans,
                     const char* name) {
  // Spans on one thread nest properly, so after sorting by start (outer
  // first on ties) a stack of still-open spans gives each span's direct
  // parent.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const obs::SpanRecord& x = spans[a];
    const obs::SpanRecord& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.dur_ns > y.dur_ns;
  });
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  std::vector<std::size_t> open;
  for (std::size_t idx : order) {
    const obs::SpanRecord& s = spans[idx];
    while (!open.empty()) {
      const obs::SpanRecord& top = spans[open.back()];
      if (top.tid == s.tid && s.start_ns + s.dur_ns <= top.start_ns + top.dur_ns) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += s.dur_ns;
    open.push_back(idx);
  }
  SpanTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) != 0) continue;
    out.total_ms.push_back(static_cast<double>(spans[i].dur_ns) * 1e-6);
    out.self_ms.push_back(static_cast<double>(spans[i].dur_ns - child_ns[i]) *
                          1e-6);
  }
  return out;
}

}  // namespace

void add_span_metrics(Result& r, const std::vector<obs::SpanRecord>& spans,
                      const char* span, const std::string& metric) {
  const SpanTimes t = span_times(spans, span);
  std::string base = metric;
  if (base.size() > 3 && base.compare(base.size() - 3, 3, "_ms") == 0) {
    base.resize(base.size() - 3);
  }
  r.add(metric, median(t.total_ms), "ms");
  r.add(base + ".self_ms", median(t.self_ms), "ms");
}

bool write_trace(const Options& opt) {
  if (opt.trace_file.empty()) return true;
  return obs::write_chrome_trace(opt.trace_file);
}

// ---- work accounting -------------------------------------------------

namespace {

const nn::Module* inner_net(const nn::Module& m) {
  if (const auto* x = dynamic_cast<const core::BandCnn*>(&m)) return &x->net();
  if (const auto* x = dynamic_cast<const core::LcClassifier*>(&m)) {
    return &x->net();
  }
  if (const auto* x = dynamic_cast<const stream::Tier1Cnn*>(&m)) {
    return &x->net();
  }
  return nullptr;
}

template <typename Visit>
void walk(const nn::Module& m, const Shape& in, Visit& visit) {
  if (const auto* seq = dynamic_cast<const nn::Sequential*>(&m)) {
    Shape s = in;
    for (std::size_t i = 0; i < seq->size(); ++i) {
      walk(seq->layer(i), s, visit);
      s = seq->layer(i).infer_shape(s);
    }
  } else if (const nn::Module* net = inner_net(m)) {
    walk(*net, in, visit);
  } else if (const auto* joint = dynamic_cast<const core::JointModel*>(&m)) {
    // Five band-CNN applications per sample, then the classifier over
    // (magnitude, date) pairs.
    const std::int64_t n = in.at(0);
    const std::int64_t s = joint->config().cnn.input_size;
    walk(joint->band_cnn(), Shape{n * 5, 2, s, s}, visit);
    walk(joint->classifier(), Shape{n, 10}, visit);
  } else if (const auto* hw = dynamic_cast<const nn::Highway*>(&m)) {
    walk(hw->transform(), in, visit);
    walk(hw->gate(), in, visit);
  } else {
    visit(m, in);
  }
}

}  // namespace

double forward_flops(const nn::Module& m, const Shape& in) {
  double macs = 0.0;
  auto visit = [&](const nn::Module& layer, const Shape& s) {
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer)) {
      const Shape out = conv->infer_shape(s);
      macs += static_cast<double>(shape_numel(out)) *
              static_cast<double>(conv->in_channels() * conv->kernel() *
                                  conv->kernel());
    } else if (const auto* lin = dynamic_cast<const nn::Linear*>(&layer)) {
      const double rows = static_cast<double>(shape_numel(s)) /
                          static_cast<double>(lin->in_features());
      macs += rows * static_cast<double>(lin->in_features() *
                                         lin->out_features());
    }
  };
  walk(m, in, visit);
  return 2.0 * macs;
}

std::vector<GemmShape> conv_gemm_shapes(const nn::Module& m, const Shape& in) {
  std::vector<GemmShape> shapes;
  auto visit = [&](const nn::Module& layer, const Shape& s) {
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer)) {
      const Shape out = conv->infer_shape(s);
      shapes.push_back({conv->out_channels(), out.at(2) * out.at(3),
                        conv->in_channels() * conv->kernel() * conv->kernel()});
    }
  };
  walk(m, in, visit);
  return shapes;
}

double sgemm_gflops(const std::vector<GemmShape>& shapes, double seconds) {
  Rng rng(42);
  std::vector<Tensor> a, b, c;
  double flops_per_pass = 0.0;
  for (const GemmShape& s : shapes) {
    a.push_back(Tensor::rand_uniform({s.m, s.k}, rng, -1.0f, 1.0f));
    b.push_back(Tensor::rand_uniform({s.k, s.n}, rng, -1.0f, 1.0f));
    c.emplace_back(Shape{s.m, s.n});
    flops_per_pass += 2.0 * static_cast<double>(s.m * s.n * s.k);
  }
  auto pass = [&] {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const GemmShape& s = shapes[i];
      sgemm(s.m, s.n, s.k, 1.0f, a[i].data(), b[i].data(), 0.0f, c[i].data());
    }
  };
  pass();
  std::vector<double> rates;
  for (int round = 0; round < 5; ++round) {
    std::int64_t passes = 0;
    const auto t0 = Clock::now();
    do {
      pass();
      ++passes;
    } while (seconds_since(t0) < seconds / 5.0);
    rates.push_back(flops_per_pass * static_cast<double>(passes) /
                    seconds_since(t0) * 1e-9);
  }
  return median(rates);
}

// ---- output ----------------------------------------------------------

void add_fingerprint(Result& r, const Options& opt, int pool_width,
                     std::int64_t prefetch) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int allowed =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
  std::string isa;
  const auto flag = [&](bool on, const char* name) {
    if (!on) return;
    if (!isa.empty()) isa += ',';
    isa += name;
  };
  __builtin_cpu_init();
  flag(__builtin_cpu_supports("avx2"), "avx2");
  flag(__builtin_cpu_supports("fma"), "fma");
  flag(__builtin_cpu_supports("avx512f"), "avx512f");
  flag(__builtin_cpu_supports("avx512bw"), "avx512bw");
  flag(__builtin_cpu_supports("avx512vl"), "avx512vl");
  flag(__builtin_cpu_supports("avx512vnni"), "avx512vnni");
  flag(__builtin_cpu_supports("avxvnni"), "avxvnni");

  r.set("workload", opt.workload);
  r.set("seed", static_cast<double>(opt.seed));
  r.set("seconds", opt.seconds);
  r.set("trace", opt.trace ? 1.0 : 0.0);
  r.set("cores_online", static_cast<double>(std::thread::hardware_concurrency()));
  r.set("cores_allowed", static_cast<double>(allowed));
  r.set("isa", isa);
  r.set("gemm_tier", gemm_tier_name(gemm_tier()));
  r.set("compiler", std::string("gcc ") + __VERSION__);
  r.set("pool_width", static_cast<double>(pool_width));
  r.set("prefetch", static_cast<double>(prefetch));
}

void print_result(const Result& r) {
  std::string fp = "{\"fingerprint\": {";
  for (std::size_t i = 0; i < r.settings.size(); ++i) {
    const Setting& s = r.settings[i];
    if (i > 0) fp += ", ";
    fp += "\"" + s.key + "\": ";
    fp += s.text ? "\"" + s.value + "\"" : s.value;
  }
  fp += "}}";
  std::printf("%s\n", fp.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.failed == 0 && r.attempted > 0 ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
