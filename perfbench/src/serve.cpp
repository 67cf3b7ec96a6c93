// serve_joint — a ScoreServer with one worker serves the joint image→type
// model (stamp 36) over a Unix socket. Requests cycle through a pool of
// distinct rendered joint rows, and every response must be bitwise equal
// to a direct JointSession score of the same row computed in set-up.
// Each rep runs three phases, each against a fresh server so its
// ServerStats are its own:
//
//   light     open loop, Poisson arrivals at a low fixed rate: batches
//             hold about one request and flush on the batcher deadline;
//   loaded    open loop, Poisson arrivals at about a third of one
//             worker's capacity: bursts queue behind the worker, so
//             batches start to fill (a higher rate amplified this
//             machine's speed swings into a p90 that did not repeat);
//   capacity  closed loop, one connection, fixed in-flight window and
//             request count: full batches back to back; three such
//             phases a rep, of which the rep keeps the median.
//
// Open-loop latency is timed from each request's due time, so a stalled
// generator or server is charged to later requests, and the generator's
// own lateness is reported. Rates are fixed constants, never derived
// from a measurement. Threads: the generator (main, busy-polling its
// socket, pinned to one CPU), the server's accept, reader and worker
// threads (pinned to two other CPUs, so none shares the generator's),
// pool width 1 — four in all.
#include <malloc.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/inference.h"
#include "core/joint_model.h"
#include "core/pipeline.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "sim/dataset_builder.h"
#include "tensor/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace sne;

namespace {

constexpr int kPoolWidth = 1;
constexpr std::int64_t kPrefetch = 0;
constexpr std::int64_t kStamp = 36;
constexpr std::int64_t kMaxBatch = 32;
constexpr std::int64_t kMaxDelayUs = 500;
constexpr std::int64_t kMaxQueue = 1024;
constexpr int kMmapThreshold = 128 * 1024;
constexpr int kCapacityPhases = 3;  ///< per rep; the rep keeps the median
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fixed load settings (BENCHMARK.json documents them; never tuned from a
/// measurement taken in the same run).
struct Load {
  double light_rps;
  std::int64_t light_n;
  double loaded_rps;
  std::int64_t loaded_n;
  double slo_ms;  ///< latency limit for serve.loaded.slo_share
  std::int64_t window;  ///< capacity phase in-flight requests
  std::int64_t capacity_n;
  std::int64_t rows;    ///< distinct rendered rows requests cycle through
  int setups;
};

struct ServeSetup {
  std::unique_ptr<sim::SnDataset> sims;
  std::unique_ptr<core::JointModel> joint;
  Tensor rows;  ///< [rows, dim]
  std::vector<float> reference;  ///< direct JointSession score per row
  double render_ms = 0.0;
  double compile_ms = 0.0;
};

ServeSetup set_up(const Options& opt, const Load& load) {
  ServeSetup s;
  sim::SnDataset::Config cfg;
  cfg.num_samples = load.rows;
  cfg.seed = mix(opt.seed, 11);
  cfg.catalog.count = 150;
  s.sims = std::make_unique<sim::SnDataset>(sim::SnDataset::build(cfg));
  Rng rng(7);  // the served model is fixed; --seed picks the requests
  core::JointModelConfig jcfg;
  jcfg.cnn.input_size = kStamp;
  s.joint = std::make_unique<core::JointModel>(jcfg, rng);

  std::vector<std::int64_t> samples(static_cast<std::size_t>(load.rows));
  for (std::int64_t i = 0; i < load.rows; ++i) samples[i] = i;
  const nn::LazyDataset rows =
      core::make_joint_dataset(*s.sims, samples, 0, kStamp, jcfg.features);
  const auto t0 = Clock::now();
  s.rows = rows.get_batch(samples, 0, samples.size()).x;
  s.render_ms = seconds_since(t0) * 1e3;

  const auto t1 = Clock::now();
  infer::JointSession session = core::make_session(*s.joint);
  s.compile_ms = seconds_since(t1) * 1e3;
  const std::int64_t dim = s.rows.extent(1);
  Tensor one({1, dim});
  Tensor out;
  for (std::int64_t i = 0; i < load.rows; ++i) {
    std::memcpy(one.data(), s.rows.data() + i * dim, sizeof(float) * dim);
    session.run(one, out);
    s.reference.push_back(out.data()[0]);
  }
  return s;
}

struct PhaseResult {
  std::vector<double> latency_ms;  ///< per request sent; +inf = failed
  std::vector<double> late_ms;     ///< generator lateness per send
  double seconds = 0.0;            ///< closed loop: wall time of the phase
  serve::ServerStats stats;
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() failed: " + path);
  }
  return fd;
}

class Phases {
 public:
  Phases(const Options& opt, const Load& load, const ServeSetup& st,
         std::string socket_path)
      : opt_(opt), load_(load), st_(st), path_(std::move(socket_path)) {
    Rng rng(mix(opt.seed, 13));
    order_.resize(static_cast<std::size_t>(load.rows));
    for (std::int64_t i = 0; i < load.rows; ++i) order_[i] = i;
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.uniform_index(i)]);
    }
    light_due_ = poisson_schedule(load.light_rps, load.light_n, 14);
    loaded_due_ = poisson_schedule(load.loaded_rps, load.loaded_n, 15);
  }

  PhaseResult light() { return open_loop(light_due_); }
  PhaseResult loaded() { return open_loop(loaded_due_); }

  PhaseResult capacity() {
    PhaseResult pr;
    Server server(*this);
    serve::ScoreClient client = serve::ScoreClient::connect_unix(path_);
    const std::int64_t n = load_.capacity_n;
    pr.latency_ms.assign(static_cast<std::size_t>(n), kInf);
    std::vector<Clock::time_point> sent_at(static_cast<std::size_t>(n));
    std::int64_t sent = 0;
    std::int64_t received = 0;
    const auto t0 = Clock::now();
    try {
      while (received < n) {
        while (sent < n && sent - received < load_.window) {
          obs::Span span("serve.client.send", sent);
          sent_at[sent] = Clock::now();
          client.send_request(static_cast<std::uint64_t>(sent), row(sent));
          ++sent;
        }
        serve::ScoreResponse resp;
        {
          obs::Span span("serve.client.recv", received);
          resp = client.recv_response();
        }
        const auto now = Clock::now();
        ++received;
        const auto id = static_cast<std::int64_t>(resp.id);
        if (id < 0 || id >= n || !resp.ok || resp.scores.size() != 1) continue;
        if (matches(id, resp.scores[0])) {
          pr.latency_ms[id] =
              std::chrono::duration<double, std::milli>(now - sent_at[id]).count();
        }
      }
    } catch (const std::exception&) {
      // A dropped connection leaves the unanswered requests at +inf.
    }
    pr.seconds = seconds_since(t0);
    pr.stats = server.stop();
    return pr;
  }

 private:
  /// A fresh one-worker server for one phase.
  struct Server {
    explicit Server(const Phases& p) {
      serve::ScoreServerConfig cfg;
      cfg.unix_path = p.path_;
      cfg.workers = 1;
      cfg.batcher.max_batch = kMaxBatch;
      cfg.batcher.max_delay_us = kMaxDelayUs;
      cfg.batcher.max_queue = kMaxQueue;
      serve::ScorerSpec spec;
      const core::JointModel* joint = p.st_.joint.get();
      spec.joint = [joint] { return core::make_session(*joint); };
      server = std::make_unique<serve::ScoreServer>(cfg, std::move(spec));
      const CpuPin server_cpus(1, 2);
      server->start();
    }
    serve::ServerStats stop() {
      server->stop();
      return server->stats();
    }
    std::unique_ptr<serve::ScoreServer> server;
  };

  /// Poisson arrivals with the same gaps for every seed: the n gaps are
  /// the exponential distribution's n quantile midpoints, and the seed
  /// only shuffles their order. Drawing the gaps themselves from the seed
  /// let the loaded p90 move with how bursty each seed's draw happened to
  /// be (20% spread across five seeds against 10% for one seed rerun).
  std::vector<double> poisson_schedule(double rps, std::int64_t n,
                                       std::uint64_t salt) const {
    std::vector<double> gaps(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      gaps[i] = -std::log(1.0 - (static_cast<double>(i) + 0.5) /
                                    static_cast<double>(n)) / rps;
    }
    Rng rng(mix(opt_.seed, salt));
    for (std::size_t i = gaps.size(); i > 1; --i) {
      std::swap(gaps[i - 1], gaps[rng.uniform_index(i)]);
    }
    double t = 0.0;
    for (double& g : gaps) {
      t += g;
      g = t;
    }
    return gaps;
  }

  std::span<const float> row(std::int64_t request) const {
    const std::int64_t r = order_[request % load_.rows];
    const std::int64_t dim = st_.rows.extent(1);
    return {st_.rows.data() + r * dim, static_cast<std::size_t>(dim)};
  }

  bool matches(std::int64_t request, float score) const {
    const float want = st_.reference[order_[request % load_.rows]];
    return std::memcmp(&score, &want, sizeof(float)) == 0;
  }

  PhaseResult open_loop(const std::vector<double>& due_s) {
    PhaseResult pr;
    Server server(*this);
    const int fd = connect_unix(path_);
    serve::Frame frame;
    std::vector<char> idbuf;
    const auto n = static_cast<std::int64_t>(due_s.size());
    pr.latency_ms.assign(static_cast<std::size_t>(n), kInf);
    std::vector<Clock::time_point> due(static_cast<std::size_t>(n));
    try {
      if (serve::read_frame(fd, frame) != serve::ReadStatus::kOk ||
          frame.type != serve::FrameType::kHello) {
        throw std::runtime_error("no hello");
      }
      const auto t0 = Clock::now() + std::chrono::milliseconds(2);
      for (std::int64_t i = 0; i < n; ++i) {
        due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(due_s[i]));
      }
      const auto give_up = due.back() + std::chrono::seconds(20);
      std::int64_t next = 0;
      std::int64_t received = 0;
      while (received < n) {
        auto now = Clock::now();
        while (next < n && now >= due[next]) {
          obs::Span span("serve.client.send", next);
          idbuf.clear();
          serve::put_u64(idbuf, static_cast<std::uint64_t>(next));
          const std::span<const float> x = row(next);
          if (!serve::write_frame(
                  fd, serve::FrameType::kScoreRequest, idbuf,
                  {reinterpret_cast<const char*>(x.data()), x.size_bytes()})) {
            throw std::runtime_error("server closed the connection");
          }
          pr.late_ms.push_back(
              std::chrono::duration<double, std::milli>(now - due[next]).count());
          ++next;
          now = Clock::now();
        }
        if (now > give_up) break;
        // Busy-poll: a generator sleeping in poll would add its own
        // wake-up latency (large on a virtual CPU) to every request.
        pollfd p{fd, POLLIN, 0};
        if (::poll(&p, 1, 0) <= 0) continue;
        {
          obs::Span span("serve.client.recv", received);
          if (serve::read_frame(fd, frame) != serve::ReadStatus::kOk) break;
        }
        const auto got = Clock::now();
        ++received;
        if (frame.payload.size() < 8) continue;
        const auto id =
            static_cast<std::int64_t>(serve::get_u64(frame.payload.data()));
        if (frame.type != serve::FrameType::kScoreOk || id < 0 || id >= next ||
            frame.payload.size() != 8 + sizeof(float)) {
          continue;
        }
        float score;
        std::memcpy(&score, frame.payload.data() + 8, sizeof score);
        if (matches(id, score)) {
          pr.latency_ms[id] =
              std::chrono::duration<double, std::milli>(got - due[id]).count();
        }
      }
    } catch (const std::exception&) {
      // Unanswered requests stay at +inf and count as failures.
    }
    ::close(fd);
    pr.stats = server.stop();
    return pr;
  }

  const Options& opt_;
  const Load& load_;
  const ServeSetup& st_;
  std::string path_;
  std::vector<std::int64_t> order_;
  std::vector<double> light_due_;
  std::vector<double> loaded_due_;
};

struct RepResult {
  PhaseResult light, loaded, capacity;
};

double share_within(const std::vector<double>& lat, double limit) {
  std::int64_t ok = 0;
  for (double v : lat) ok += v <= limit ? 1 : 0;
  return lat.empty() ? 0.0 : static_cast<double>(ok) / static_cast<double>(lat.size());
}

/// Median over reps of f(rep).
template <typename F>
double over_reps(const std::vector<RepResult>& reps, F f) {
  std::vector<double> v;
  for (const RepResult& r : reps) v.push_back(f(r));
  return median(v);
}

void add_phase_layers(Result& r, const std::vector<RepResult>& reps,
                      const char* phase, PhaseResult RepResult::*member,
                      bool open_loop) {
  const std::string p = std::string("serve.") + phase + ".";
  const auto stat = [&](auto f) {
    return over_reps(reps, [&](const RepResult& x) { return f(x.*member); });
  };
  r.add(p + "server_p50_ms", stat([](const PhaseResult& x) { return x.stats.p50_ms; }), "ms");
  r.add(p + "wire_ms", stat([](const PhaseResult& x) {
          return quantile(x.latency_ms, 0.5) - x.stats.p50_ms;
        }), "ms");
  r.add(p + "batch_fill_mean",
        stat([](const PhaseResult& x) { return x.stats.mean_batch_fill; }), "requests");
  r.add(p + "queue_depth_max", stat([](const PhaseResult& x) {
          return static_cast<double>(x.stats.max_queue_depth);
        }), "requests");
  r.add(p + "rejected", stat([](const PhaseResult& x) {
          return static_cast<double>(x.stats.rejected);
        }), "count");
  if (open_loop) {
    r.add(p + "gen_late_ms",
          stat([](const PhaseResult& x) { return quantile(x.late_ms, 0.99); }), "ms");
  }
}

}  // namespace

Result run_serve(const Options& opt) {
  const Load load = opt.tiny
      ? Load{200.0, 40, 400.0, 80, 10.0, 16, 64, 32, 2}
      : Load{200.0, 150, 400.0, 1000, 10.0, 64, 1500, 64, 5};
  // A fixed mmap threshold (glibc's initial 128 KiB) turns off glibc's
  // dynamic threshold, which otherwise flipped this workload's peak RSS
  // between ~27 and ~35 MB depending on which freed block first raised it.
  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
  pin_runtime(kPoolWidth, kPrefetch);
  const CpuPin generator_cpu;
  Result r;
  add_fingerprint(r, opt, kPoolWidth, kPrefetch);
  r.set("generator_cpus", generator_cpu.cpus());
  r.set("server_cpus", CpuPin(1, 2).cpus());
  r.set("malloc_mmap_threshold", kMmapThreshold);
  r.set("stamp", kStamp);
  r.set("workers", 1);
  r.set("max_batch", kMaxBatch);
  r.set("max_delay_us", kMaxDelayUs);
  r.set("light_rps", load.light_rps);
  r.set("light_requests", static_cast<double>(load.light_n));
  r.set("loaded_rps", load.loaded_rps);
  r.set("loaded_requests", static_cast<double>(load.loaded_n));
  r.set("slo_ms", load.slo_ms);
  r.set("capacity_window", static_cast<double>(load.window));
  r.set("capacity_requests", static_cast<double>(load.capacity_n));
  r.set("capacity_phases_per_rep", kCapacityPhases);
  r.set("rows", static_cast<double>(load.rows));

  ServeSetup st;
  const double setup_s = timed_setup(load.setups, [&] { st = set_up(opt, load); });
  r.set("peak_rss_after_setup_mb", peak_rss_mb());
  if (opt.corrupt_reference) {
    st.reference[0] =
        std::nextafter(st.reference[0], std::numeric_limits<float>::infinity());
  }
  Phases phases(opt, load, st,
                opt.work_dir + "/serve_" + std::to_string(::getpid()) + ".sock");

  const auto account = [&](const PhaseResult& p) {
    r.attempted += static_cast<std::int64_t>(p.latency_ms.size());
    for (double v : p.latency_ms) r.failed += std::isinf(v) ? 1 : 0;
  };
  const auto collect = [&](std::vector<RepResult>& out) {
    return [&](int k) {
      if (k == 0) {  // warm-up: one capacity phase
        account(phases.capacity());
        return;
      }
      RepResult rep{phases.light(), phases.loaded(), {}};
      account(rep.light);
      account(rep.loaded);
      // One capacity phase's rate swung by up to 30% between the reps of
      // a run, so each rep keeps the median of several.
      std::vector<PhaseResult> capacity;
      for (int i = 0; i < kCapacityPhases; ++i) {
        capacity.push_back(phases.capacity());
        account(capacity.back());
      }
      std::sort(capacity.begin(), capacity.end(),
                [](const PhaseResult& a, const PhaseResult& b) {
                  return a.seconds < b.seconds;
                });
      rep.capacity = std::move(capacity[kCapacityPhases / 2]);
      std::fprintf(stderr,
                   "perfbench: rep %d light p50 %.3f loaded p50 %.3f p90 %.3f "
                   "capacity %.1f\n",
                   k, quantile(rep.light.latency_ms, 0.5),
                   quantile(rep.loaded.latency_ms, 0.5),
                   quantile(rep.loaded.latency_ms, 0.9),
                   static_cast<double>(load.capacity_n) / rep.capacity.seconds);
      out.push_back(std::move(rep));
    };
  };

  std::vector<RepResult> reps;
  const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  timed_reps(budget, opt.tiny ? 1 : 3, collect(reps));
  r.set("reps", static_cast<double>(reps.size()));

  if (!opt.trace) {
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mb", warm_peak_rss_mb(), "MB");
    r.set("peak_rss_end_mb", peak_rss_mb());
    r.add("throughput_per_s", over_reps(reps, [&](const RepResult& x) {
            return static_cast<double>(load.capacity_n) / x.capacity.seconds;
          }), "1/s");
    r.add("latency_p50_ms", over_reps(reps, [](const RepResult& x) {
            return quantile(x.light.latency_ms, 0.5);
          }), "ms");
    return r;
  }

  // Per-layer run: server-side statistics come from the untraced reps
  // above; span timings from the traced reps and direct session calls.
  add_phase_layers(r, reps, "light", &RepResult::light, true);
  add_phase_layers(r, reps, "loaded", &RepResult::loaded, true);
  add_phase_layers(r, reps, "capacity", &RepResult::capacity, false);
  r.add("serve.loaded.p50_ms", over_reps(reps, [](const RepResult& x) {
          return quantile(x.loaded.latency_ms, 0.5);
        }), "ms");
  r.add("serve.loaded.slo_share", over_reps(reps, [&](const RepResult& x) {
          return share_within(x.loaded.latency_ms, load.slo_ms);
        }), "share");
  r.add("serve.loaded.p90_ms", over_reps(reps, [](const RepResult& x) {
          return quantile(x.loaded.latency_ms, 0.9);
        }), "ms");
  r.add("serve.loaded.p99_ms", over_reps(reps, [](const RepResult& x) {
          return quantile(x.loaded.latency_ms, 0.99);
        }), "ms");

  std::vector<RepResult> traced;
  obs::reset();
  obs::enable();
  collect(traced)(1);
  {
    infer::JointSession session = core::make_session(*st.joint);
    const std::int64_t dim = st.rows.extent(1);
    const std::int64_t big = std::min<std::int64_t>(kMaxBatch, load.rows);
    Tensor one({1, dim});
    Tensor batch({big, dim});
    std::memcpy(one.data(), st.rows.data(), sizeof(float) * dim);
    std::memcpy(batch.data(), st.rows.data(), sizeof(float) * dim * big);
    Tensor out;
    session.run(one, out);
    session.run(batch, out);
    const int calls = opt.tiny ? 5 : 200;
    for (int i = 0; i < calls; ++i) {
      obs::Span span("infer.joint_b1", i);
      session.run(one, out);
    }
    for (int i = 0; i < std::max(1, calls / 8); ++i) {
      obs::Span span("infer.joint_b32", i);
      session.run(batch, out);
    }
  }
  obs::disable();
  const auto spans = obs::snapshot_spans();
  add_span_metrics(r, spans, "infer.joint_b1", "infer.joint_b1_ms");
  add_span_metrics(r, spans, "infer.joint_b32", "infer.joint_b32_ms");
  r.add("core.compile_ms", st.compile_ms, "ms");
  r.add("sim.render_ms", st.render_ms, "ms");
  r.add("tensor.sgemm_gflops",
        sgemm_gflops(conv_gemm_shapes(st.joint->band_cnn(), {1, 2, kStamp, kStamp}),
                     opt.tiny ? 0.1 : 1.0),
        "GFLOP/s");
  r.add("tensor.flops_per_batch",
        forward_flops(*st.joint, {kMaxBatch, core::JointModel::input_dim(kStamp)}), "flop");
  const auto cap = [&](const std::vector<RepResult>& v) {
    return over_reps(v, [&](const RepResult& x) {
      return static_cast<double>(load.capacity_n) / x.capacity.seconds;
    });
  };
  r.add("obs.trace_overhead_pct", (cap(reps) / cap(traced) - 1.0) * 100.0, "%");
  if (!write_trace(opt)) ++r.failed;
  return r;
}

}  // namespace perfbench
