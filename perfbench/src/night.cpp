// night_cascade — a survey-realistic night (real_fraction 0.02) pulled
// through the tiered filter cascade. Set-up trains the tier-1 real/bogus
// CNN and renders the candidate pool once; the timed part is
// stream::run_night's loop over a fresh FilterCascade per rep, replaying
// the identical night. It runs on one thread pinned to one CPU (prefetch
// depth 0, pool width 1), so alert production and the cascade are both
// on the critical path: with a prefetch thread, how the scheduler placed
// the two threads moved the alerts per second by up to 40% between runs
// (see perfbench/README.md). Per-tier counts and verdicts must be
// identical across reps and equal to the untimed reference pass.
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>

#include "core/inference.h"
#include "core/joint_model.h"
#include "sim/dataset_builder.h"
#include "stream/cascade.h"
#include "stream/night.h"
#include "stream/tier1.h"
#include "tensor/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace sne;

namespace {

constexpr int kPoolWidth = 1;
constexpr std::int64_t kPrefetch = 0;
constexpr std::int64_t kStamp = 36;
constexpr std::int64_t kCrop = 21;
constexpr std::int64_t kField = 32;
constexpr std::int64_t kBatch = 64;

struct Sizes {
  std::int64_t samples;     ///< simulated SNe behind the pool
  std::int64_t tier1_samples;  ///< the first ones, tier 1 trains on them
  std::int64_t candidates;  ///< alerts per night = 5 x candidates
  std::int64_t pool;        ///< rendered candidate pool
  std::int64_t transients;  ///< transient slots in the pool (see night_seed)
  std::int64_t tier1_epochs;
  int setups;
};

struct NightSetup {
  std::unique_ptr<sim::SnDataset> sims;
  std::unique_ptr<stream::Tier1Cnn> tier1;
  std::unique_ptr<core::JointModel> joint;
  std::shared_ptr<const infer::InferencePlan> tier1_plan;
  std::unique_ptr<stream::NightStream> night;
  double render_ms = 0.0;
  double compile_ms = 0.0;
};

/// The first night seed derived from `seed` whose pool holds exactly
/// `transients` transient slots (pool x the 2% real fraction, rounded).
/// Every candidate tiling onto a slot inherits its imagery, so the joint
/// tier's work moves in steps of one slot's tiles: with a 48-slot pool
/// (128 tiles a slot) a night held 0-3 transient slots, and even at
/// exactly one, whether tier 1 passed that slot's SN moved joint_in
/// between 26 and 159 and the alerts per second by ~15%. The draw
/// mirrors NightStream's per-slot one, and the fingerprint's real_alerts
/// confirms it from the reference pass.
std::uint64_t night_seed(std::uint64_t seed, std::int64_t pool, double real_fraction,
                         std::int64_t transients) {
  const auto slot_hash = [](std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    return x ^ (x >> 33);
  };
  for (std::uint64_t j = 0;; ++j) {
    const std::uint64_t candidate = mix(seed, 24 + j);
    std::int64_t real = 0;
    for (std::int64_t s = 0; s < pool; ++s) {
      Rng rng(candidate ^ slot_hash(static_cast<std::uint64_t>(s) + 1));
      real += rng.bernoulli(real_fraction) ? 1 : 0;
    }
    if (real == transients) return candidate;
  }
}

NightSetup set_up(const Options& opt, const Sizes& z) {
  NightSetup s;
  // The simulated sky behind the candidate pool and both models are
  // fixed: with seed-dependent imagery, the number of bogus candidates
  // passing tier 1 in all five bands (each pool slot tiles 128 of them)
  // moved stream.joint_in between 51 and 364. --seed draws the night:
  // which slots are transient, the injected artifacts and the arrival
  // order, among nights with a fixed transient slot count (see night_seed).
  sim::SnDataset::Config cfg;
  cfg.num_samples = z.samples;
  cfg.seed = 9;
  cfg.catalog.count = 150;
  s.sims = std::make_unique<sim::SnDataset>(sim::SnDataset::build(cfg));
  std::vector<std::int64_t> samples(static_cast<std::size_t>(z.samples));
  for (std::int64_t i = 0; i < z.samples; ++i) samples[i] = i;
  stream::Tier1Config t1;
  t1.crop = kCrop;
  stream::Tier1TrainConfig t1train;
  t1train.epochs = z.tier1_epochs;
  s.tier1 = stream::train_tier1(
      *s.sims,
      std::vector<std::int64_t>(samples.begin(), samples.begin() + z.tier1_samples),
      t1, t1train);
  Rng rng(7);
  core::JointModelConfig jcfg;
  jcfg.cnn.input_size = kStamp;
  s.joint = std::make_unique<core::JointModel>(jcfg, rng);

  const auto t0 = Clock::now();
  s.tier1_plan = stream::compile_tier1_plan(*s.tier1);
  (void)core::make_session(*s.joint);
  s.compile_ms = seconds_since(t0) * 1e3;

  stream::NightConfig ncfg;
  ncfg.candidates = z.candidates;
  ncfg.pool = z.pool;
  ncfg.field = kField;
  ncfg.batch = kBatch;
  ncfg.stamp = kStamp;
  ncfg.crop = kCrop;
  ncfg.real_fraction = 0.02;
  ncfg.seed = night_seed(opt.seed, z.pool, ncfg.real_fraction, z.transients);
  s.night = std::make_unique<stream::NightStream>(*s.sims, samples, ncfg);
  // One pass renders the pool; reset() keeps it for every later pass.
  const auto t2 = Clock::now();
  stream::AlertBatch chunk;
  while (s.night->next(chunk)) {
  }
  s.render_ms = seconds_since(t2) * 1e3;
  return s;
}

stream::CascadeConfig cascade_config(const NightSetup& st) {
  stream::CascadeConfig cfg;
  cfg.stages.push_back(stream::CascadeStage{
      "tier1", st.tier1_plan, stream::AlertInput::Tier1, 0.0f, false});
  const core::JointModel* joint = st.joint.get();
  cfg.joint = [joint] { return core::make_session(*joint); };
  cfg.max_pending = 4 * kField;
  return cfg;
}

bool same_counts(const eval::CascadeTierCounts& a,
                 const eval::CascadeTierCounts& b) {
  return a.name == b.name && a.in == b.in && a.passed == b.passed &&
         a.positives_in == b.positives_in &&
         a.positives_passed == b.positives_passed;
}

/// What a night decided: the per-tier accounting and every verdict.
struct Outcome {
  eval::CascadeCounts counts;
  std::vector<stream::Verdict> verdicts;
};

bool same_outcome(const Outcome& a, const Outcome& b) {
  const eval::CascadeCounts& x = a.counts;
  const eval::CascadeCounts& y = b.counts;
  if (x.tiers.size() != y.tiers.size() || !same_counts(x.end_to_end, y.end_to_end) ||
      x.evicted != y.evicted || x.incomplete != y.incomplete) {
    return false;
  }
  for (std::size_t i = 0; i < x.tiers.size(); ++i) {
    if (!same_counts(x.tiers[i], y.tiers[i])) return false;
  }
  const auto& u = a.verdicts;
  const auto& v = b.verdicts;
  if (u.size() != v.size()) return false;
  for (std::size_t i = 0; i < u.size(); ++i) {
    if (u[i].candidate != v[i].candidate || u[i].accepted != v[i].accepted ||
        u[i].real != v[i].real || u[i].is_ia != v[i].is_ia ||
        std::memcmp(&u[i].score, &v[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result run_night(const Options& opt) {
  const Sizes z = opt.tiny ? Sizes{6, 6, 64, 8, 1, 1, 2}
                           : Sizes{96, 24, 6144, 192, 4, 4, 3};
  pin_runtime(kPoolWidth, kPrefetch);
  const CpuPin pin;
  Result r;
  add_fingerprint(r, opt, kPoolWidth, kPrefetch);
  r.set("pinned_cpus", pin.cpus());
  r.set("stamp", kStamp);
  r.set("crop", kCrop);
  r.set("candidates", static_cast<double>(z.candidates));
  r.set("pool", static_cast<double>(z.pool));
  r.set("transient_slots", static_cast<double>(z.transients));
  r.set("field", kField);
  r.set("batch", kBatch);
  r.set("real_fraction", 0.02);

  NightSetup st;
  const double setup_s = timed_setup(z.setups, [&] {
    st = NightSetup{};
    st = set_up(opt, z);
  });
  r.set("peak_rss_after_setup_mb", peak_rss_mb());
  r.set("night_seed", std::to_string(st.night->config().seed));
  stream::NightStream& night = *st.night;
  const stream::CascadeConfig cfg = cascade_config(st);
  const std::int64_t alerts = night.total_alerts();

  std::optional<Outcome> reference;
  std::int64_t pending_max = 0;
  std::vector<double> batch_ms;  // timed untraced reps only
  const auto rep = [&](bool traced) {
    return [&, traced](int k) {
      night.reset();
      Outcome outcome;
      if (!traced) {
        // stream::run_night's loop, with each alert batch's wall time
        // (produce it, then push it through the cascade) recorded.
        stream::FilterCascade cascade(cfg);
        stream::AlertBatch batch;
        for (auto t0 = Clock::now(); night.next(batch); t0 = Clock::now()) {
          cascade.push(batch);
          if (k > 0) {
            batch_ms.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
          }
        }
        cascade.finish();
        outcome = {cascade.counts(), cascade.verdicts()};
      } else {
        stream::FilterCascade cascade(cfg);
        stream::AlertBatch batch;
        for (std::int64_t b = 0;; ++b) {
          bool more;
          {
            obs::Span span("stream.next", b);
            more = night.next(batch);
          }
          if (!more) break;
          {
            obs::Span span("stream.push", b);
            cascade.push(batch);
          }
          pending_max = std::max(pending_max, cascade.pending());
        }
        {
          obs::Span span("stream.finish");
          cascade.finish();
        }
        outcome = {cascade.counts(), cascade.verdicts()};
      }
      r.attempted += alerts;
      if (!reference) {
        reference = std::move(outcome);
      } else if (!same_outcome(outcome, *reference)) {
        r.failed += alerts;
      }
    };
  };

  const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const std::vector<double> times = timed_reps(budget, 3, rep(false));
  r.set("reps", static_cast<double>(times.size()));
  r.set("real_alerts",
        static_cast<double>(reference->counts.tiers.front().positives_in));
  r.set("joint_in", static_cast<double>(reference->counts.tiers.back().in));
  if (!opt.trace) {
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mb", warm_peak_rss_mb(), "MB");
    r.set("peak_rss_end_mb", peak_rss_mb());
    r.add("throughput_per_s", static_cast<double>(alerts) / median(times), "1/s");
    r.add("latency_p50_ms", median(batch_ms), "ms");
    return r;
  }

  obs::reset();
  obs::enable();
  const std::vector<double> traced = timed_reps(budget, 2, rep(true));
  {
    night.reset();
    stream::AlertBatch batch;
    night.next(batch);
    infer::InferenceSession session(st.tier1_plan);
    Tensor out;
    session.run(batch.tier1, out);
    for (int i = 0; i < (opt.tiny ? 5 : 300); ++i) {
      obs::Span span("infer.tier1_b64", i);
      session.run(batch.tier1, out);
    }
  }
  obs::disable();
  const auto spans = obs::snapshot_spans();
  add_span_metrics(r, spans, "stream.next", "stream.next_ms");
  add_span_metrics(r, spans, "stream.push", "stream.push_ms");
  add_span_metrics(r, spans, "stream.finish", "stream.finish_ms");
  add_span_metrics(r, spans, "infer.tier1_b64", "infer.tier1_b64_ms");
  const eval::CascadeCounts& counts = reference->counts;
  r.add("stream.tier1_pass_share",
        static_cast<double>(counts.tiers.front().passed) /
            static_cast<double>(counts.tiers.front().in),
        "share");
  r.add("stream.joint_in", static_cast<double>(counts.tiers.back().in), "count");
  r.add("stream.gate_pending_max", static_cast<double>(pending_max), "count");
  r.add("core.compile_ms", st.compile_ms, "ms");
  r.add("sim.render_ms", st.render_ms, "ms");
  r.add("tensor.sgemm_gflops",
        sgemm_gflops(conv_gemm_shapes(st.joint->band_cnn(), {1, 2, kStamp, kStamp}),
                     opt.tiny ? 0.1 : 1.0),
        "GFLOP/s");
  r.add("tensor.flops_per_batch",
        forward_flops(*st.tier1, {kBatch, 1, kCrop, kCrop}), "flop");
  r.add("obs.trace_overhead_pct", (median(traced) / median(times) - 1.0) * 100.0,
        "%");
  if (!write_trace(opt)) ++r.failed;
  return r;
}

}  // namespace perfbench
