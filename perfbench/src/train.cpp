// train_band_cnn — trains the paper's band CNN (stamp 36, batch 16) on
// flux pairs replayed from a data::SnapshotDataset written during set-up,
// so the timed loop is nn forward/backward/Adam plus tensor GEMM, and
// rendering is paid in setup_s. Pool width 2: this is the one workload
// that exercises the thread pool's parallel conv/GEMM. Each rep trains a
// freshly seeded model on the identical batch sequence, so every rep's
// per-batch losses must be bitwise equal.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "core/band_cnn.h"
#include "core/pipeline.h"
#include "data/snapshot.h"
#include "nn/data_loader.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "sim/dataset_builder.h"
#include "tensor/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace sne;

namespace {

constexpr int kPoolWidth = 2;
constexpr std::int64_t kPrefetch = 0;  // fetch cost shows on the caller
constexpr std::int64_t kStamp = 36;
constexpr std::int64_t kBatch = 16;

struct Sizes {
  std::int64_t samples;  ///< simulated SNe the pairs are cut from
  std::int64_t pairs;    ///< rendered training pairs (one epoch)
  std::int64_t epochs;   ///< epochs per rep
  int setups;
};

struct TrainSetup {
  std::unique_ptr<sim::SnDataset> sims;
  std::unique_ptr<data::SnapshotDataset> snapshot;
  double render_ms = 0.0;
};

TrainSetup set_up(const Options& opt, const Sizes& z, const std::string& path) {
  TrainSetup s;
  sim::SnDataset::Config cfg;
  cfg.num_samples = z.samples;
  cfg.seed = mix(opt.seed, 1);
  cfg.catalog.count = 150;
  s.sims = std::make_unique<sim::SnDataset>(sim::SnDataset::build(cfg));
  std::vector<std::int64_t> samples(static_cast<std::size_t>(z.samples));
  for (std::int64_t i = 0; i < z.samples; ++i) samples[i] = i;
  auto items = core::enumerate_flux_pairs(*s.sims, samples, 27.5);
  if (static_cast<std::int64_t>(items.size()) < z.pairs) {
    throw std::runtime_error("train_band_cnn: too few flux pairs");
  }
  items.resize(static_cast<std::size_t>(z.pairs));
  const nn::LazyDataset pairs =
      core::make_flux_pair_dataset(*s.sims, std::move(items), kStamp);
  const auto t0 = Clock::now();
  data::write_snapshot(path, pairs, kBatch);
  s.render_ms = seconds_since(t0) * 1e3;
  s.snapshot = std::make_unique<data::SnapshotDataset>(path);
  return s;
}

/// Trains a fresh model for z.epochs over the snapshot. Untraced, the
/// loop is the public Trainer::train_batch, and each batch's wall time
/// (fetch plus step) goes to `batch_ms` when it is given; traced, the
/// benchmark calls the steps itself inside its own spans (same order of
/// operations, so the losses must match bitwise).
std::vector<float> train_rep(const Options& opt, const Sizes& z,
                             const data::SnapshotDataset& snapshot,
                             bool traced, std::vector<double>* batch_ms) {
  Rng rng(mix(opt.seed, 2));
  core::BandCnnConfig cfg;
  cfg.input_size = kStamp;
  core::BandCnn cnn(cfg, rng);
  nn::Adam adam(cnn.params(), 1e-3f);
  nn::Trainer trainer(cnn, adam, nn::mse_loss);
  nn::DataLoaderConfig lc;
  lc.batch_size = kBatch;
  lc.shuffle = true;
  lc.shuffle_seed = mix(opt.seed, 3);
  nn::DataLoader loader(snapshot, lc);

  std::vector<float> losses;
  nn::Sample batch;
  std::int64_t b = 0;
  for (std::int64_t e = 0; e < z.epochs; ++e) {
    loader.start_epoch();
    if (!traced) {
      for (auto t0 = Clock::now(); loader.next(batch); t0 = Clock::now()) {
        losses.push_back(trainer.train_batch(batch));
        if (batch_ms) {
          batch_ms->push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
        }
      }
      continue;
    }
    for (std::int64_t i = 0; i < loader.num_batches(); ++i, ++b) {
      obs::Span batch_span("train.batch", b);
      {
        obs::Span s("data.batch_fetch", b);
        loader.next(batch);
      }
      cnn.set_training(true);
      adam.zero_grad();
      Tensor prediction;
      {
        obs::Span s("nn.forward", b);
        prediction = cnn.forward(batch.x);
      }
      {
        obs::Span s("nn.backward", b);
        const nn::LossResult loss = nn::mse_loss(prediction, batch.y);
        cnn.backward(loss.grad);
        losses.push_back(loss.value);
      }
      {
        obs::Span s("nn.step", b);
        adam.step();
      }
    }
  }
  return losses;
}

}  // namespace

Result run_train(const Options& opt) {
  const Sizes z = opt.tiny ? Sizes{6, 32, 1, 2} : Sizes{40, 256, 3, 5};
  pin_runtime(kPoolWidth, kPrefetch);
  Result r;
  add_fingerprint(r, opt, kPoolWidth, kPrefetch);
  r.set("stamp", kStamp);
  r.set("batch", kBatch);
  r.set("pairs", static_cast<double>(z.pairs));
  r.set("epochs_per_rep", static_cast<double>(z.epochs));

  const std::string path = opt.work_dir + "/train_" +
                           std::to_string(::getpid()) + ".snap";
  TrainSetup st;
  const double setup_s = timed_setup(z.setups, [&] {
    st = TrainSetup{};
    st = set_up(opt, z, path);
  });

  r.set("peak_rss_after_setup_mb", peak_rss_mb());
  std::vector<float> reference;
  const auto check = [&](const std::vector<float>& losses) {
    r.attempted += static_cast<std::int64_t>(losses.size());
    for (std::size_t i = 0; i < losses.size(); ++i) {
      const bool same = i < reference.size() &&
                        std::memcmp(&losses[i], &reference[i], sizeof(float)) == 0;
      if (!std::isfinite(losses[i]) || !same) ++r.failed;
    }
    if (losses.size() != reference.size()) ++r.failed;
  };
  std::vector<double> batch_ms;  // timed untraced reps only
  const auto rep = [&](bool traced) {
    return [&, traced](int k) {
      std::vector<float> losses =
          train_rep(opt, z, *st.snapshot, traced, k > 0 ? &batch_ms : nullptr);
      if (k == 0 && reference.empty()) reference = losses;
      check(losses);
    };
  };

  const double samples_per_rep = static_cast<double>(z.pairs * z.epochs);
  const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const std::vector<double> times = timed_reps(budget, 3, rep(false));
  r.set("reps", static_cast<double>(times.size()));

  if (!opt.trace) {
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mb", warm_peak_rss_mb(), "MB");
    r.set("peak_rss_end_mb", peak_rss_mb());
    r.add("throughput_per_s", samples_per_rep / median(times), "1/s");
    r.add("latency_p50_ms", median(batch_ms), "ms");
  } else {
    obs::reset();
    obs::enable();
    const std::vector<double> traced = timed_reps(budget, 2, rep(true));
    obs::disable();
    const auto spans = obs::snapshot_spans();
    add_span_metrics(r, spans, "nn.forward", "nn.forward_ms");
    add_span_metrics(r, spans, "nn.backward", "nn.backward_ms");
    add_span_metrics(r, spans, "nn.step", "nn.step_ms");
    add_span_metrics(r, spans, "data.batch_fetch", "data.batch_fetch_ms");
    core::BandCnnConfig cfg;
    cfg.input_size = kStamp;
    Rng rng(1);
    const core::BandCnn cnn(cfg, rng);
    r.add("tensor.sgemm_gflops",
          sgemm_gflops(conv_gemm_shapes(cnn, {1, 2, kStamp, kStamp}),
                       opt.tiny ? 0.1 : 1.0),
          "GFLOP/s");
    // Forward plus backward (input and weight gradients) ~ 3x forward.
    r.add("tensor.flops_per_batch",
          3.0 * forward_flops(cnn, {kBatch, 2, kStamp, kStamp}), "flop");
    r.add("sim.render_ms", st.render_ms, "ms");
    r.add("obs.trace_overhead_pct",
          (median(traced) / median(times) - 1.0) * 100.0, "%");
    if (!write_trace(opt)) ++r.failed;
  }
  st = TrainSetup{};
  std::remove(path.c_str());
  return r;
}

}  // namespace perfbench
