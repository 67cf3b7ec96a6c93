// sne_cli — command-line front end for the library: generate synthetic
// survey datasets, train the single-epoch classification pipeline, score
// candidates, and inspect artifacts, without writing any C++.
//
//   sne generate --samples 2000 --seed 42 --out season.snds
//   sne train    --dataset season.snds --out model.snet [--joint-epochs 3]
//   sne score    --dataset season.snds --model model.snet [--top 20]
//   sne info     --dataset season.snds
//   sne info     --model model.snet
//   sne snapshot --dataset season.snds --out flux.snap [--kind flux|joint]
//   sne snapshot --info flux.snap
//   sne stream   --dataset season.snds --model model.snet [--candidates 256]
//   sne serve    --model model.snet --socket /tmp/sne.sock [--port 7070]
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <csignal>
#include <unistd.h>

#include "core/inference.h"
#include "core/sne_pipeline.h"
#include "data/snapshot.h"
#include "eval/parity.h"
#include "eval/roc.h"
#include "eval/tables.h"
#include "obs/obs.h"
#include "serve/server.h"
#include "sim/dataset_io.h"
#include "stream/cascade.h"
#include "stream/cascade_scorer.h"
#include "stream/night.h"
#include "stream/tier1.h"
#include "tensor/env.h"
#include "tensor/runtime.h"

using namespace sne;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  bool has(const std::string& key) const { return options.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  // Numeric flag values go through the strict env-style parser: trailing
  // junk and out-of-range values are hard errors naming the flag, never
  // a silent partial parse (std::stoll would happily read "--top 20x" as
  // 20 and "--seed 9e99" would throw a bare out_of_range with no
  // context).
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    const auto parsed = env::parse_int64(it->second);
    if (!parsed) {
      throw std::runtime_error("option --" + key +
                               " needs an integer, got \"" + it->second +
                               "\"");
    }
    return *parsed;
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    const auto parsed = env::parse_float64(it->second);
    if (!parsed) {
      throw std::runtime_error("option --" + key + " needs a number, got \"" +
                               it->second + "\"");
    }
    return *parsed;
  }
  std::string require(const std::string& key) const {
    const auto it = options.find(key);
    if (it == options.end()) {
      throw std::runtime_error("missing required option --" + key);
    }
    return it->second;
  }
};

// Options that are flags: present or absent, no value token.
bool is_flag(const std::string& name) {
  return name == "timing" || name == "progress";
}

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) throw std::runtime_error("no command given");
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw std::runtime_error("unexpected argument: " + token);
    }
    const std::string name = token.substr(2);
    if (is_flag(name)) {
      args.options[name] = '1';
      continue;
    }
    if (i + 1 >= argc) {
      throw std::runtime_error("option " + token + " needs a value");
    }
    args.options[name] = argv[++i];
  }
  return args;
}

// Global run-time knobs shared by every command: --threads/--prefetch
// feed RuntimeConfig (same defaults and SNE_* env overrides as the
// library), --trace/--timing turn telemetry capture on. Returns true if
// anything should be reported after the command finishes.
bool apply_runtime_options(const Args& args) {
  RuntimeConfig rc = RuntimeConfig::current();
  rc.threads = static_cast<int>(args.get_int("threads", rc.threads));
  rc.prefetch = args.get_int("prefetch", rc.prefetch);
  if (args.has("precision")) {
    const std::string p = args.get("precision", "");
    if (p == "fp32") {
      rc.precision = Precision::Fp32;
    } else if (p == "int8") {
      rc.precision = Precision::Int8;
    } else {
      throw std::runtime_error("--precision must be fp32 or int8, got " + p);
    }
  }
  if (args.has("trace")) {
    rc.trace = true;
    rc.trace_path = args.get("trace", "");
  }
  if (args.has("timing")) rc.trace = true;
  RuntimeConfig::set_current(rc);
  return rc.trace;
}

// After a traced command: chrome trace to --trace's path, summary table
// to stdout when --timing was given.
void report_telemetry(const Args& args) {
  const std::string path = args.get("trace", "");
  if (!path.empty()) {
    if (obs::write_chrome_trace(path)) {
      std::printf("wrote trace %s (open in chrome://tracing or "
                  "ui.perfetto.dev)\n",
                  path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write trace %s\n", path.c_str());
    }
  }
  if (args.has("timing")) {
    std::printf("%s", obs::summary_table().c_str());
  }
}

int cmd_generate(const Args& args) {
  sim::SnDataset::Config config;
  config.num_samples = args.get_int("samples", 1000);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 20171130));
  config.p_ia = args.get_double("p-ia", 0.5);
  config.catalog.count =
      std::max<std::int64_t>(1000, config.num_samples);
  const std::string out = args.require("out");

  std::printf("generating %lld samples (seed %llu)...\n",
              static_cast<long long>(config.num_samples),
              static_cast<unsigned long long>(config.seed));
  const sim::SnDataset data = sim::SnDataset::build(config);
  sim::save_dataset(out, data);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_train(const Args& args) {
  const sim::SnDataset data = sim::load_dataset(args.require("dataset"));
  const std::string out = args.require("out");

  core::SnePipelineConfig config;
  config.stamp_size = args.get_int("stamp", 44);
  config.hidden_units = args.get_int("units", 100);
  config.flux_epochs = args.get_int("flux-epochs", 3);
  config.flux_pairs = args.get_int("flux-pairs", 2000);
  config.classifier_epochs = args.get_int("classifier-epochs", 30);
  config.joint_epochs = args.get_int("joint-epochs", 2);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (args.has("progress")) {
    config.progress = [](const char* stage, const nn::EpochStats& s) {
      std::printf("  [%s] epoch %3lld  train_loss %.5f  val_loss %.5f\n",
                  stage, static_cast<long long>(s.epoch), s.train_loss,
                  s.val_loss);
      std::fflush(stdout);
    };
  }

  // 90/10 train/val split over the dataset.
  std::vector<std::int64_t> all(static_cast<std::size_t>(data.size()));
  std::iota(all.begin(), all.end(), 0);
  const auto n_train = static_cast<std::size_t>(data.size() * 9 / 10);
  std::vector<std::int64_t> train_idx(all.begin(),
                                      all.begin() + static_cast<std::ptrdiff_t>(n_train));
  std::vector<std::int64_t> val_idx(all.begin() + static_cast<std::ptrdiff_t>(n_train),
                                    all.end());

  std::printf("training pipeline on %zu samples (stamp %lld, %lld units)\n",
              train_idx.size(), static_cast<long long>(config.stamp_size),
              static_cast<long long>(config.hidden_units));
  core::SnePipeline pipeline(config);
  const core::SnePipelineReport report =
      pipeline.train(data, train_idx, val_idx);

  if (!report.joint_history.empty()) {
    std::printf("joint fine-tune: train loss %.4f -> %.4f\n",
                report.joint_history.front().train_loss,
                report.joint_history.back().train_loss);
  }
  // --calibrate N records int8 activation ranges on the first N training
  // samples; with --precision int8 the saved model then carries the
  // quantized plan and score/info serve int8 out of the box.
  const auto calibrate_n =
      static_cast<std::size_t>(args.get_int("calibrate", 0));
  if (calibrate_n > 0) {
    std::vector<std::int64_t> calib_idx(
        train_idx.begin(),
        train_idx.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(calibrate_n, train_idx.size())));
    pipeline.calibrate(data, calib_idx);
    std::printf("calibrated on %zu samples (serving precision: %s)\n",
                calib_idx.size(), precision_name(pipeline.precision()));
  }
  if (!val_idx.empty()) {
    const auto scores = pipeline.score_all(data, val_idx);
    std::vector<float> labels;
    for (const std::int64_t i : val_idx) {
      labels.push_back(data.is_ia(i) ? 1.0f : 0.0f);
    }
    std::printf("validation AUC: %.3f\n", eval::auc(scores, labels));
    if (pipeline.precision() == Precision::Int8) {
      // Score the same samples at fp32 and report the quantization cost.
      pipeline.set_precision(Precision::Fp32);
      const auto reference = pipeline.score_all(data, val_idx);
      pipeline.set_precision(Precision::Int8);
      const eval::PrecisionParity parity =
          eval::precision_parity(reference, scores, labels);
      std::printf(
          "int8 parity: AUC %+.5f delta (fp32 %.4f, int8 %.4f), "
          "max score drift %.5f\n",
          parity.auc_delta, parity.auc_reference, parity.auc_quantized,
          parity.max_abs_diff);
    }
  }
  pipeline.save(out);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_score(const Args& args) {
  const sim::SnDataset data = sim::load_dataset(args.require("dataset"));
  core::SnePipeline pipeline =
      core::SnePipeline::load(args.require("model"));
  const std::int64_t top = args.get_int("top", 20);
  if (pipeline.precision() == Precision::Int8) {
    std::printf("serving precision: int8 (calibrated)\n");
  }

  std::vector<std::int64_t> all(static_cast<std::size_t>(data.size()));
  std::iota(all.begin(), all.end(), 0);
  const auto scores = pipeline.score_all(data, all);

  std::vector<std::size_t> order(all.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] > scores[b];
  });

  eval::TextTable table({"rank", "candidate", "P(SNIa)", "host z"});
  for (std::size_t r = 0;
       r < std::min<std::size_t>(order.size(),
                                 static_cast<std::size_t>(top));
       ++r) {
    const auto i = static_cast<std::int64_t>(order[r]);
    table.add_row({std::to_string(r + 1), std::to_string(i),
                   eval::fmt(scores[order[r]], 3),
                   eval::fmt(data.host(i).photo_z, 2)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_info(const Args& args) {
  if (args.has("dataset")) {
    const sim::SnDataset data = sim::load_dataset(args.get("dataset", ""));
    std::int64_t n_ia = 0;
    for (std::int64_t i = 0; i < data.size(); ++i) {
      if (data.is_ia(i)) ++n_ia;
    }
    std::printf("dataset: %lld samples (%lld SNIa, %lld non-Ia)\n",
                static_cast<long long>(data.size()),
                static_cast<long long>(n_ia),
                static_cast<long long>(data.size() - n_ia));
    std::printf("catalog: %lld galaxies, z in [%.2f, %.2f]\n",
                static_cast<long long>(data.catalog().size()),
                data.config().catalog.z_min, data.config().catalog.z_max);
    std::printf("schedule: %lld epochs/band over %.0f days\n",
                static_cast<long long>(data.config().schedule.epochs_per_band),
                data.config().schedule.season_days);
    return 0;
  }
  if (args.has("model")) {
    core::SnePipeline pipeline =
        core::SnePipeline::load(args.get("model", ""));
    std::printf("pipeline: stamp %lld, hidden units %lld, %lld parameters\n",
                static_cast<long long>(pipeline.config().stamp_size),
                static_cast<long long>(pipeline.config().hidden_units),
                static_cast<long long>(pipeline.joint_model().num_params()));
    std::printf("serving: %s%s\n", precision_name(pipeline.precision()),
                pipeline.is_calibrated() ? " (calibrated for int8)" : "");
    return 0;
  }
  throw std::runtime_error("info needs --dataset or --model");
}

// "2x36x36" for a shape's extents.
std::string join_extents(const Shape& shape) {
  std::string out;
  for (const std::int64_t e : shape) {
    if (!out.empty()) out += 'x';
    out += std::to_string(e);
  }
  return out;
}

// Renders a generated dataset once through the training pipeline's
// dataset factories and caches the tensors in a .snap file; training and
// benches can then replay epochs from the snapshot (mmap-backed, zero
// render cost) with bitwise-identical batches.
int cmd_snapshot(const Args& args) {
  if (args.has("info")) {
    const std::string path = args.get("info", "");
    const data::SnapshotInfo info = data::read_snapshot_info(path);
    const std::string xs = join_extents(info.x_shape);
    const std::string ys = join_extents(info.y_shape);
    std::printf("snapshot: v%llu, %lld samples, x %s, y %s (%.1f MiB)\n",
                static_cast<unsigned long long>(info.version),
                static_cast<long long>(info.count), xs.c_str(), ys.c_str(),
                static_cast<double>(info.count) *
                    static_cast<double>(info.x_numel() + info.y_numel()) *
                    sizeof(float) / (1024.0 * 1024.0));
    return 0;
  }
  const sim::SnDataset dataset = sim::load_dataset(args.require("dataset"));
  const std::string out = args.require("out");
  const std::string kind = args.get("kind", "flux");
  const std::int64_t crop = args.get_int("crop", 0);
  const std::int64_t batch = args.get_int("batch", 64);

  std::vector<std::int64_t> all(static_cast<std::size_t>(dataset.size()));
  std::iota(all.begin(), all.end(), 0);

  std::printf("rendering %s snapshot of %lld samples...\n", kind.c_str(),
              static_cast<long long>(dataset.size()));
  if (kind == "flux") {
    auto items = core::enumerate_flux_pairs(dataset, all);
    const nn::LazyDataset pairs =
        core::make_flux_pair_dataset(dataset, std::move(items), crop);
    data::write_snapshot(out, pairs, batch);
  } else if (kind == "joint") {
    const std::int64_t epoch = args.get_int("epoch", 0);
    const nn::LazyDataset joint = core::make_joint_dataset(
        dataset, all, epoch, crop, core::FeatureConfig{});
    data::write_snapshot(out, joint, batch);
  } else {
    throw std::runtime_error("snapshot: unknown --kind " + kind +
                             " (expected flux or joint)");
  }
  const data::SnapshotInfo info = data::read_snapshot_info(out);
  std::printf("wrote %s (%lld samples)\n", out.c_str(),
              static_cast<long long>(info.count));
  return 0;
}

// Shared by stream/serve: the joint-tier session builder over a loaded
// pipeline, honoring the resolved serving precision.
std::function<infer::JointSession()> joint_builder(
    const std::shared_ptr<core::SnePipeline>& pipeline) {
  const Precision precision = pipeline->precision();
  return [pipeline, precision] {
    core::SessionOptions options;
    if (precision == Precision::Int8) {
      options.precision = Precision::Int8;
      options.joint_calibration = &pipeline->calibration();
    }
    return core::make_session(pipeline->joint_model(), options);
  };
}

// Trains the cascade's tier-1 real/bogus CNN on the head of the dataset
// (small model, minutes of work at CLI scale).
std::unique_ptr<stream::Tier1Cnn> train_cli_tier1(const sim::SnDataset& data,
                                                  const Args& args) {
  stream::Tier1Config model;
  model.crop = args.get_int("crop", 21);
  stream::Tier1TrainConfig tc;
  tc.epochs = args.get_int("tier1-epochs", 3);
  tc.seed = static_cast<std::uint64_t>(args.get_int("seed", 2026));
  const auto head = std::min<std::int64_t>(data.size(),
                                           args.get_int("tier1-samples", 48));
  std::vector<std::int64_t> samples(static_cast<std::size_t>(head));
  std::iota(samples.begin(), samples.end(), 0);
  std::printf("training tier-1 real/bogus CNN (crop %lld, %lld epochs, "
              "%zu samples)...\n",
              static_cast<long long>(model.crop),
              static_cast<long long>(tc.epochs), samples.size());
  std::fflush(stdout);
  return stream::train_tier1(data, samples, model, tc);
}

// stream: synthesize one survey night and run the tiered filter cascade
// over it, reporting per-tier recall/rejection/purity and throughput.
int cmd_stream(const Args& args) {
  const sim::SnDataset data = sim::load_dataset(args.require("dataset"));
  auto pipeline = std::make_shared<core::SnePipeline>(
      core::SnePipeline::load(args.require("model")));

  const auto tier1 = train_cli_tier1(data, args);

  stream::NightConfig night_cfg;
  night_cfg.candidates = args.get_int("candidates", 256);
  night_cfg.pool = args.get_int("pool", 64);
  night_cfg.field = args.get_int("field", 32);
  night_cfg.batch = args.get_int("batch", 64);
  night_cfg.stamp = pipeline->config().stamp_size;
  night_cfg.crop = tier1->config().crop;
  night_cfg.real_fraction = args.get_double("real-fraction", 0.5);
  night_cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 2026));

  std::vector<std::int64_t> all(static_cast<std::size_t>(data.size()));
  std::iota(all.begin(), all.end(), 0);
  stream::NightStream night(data, all, night_cfg);

  stream::CascadeConfig cascade_cfg;
  cascade_cfg.stages.push_back(stream::CascadeStage{
      "tier1", stream::compile_tier1_plan(*tier1), stream::AlertInput::Tier1,
      static_cast<float>(args.get_double("tier1-threshold", 0.0)), false});
  cascade_cfg.joint = joint_builder(pipeline);
  cascade_cfg.joint_threshold =
      static_cast<float>(args.get_double("joint-threshold", 0.0));
  cascade_cfg.max_pending = args.get_int("max-pending", 4 * night_cfg.field);

  std::printf("streaming %lld alerts (%lld candidates x 5 bands)...\n",
              static_cast<long long>(night.total_alerts()),
              static_cast<long long>(night_cfg.candidates));
  std::fflush(stdout);
  const auto t0 = std::chrono::steady_clock::now();
  const stream::FilterCascade cascade = stream::run_night(night, cascade_cfg);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const eval::CascadeReport report = eval::cascade_report(cascade.counts());
  std::printf("%s", report.to_string().c_str());
  std::printf("night: %lld alerts in %.2f s (%.0f stamps/s)\n",
              static_cast<long long>(night.total_alerts()), seconds,
              static_cast<double>(night.total_alerts()) / seconds);
  return 0;
}

// serve: the long-running scoring daemon. Signal handling uses the
// self-pipe idiom — the handler only writes one byte; the main thread
// blocks on the read end and runs the graceful drain outside
// signal context.
int g_signal_pipe[2] = {-1, -1};

extern "C" void handle_shutdown_signal(int) {
  const char byte = 1;
  [[maybe_unused]] const auto n = ::write(g_signal_pipe[1], &byte, 1);
}

int cmd_serve(const Args& args) {
  auto pipeline = std::make_shared<core::SnePipeline>(
      core::SnePipeline::load(args.require("model")));

  serve::ScoreServerConfig config;
  config.unix_path = args.get("socket", "");
  config.tcp_host = args.get("host", "127.0.0.1");
  config.tcp_port = static_cast<int>(args.get_int("port", -1));
  if (config.unix_path.empty() && config.tcp_port < 0) {
    config.unix_path = "sne_serve.sock";
  }
  config.workers = static_cast<int>(args.get_int("workers", 1));
  config.batcher.max_batch = args.get_int("max-batch", 16);
  config.batcher.max_delay_us = args.get_int("max-delay-us", 2000);
  config.batcher.max_queue = args.get_int("max-queue", 1024);

  // precision() already resolves the --precision/SNE_PRECISION request
  // against the model: Int8 only when a calibration table was saved.
  const Precision precision = pipeline->precision();
  if (RuntimeConfig::current().precision == Precision::Int8 &&
      precision != Precision::Int8) {
    std::fprintf(stderr,
                 "warning: --precision int8 needs a calibrated model "
                 "(train with --calibrate N); serving fp32\n");
  }
  // Default: serve the joint model directly. --cascade DATASET.snds
  // hosts the full filter cascade instead (tier-1 trained on that
  // dataset; requests then carry joint row + tier-1 crops per row, see
  // docs/FORMATS.md).
  serve::ScorerSpec spec;
  std::shared_ptr<stream::Tier1Cnn> tier1;  // owns the model the plan borrows
  if (args.has("cascade")) {
    const sim::SnDataset cascade_data =
        sim::load_dataset(args.get("cascade", ""));
    tier1 = train_cli_tier1(cascade_data, args);
    stream::CascadeScorerConfig cascade_cfg;
    cascade_cfg.crop = tier1->config().crop;
    cascade_cfg.stages.push_back(stream::CascadeStage{
        "tier1", stream::compile_tier1_plan(*tier1), stream::AlertInput::Tier1,
        static_cast<float>(args.get_double("tier1-threshold", 0.0)), false});
    cascade_cfg.joint = joint_builder(pipeline);
    spec = stream::make_cascade_scorer_spec(cascade_cfg);
  } else {
    spec.joint = joint_builder(pipeline);
  }

  serve::ScoreServer server(config, std::move(spec));

  if (::pipe(g_signal_pipe) != 0) {
    throw std::runtime_error("serve: cannot create signal pipe");
  }
  std::signal(SIGINT, handle_shutdown_signal);
  std::signal(SIGTERM, handle_shutdown_signal);

  server.start();
  if (!config.unix_path.empty()) {
    std::printf("listening on unix socket %s\n", config.unix_path.c_str());
  }
  if (server.tcp_port() >= 0) {
    std::printf("listening on %s:%d\n", config.tcp_host.c_str(),
                server.tcp_port());
  }
  std::printf("serving %s, workers %d, max batch %lld, max delay %lld us "
              "(^C drains and exits)\n",
              precision_name(precision), config.workers,
              static_cast<long long>(config.batcher.max_batch),
              static_cast<long long>(config.batcher.max_delay_us));
  std::fflush(stdout);

  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::printf("\nshutting down: draining %lld queued requests...\n",
              static_cast<long long>(server.queue_depth()));
  std::fflush(stdout);
  server.stop();
  std::printf("%s", server.stats().to_string().c_str());

  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);
  return 0;
}

void print_usage() {
  std::printf(
      "sne — single-epoch supernova classification toolkit\n\n"
      "commands:\n"
      "  generate --samples N --seed S --out FILE.snds [--p-ia 0.5]\n"
      "  train    --dataset FILE.snds --out FILE.snet [--stamp 44]\n"
      "           [--units 100] [--flux-epochs 3] [--flux-pairs 2000]\n"
      "           [--classifier-epochs 30] [--joint-epochs 2] [--seed 1]\n"
      "           [--calibrate N] [--progress]\n"
      "  score    --dataset FILE.snds --model FILE.snet [--top 20]\n"
      "  info     --dataset FILE.snds | --model FILE.snet\n"
      "  snapshot --dataset FILE.snds --out FILE.snap [--kind flux|joint]\n"
      "           [--crop N] [--epoch E] [--batch 64]\n"
      "  snapshot --info FILE.snap\n"
      "  stream   --dataset FILE.snds --model FILE.snet [--candidates 256]\n"
      "           [--pool 64] [--field 32] [--batch 64] [--crop 21]\n"
      "           [--real-fraction 0.5] [--tier1-threshold 0.0]\n"
      "           [--joint-threshold 0.0] [--tier1-epochs 3]\n"
      "           [--tier1-samples 48] [--max-pending 4*field] [--seed 2026]\n"
      "  serve    --model FILE.snet [--socket PATH] [--port N (0=auto)]\n"
      "           [--host 127.0.0.1] [--workers 1] [--max-batch 16]\n"
      "           [--max-delay-us 2000] [--max-queue 1024]\n"
      "           [--cascade FILE.snds [--crop 21] [--tier1-threshold 0.0]]\n\n"
      "global options (any command):\n"
      "  --threads N      worker threads (default: hardware, or "
      "SNE_NUM_THREADS)\n"
      "  --prefetch N     DataLoader prefetch depth (default 1, or "
      "SNE_PREFETCH)\n"
      "  --precision P    serving precision: fp32 (default) or int8 (or\n"
      "                   SNE_PRECISION; int8 needs a calibrated model)\n"
      "  --trace FILE     capture spans, write chrome://tracing JSON\n"
      "  --timing         capture spans, print a summary table on exit\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const bool traced = apply_runtime_options(args);
    int rc = -1;
    if (args.command == "generate") rc = cmd_generate(args);
    else if (args.command == "train") rc = cmd_train(args);
    else if (args.command == "score") rc = cmd_score(args);
    else if (args.command == "info") rc = cmd_info(args);
    else if (args.command == "snapshot") rc = cmd_snapshot(args);
    else if (args.command == "stream") rc = cmd_stream(args);
    else if (args.command == "serve") rc = cmd_serve(args);
    else if (args.command == "help" || args.command == "--help") {
      print_usage();
      return 0;
    }
    if (rc >= 0) {
      if (traced) report_telemetry(args);
      return rc;
    }
    std::fprintf(stderr, "unknown command: %s\n\n", args.command.c_str());
    print_usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
