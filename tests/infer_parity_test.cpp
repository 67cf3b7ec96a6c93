// infer_parity_test.cpp — the serving path (InferencePlan/Session) must
// agree with the training path's eval-mode forward: folded and unfolded
// plans within allclose, repeated runs bitwise identical, save/load round
// trips exact, and the steady state allocation-free. Also pins down
// set_training propagation through the composite modules the split relies
// on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "eval/parity.h"

#include "core/band_cnn.h"
#include "core/inference.h"
#include "data/snapshot.h"
#include "core/joint_model.h"
#include "core/lc_classifier.h"
#include "infer/session.h"
#include "nn/model_io.h"
#include "nn/nn.h"
#include "tensor/gemm.h"
#include "tensor/thread_pool.h"
#include "alloc_counter.h"

namespace sne::core {
namespace {

constexpr std::int64_t kStamp = 36;  // smallest extent the trunk survives

BandCnnConfig small_cnn_config() {
  BandCnnConfig cfg;
  cfg.input_size = kStamp;
  return cfg;
}

// A few training-mode forward passes move the batch-norm running
// statistics off their init so folding is exercised on non-trivial
// values.
void warm_running_stats(BandCnn& cnn, Rng& rng) {
  cnn.set_training(true);
  for (int i = 0; i < 3; ++i) {
    const Tensor x =
        Tensor::rand_uniform({4, 2, kStamp, kStamp}, rng, -50.0f, 400.0f);
    (void)cnn.forward(x);
  }
  cnn.set_training(false);
}

TEST(InferParity, SessionMatchesEvalForwardUnfolded) {
  Rng rng(11);
  BandCnn cnn(small_cnn_config(), rng);
  warm_running_stats(cnn, rng);

  const Tensor x =
      Tensor::rand_uniform({5, 2, kStamp, kStamp}, rng, -50.0f, 400.0f);
  const Tensor ref = cnn.forward(x);

  SessionOptions opts;
  opts.fold_batchnorm = false;
  infer::InferenceSession session = make_session(cnn, opts);
  EXPECT_EQ(session.plan().num_folded(), 0u);
  const Tensor got = session.run(x);
  ASSERT_EQ(got.shape(), ref.shape());
  EXPECT_TRUE(got.allclose(ref, 1e-5f));
}

TEST(InferParity, SessionMatchesEvalForwardFolded) {
  Rng rng(12);
  BandCnn cnn(small_cnn_config(), rng);
  warm_running_stats(cnn, rng);

  const Tensor x =
      Tensor::rand_uniform({8, 2, kStamp, kStamp}, rng, -50.0f, 400.0f);
  const Tensor ref = cnn.forward(x);

  infer::InferenceSession session = make_session(cnn);  // folding on
  EXPECT_EQ(session.plan().num_folded(), 3u);           // three conv stages
  const Tensor got = session.run(x);
  ASSERT_EQ(got.shape(), ref.shape());
  EXPECT_TRUE(got.allclose(ref, 1e-3f));  // folding reassociates rounding
}

TEST(InferParity, ClassifierSessionMatchesEvalForward) {
  Rng rng(13);
  LcClassifierConfig cfg;
  LcClassifier clf(cfg, rng);
  clf.set_training(false);

  const Tensor x = Tensor::rand_uniform({7, cfg.input_dim}, rng, -2.f, 2.f);
  const Tensor ref = clf.forward(x);
  infer::InferenceSession session = make_session(clf);
  const Tensor got = session.run(x);
  ASSERT_EQ(got.shape(), ref.shape());
  EXPECT_TRUE(got.allclose(ref, 1e-5f));
}

TEST(InferParity, JointSessionMatchesEvalForward) {
  Rng rng(14);
  JointModelConfig jc;
  jc.cnn.input_size = kStamp;
  JointModel joint(jc, rng);
  {
    // Warm the CNN's running stats through the joint training path.
    const Tensor warm = Tensor::rand_uniform(
        {2, JointModel::input_dim(kStamp)}, rng, -50.0f, 400.0f);
    (void)joint.forward(warm);
  }
  joint.set_training(false);

  Tensor x = Tensor::rand_uniform({3, JointModel::input_dim(kStamp)}, rng,
                                  -50.0f, 400.0f);
  // Dates live in the trailing 5 slots of each sample; keep them in a
  // plausible normalized range.
  for (std::int64_t i = 0; i < x.extent(0); ++i) {
    float* row = x.data() + (i + 1) * (x.extent(1)) - 5;
    for (int b = 0; b < 5; ++b) row[b] = static_cast<float>(0.1 * (b + 1));
  }
  const Tensor ref = joint.forward(x);

  infer::JointSession session = make_session(joint);
  const Tensor got = session.run(x);
  ASSERT_EQ(got.shape(), ref.shape());
  EXPECT_TRUE(got.allclose(ref, 1e-3f));
}

TEST(InferParity, JointSessionRowsMatchAcrossBatchSizes) {
  // A sample's score must not depend on the batch it is scored in: each
  // row of a batch-32 joint score equals that row scored alone, bit for
  // bit, at both kernel tiers. The server's micro-batcher groups requests
  // arbitrarily, so its responses rely on this. It holds because every
  // GEMM output element is a function of its own row and column alone:
  // the fp32 Linear steps' sgemm_bt is a per-element dot product, and the
  // band CNN's narrow conv3, which lowers the whole batch into one column
  // panel, runs on igemm or on the sgemm tiers' per-element chains (the
  // vector tier's masked column edge included).
  Rng rng(19);
  JointModelConfig jc;
  jc.cnn.input_size = kStamp;
  JointModel joint(jc, rng);
  {
    const Tensor warm = Tensor::rand_uniform(
        {2, JointModel::input_dim(kStamp)}, rng, -50.0f, 400.0f);
    (void)joint.forward(warm);
  }
  joint.set_training(false);

  constexpr std::int64_t kBatch = 32;
  const std::int64_t dim = JointModel::input_dim(kStamp);
  Tensor x = Tensor::rand_uniform({kBatch, dim}, rng, -50.0f, 400.0f);
  for (std::int64_t i = 0; i < kBatch; ++i) {
    float* row = x.data() + (i + 1) * dim - 5;
    for (int b = 0; b < 5; ++b) row[b] = static_cast<float>(0.1 * (b + 1));
  }

  infer::JointSession session = make_session(joint);
  const GemmTier prev = gemm_tier();
  for (const GemmTier tier : {GemmTier::Scalar, GemmTier::Avx2Fma}) {
    if (!gemm_tier_supported(tier)) continue;
    set_gemm_tier(tier);
    const Tensor batched = session.run(x);
    ASSERT_EQ(batched.extent(0), kBatch);
    const std::int64_t width = batched.size() / kBatch;
    Tensor single({1, dim});
    Tensor out;
    for (std::int64_t i = 0; i < kBatch; ++i) {
      std::copy(x.data() + i * dim, x.data() + (i + 1) * dim, single.data());
      session.run(single, out);
      ASSERT_EQ(out.size(), width);
      EXPECT_EQ(std::memcmp(out.data(), batched.data() + i * width,
                            sizeof(float) * static_cast<std::size_t>(width)),
                0)
          << gemm_tier_name(tier) << " row " << i;
    }
  }
  set_gemm_tier(prev);
}

TEST(InferParity, RepeatedRunsAreBitwiseIdentical) {
  Rng rng(15);
  BandCnn cnn(small_cnn_config(), rng);
  warm_running_stats(cnn, rng);

  const Tensor x =
      Tensor::rand_uniform({4, 2, kStamp, kStamp}, rng, -50.0f, 400.0f);
  infer::InferenceSession session = make_session(cnn);
  Tensor a;
  Tensor b;
  session.run(x, a);
  session.run(x, b);
  EXPECT_TRUE(a.equals(b));

  // A second session over a shared plan reproduces the same bits too.
  auto plan = compile_plan(cnn);
  infer::InferenceSession s1(plan);
  infer::InferenceSession s2(plan);
  EXPECT_TRUE(s1.run(x).equals(s2.run(x)));
}

TEST(InferParity, ModelIoRoundTripGivesIdenticalScores) {
  Rng rng(16);
  BandCnn cnn(small_cnn_config(), rng);
  warm_running_stats(cnn, rng);

  const std::string path = testing::TempDir() + "infer_parity_cnn.snet";
  nn::save_model(path, cnn);

  Rng other(99);  // different init: everything must come from the file
  BandCnn reloaded(small_cnn_config(), other);
  nn::load_model(path, reloaded);
  reloaded.set_training(false);

  const Tensor x =
      Tensor::rand_uniform({6, 2, kStamp, kStamp}, rng, -50.0f, 400.0f);
  infer::InferenceSession before = make_session(cnn);
  infer::InferenceSession after = make_session(reloaded);
  EXPECT_TRUE(before.run(x).equals(after.run(x)));
  std::remove(path.c_str());
}

TEST(InferParity, SetTrainingPropagatesThroughComposites) {
  Rng rng(17);
  JointModelConfig jc;
  jc.cnn.input_size = kStamp;
  JointModel joint(jc, rng);

  joint.set_training(false);
  EXPECT_FALSE(joint.is_training());
  EXPECT_FALSE(joint.band_cnn().is_training());
  EXPECT_FALSE(joint.classifier().is_training());
  const nn::Sequential& net = joint.band_cnn().net();
  for (std::size_t i = 0; i < net.size(); ++i) {
    EXPECT_FALSE(net.layer(i).is_training()) << "layer " << i;
  }

  joint.set_training(true);
  EXPECT_TRUE(joint.band_cnn().is_training());
  EXPECT_TRUE(joint.classifier().is_training());
  for (std::size_t i = 0; i < net.size(); ++i) {
    EXPECT_TRUE(net.layer(i).is_training()) << "layer " << i;
  }

  // Highway is a composite of two Linears; the flag must reach both.
  nn::Highway hw(8, rng);
  hw.set_training(false);
  EXPECT_FALSE(hw.transform().is_training());
  EXPECT_FALSE(hw.gate().is_training());
}

TEST(InferParity, FusedPreluSessionMatchesUnfusedBitwise) {
  Rng rng(19);
  BandCnn cnn(small_cnn_config(), rng);
  warm_running_stats(cnn, rng);

  const Tensor x =
      Tensor::rand_uniform({6, 2, kStamp, kStamp}, rng, -50.0f, 400.0f);

  SessionOptions unfused_opts;
  unfused_opts.fuse_prelu = false;
  infer::InferenceSession unfused = make_session(cnn, unfused_opts);
  infer::InferenceSession fused = make_session(cnn);  // fusion on by default

  EXPECT_EQ(unfused.plan().num_fused_prelu(), 0u);
  // One PReLU per conv stage rides the GEMM epilogue; the FC-stage PReLUs
  // follow Linears and stay standalone steps.
  EXPECT_EQ(fused.plan().num_fused_prelu(), 3u);
  EXPECT_EQ(fused.plan().num_steps() + 3, unfused.plan().num_steps());

  // The epilogue applies the same elementwise operations in the same order
  // as the standalone activation pass, so fusion changes no bits.
  EXPECT_TRUE(fused.run(x).equals(unfused.run(x)));
}

TEST(InferParity, PreluFusesIntoUnfoldedAndPointwiseConvs) {
  // Fusion does not require a folded BN: any Conv2d directly followed by a
  // channel-matched PReLU absorbs it — including the 1×1 fast path, whose
  // GEMM runs straight off the input with no column buffer.
  Rng rng(20);
  nn::Sequential net;
  net.emplace<nn::Conv2d>(2, 8, 3, rng);
  net.emplace<nn::PReLU>(8, 0.25f);
  net.emplace<nn::Conv2d>(8, 4, 1, rng);  // pointwise
  net.emplace<nn::PReLU>(4, 0.25f);
  net.set_training(false);

  const Shape sample{2, 10, 10};
  const Tensor x = Tensor::rand_uniform({5, 2, 10, 10}, rng, -2.0f, 2.0f);

  infer::InferenceSession fused(net, sample);
  EXPECT_EQ(fused.plan().num_folded(), 0u);
  EXPECT_EQ(fused.plan().num_fused_prelu(), 2u);
  EXPECT_EQ(fused.plan().num_steps(), 2u);

  infer::PlanOptions off;
  off.fuse_prelu = false;
  infer::InferenceSession unfused(net, sample, off);
  EXPECT_EQ(unfused.plan().num_fused_prelu(), 0u);
  EXPECT_EQ(unfused.plan().num_steps(), 4u);

  EXPECT_TRUE(fused.run(x).equals(unfused.run(x)));
}

TEST(InferParity, PlanValidatesShapesAtPlanTime) {
  Rng rng(21);
  // Layer-level: infer_shape mirrors the execution-path validation instead
  // of returning impossible non-positive extents.
  nn::Conv2d conv(2, 4, 5, rng);
  EXPECT_THROW(conv.infer_shape({1, 2, 3, 3}), std::invalid_argument);
  nn::MaxPool2d max_pool(2);
  EXPECT_THROW(max_pool.infer_shape({1, 2, 1, 1}), std::invalid_argument);
  nn::AvgPool2d avg_pool(2);
  EXPECT_THROW(avg_pool.infer_shape({1, 2, 1, 1}), std::invalid_argument);

  // Plan-level: a network that cannot run on the sample shape is rejected
  // when the plan is built, not when the first batch arrives.
  nn::Sequential net;
  net.emplace<nn::Conv2d>(2, 4, 5, rng);
  EXPECT_THROW(infer::InferencePlan(net, {2, 4, 4}), std::invalid_argument);
}

// ---- int8 lowering ----

// A calibrated int8 session for the small BandCnn, plus the fp32 bits to
// compare against. Calibration streams a few batches through a fresh fp32
// session, exactly as the CLI does.
struct QuantFixture {
  explicit QuantFixture(unsigned seed) : rng(seed), cnn(small_cnn_config(), rng) {
    warm_running_stats(cnn, rng);
    for (int i = 0; i < 3; ++i) {
      calib_batches.push_back(
          Tensor::rand_uniform({4, 2, kStamp, kStamp}, rng, -50.0f, 400.0f));
    }
    infer::InferenceSession fp32 = make_session(cnn);
    Tensor out;
    for (const Tensor& b : calib_batches) fp32.calibrate(b, out, table);
  }

  infer::InferenceSession int8_session() {
    SessionOptions opts;
    opts.precision = Precision::Int8;
    opts.calibration = &table;
    return make_session(cnn, opts);
  }

  Rng rng;
  BandCnn cnn;
  std::vector<Tensor> calib_batches;
  infer::CalibrationTable table;
};

TEST(Int8Parity, QuantizedSessionTracksFp32WithinTolerance) {
  QuantFixture fx(21);
  const Tensor x =
      Tensor::rand_uniform({6, 2, kStamp, kStamp}, fx.rng, -50.0f, 400.0f);
  infer::InferenceSession fp32 = make_session(fx.cnn);
  infer::InferenceSession int8 = fx.int8_session();
  const Tensor ref = fp32.run(x);
  const Tensor got = int8.run(x);
  ASSERT_EQ(got.shape(), ref.shape());

  // Quantization noise, not drift: the embeddings should agree to a few
  // percent of the activation scale, far looser than float parity but
  // bounded.
  float max_abs = 0.0f, ref_max = 0.0f;
  for (std::int64_t i = 0; i < ref.size(); ++i) {
    max_abs = std::max(max_abs, std::abs(got.data()[i] - ref.data()[i]));
    ref_max = std::max(ref_max, std::abs(ref.data()[i]));
  }
  EXPECT_GT(ref_max, 0.0f);
  EXPECT_LT(max_abs, 0.05f * ref_max)
      << "max|Δ|=" << max_abs << " vs max|ref|=" << ref_max;
}

TEST(Int8Parity, QuantizedSessionIsBitwiseInvariant) {
  QuantFixture fx(22);
  const Tensor x =
      Tensor::rand_uniform({5, 2, kStamp, kStamp}, fx.rng, -50.0f, 400.0f);
  infer::InferenceSession s1 = fx.int8_session();
  const Tensor first = s1.run(x);

  // Rerun in the same session, a fresh session, under a different thread
  // count, and on the scalar kernel tier: the int8 path's integer
  // accumulation plus the shared requant sequence make all of them
  // bitwise identical — a strictly stronger contract than fp32's
  // within-tier determinism.
  EXPECT_TRUE(s1.run(x).equals(first));
  infer::InferenceSession s2 = fx.int8_session();
  EXPECT_TRUE(s2.run(x).equals(first));

  set_num_threads(4);
  EXPECT_TRUE(s2.run(x).equals(first));
  set_num_threads(1);

  const GemmTier prev = gemm_tier();
  set_gemm_tier(GemmTier::Scalar);
  EXPECT_TRUE(s2.run(x).equals(first));
  set_gemm_tier(prev);
}

TEST(Int8Parity, CalibrationIsBatchOrderAndThreadCountInvariant) {
  QuantFixture fx(23);

  // Replay the same samples in reverse order and under a different thread
  // count: the table folds an order-independent max over a deterministic
  // fp32 path, so the recorded ranges must be byte-identical.
  infer::CalibrationTable reversed;
  {
    infer::InferenceSession fp32 = make_session(fx.cnn);
    Tensor out;
    set_num_threads(4);
    for (auto it = fx.calib_batches.rbegin(); it != fx.calib_batches.rend();
         ++it) {
      fp32.calibrate(*it, out, reversed);
    }
    set_num_threads(1);
  }
  ASSERT_EQ(reversed.step_max.size(), fx.table.step_max.size());
  EXPECT_EQ(reversed.batches, fx.table.batches);
  EXPECT_TRUE(reversed.input_max.equals(fx.table.input_max));
  EXPECT_TRUE(reversed.step_max.equals(fx.table.step_max));
}

TEST(Int8Parity, CalibrationFromSnapshotReplayMatchesLiveRender) {
  // The satellite contract of the calibration table: scales recorded from
  // a SnapshotDataset replay of the calibration set are byte-identical to
  // scales recorded from the live-rendered batches, at any thread count —
  // snapshot replay is bitwise-faithful and max-abs is order-independent,
  // so the int8 lowering cannot depend on which ingest path fed it.
  Rng rng(29);
  BandCnn cnn(small_cnn_config(), rng);
  warm_running_stats(cnn, rng);

  const nn::LazyDataset source(12, [](std::int64_t i) {
    Tensor x({2, kStamp, kStamp});
    for (std::int64_t k = 0; k < x.size(); ++k) {
      x[k] = static_cast<float>((i * 131 + k) % 449) - 50.0f;
    }
    return nn::Sample{std::move(x), Tensor({1}, static_cast<float>(i % 2))};
  });
  const std::string path = testing::TempDir() + "calib_replay.snap";
  data::write_snapshot(path, source, 4);
  const data::SnapshotDataset snap(path);

  std::vector<std::int64_t> order(12);
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::int64_t>(i);
  }

  const auto record = [&](const nn::Dataset& ds) {
    infer::InferenceSession session = make_session(cnn);
    infer::CalibrationTable table;
    Tensor out;
    for (std::int64_t first = 0; first < 12; first += 4) {
      session.calibrate(ds.get_batch(order, first, 4).x, out, table);
    }
    return table;
  };

  const infer::CalibrationTable live = record(source);
  set_num_threads(4);
  const infer::CalibrationTable replay = record(snap);
  set_num_threads(1);
  std::remove(path.c_str());

  EXPECT_EQ(live.batches, replay.batches);
  EXPECT_TRUE(live.input_max.equals(replay.input_max));
  EXPECT_TRUE(live.step_max.equals(replay.step_max));
}

TEST(Int8Parity, CalibrateRejectsNonFp32Session) {
  QuantFixture fx(24);
  infer::InferenceSession int8 = fx.int8_session();
  infer::CalibrationTable t;
  Tensor out;
  EXPECT_THROW(int8.calibrate(fx.calib_batches[0], out, t), std::logic_error);
}

TEST(Int8Parity, Int8PlanRequiresCalibration) {
  Rng rng(25);
  BandCnn cnn(small_cnn_config(), rng);
  warm_running_stats(cnn, rng);
  SessionOptions opts;
  opts.precision = Precision::Int8;
  EXPECT_THROW(make_session(cnn, opts), std::invalid_argument);
}

TEST(Int8Parity, QuantizedSteadyStateRunIsAllocationFree) {
  QuantFixture fx(26);
  const Tensor x =
      Tensor::rand_uniform({8, 2, kStamp, kStamp}, fx.rng, -50.0f, 400.0f);
  infer::InferenceSession session = fx.int8_session();
  Tensor out;
  session.run(x, out);  // warmup: arena + int8 scratch sized here
  session.run(x, out);

  test::arm_alloc_counter();
  session.run(x, out);
  EXPECT_EQ(test::disarm_alloc_counter(), 0);
}

TEST(Int8Parity, JointCalibrationFactoryIsDeterministic) {
  Rng rng(27);
  JointModelConfig jc;
  jc.cnn.input_size = kStamp;
  JointModel joint(jc, rng);
  {
    const Tensor warm = Tensor::rand_uniform(
        {2, JointModel::input_dim(kStamp)}, rng, -50.0f, 400.0f);
    (void)joint.forward(warm);
  }
  joint.set_training(false);

  std::vector<Tensor> batches;
  for (int i = 0; i < 2; ++i) {
    Tensor x = Tensor::rand_uniform({3, JointModel::input_dim(kStamp)}, rng,
                                    -50.0f, 400.0f);
    for (std::int64_t s = 0; s < x.extent(0); ++s) {
      float* row = x.data() + (s + 1) * x.extent(1) - 5;
      for (int b = 0; b < 5; ++b) row[b] = static_cast<float>(0.1 * (b + 1));
    }
    batches.push_back(std::move(x));
  }

  const infer::JointCalibration t1 = calibrate(joint, batches);
  set_num_threads(4);
  const infer::JointCalibration t2 = calibrate(joint, batches);
  set_num_threads(1);
  EXPECT_TRUE(t1.cnn.input_max.equals(t2.cnn.input_max));
  EXPECT_TRUE(t1.cnn.step_max.equals(t2.cnn.step_max));
  EXPECT_TRUE(t1.classifier.input_max.equals(t2.classifier.input_max));
  EXPECT_TRUE(t1.classifier.step_max.equals(t2.classifier.step_max));

  // And the int8 joint session built from it is itself rerun-invariant.
  SessionOptions int8_opts;
  int8_opts.precision = Precision::Int8;
  int8_opts.joint_calibration = &t1;
  infer::JointSession session = make_session(joint, int8_opts);
  const Tensor first = session.run(batches[0]);
  EXPECT_TRUE(session.run(batches[0]).equals(first));
}

TEST(Int8Parity, JointAucStaysWithinQuantizationBudget) {
  // The acceptance gate of the whole int8 path, at joint-model scale:
  // score a few hundred samples at fp32 and int8 and require the ROC AUC
  // to move by no more than the repo's pinned budget of 1e-3. Labels are
  // synthesized from the fp32 scores' median, which makes the reference
  // AUC 1.0 and the delta a pure measure of quantization-induced rank
  // inversions near the decision boundary — the hardest case for the
  // budget, not the easiest.
  Rng rng(28);
  JointModelConfig jc;
  jc.cnn.input_size = kStamp;
  JointModel joint(jc, rng);
  {
    const Tensor warm = Tensor::rand_uniform(
        {2, JointModel::input_dim(kStamp)}, rng, -50.0f, 400.0f);
    (void)joint.forward(warm);
  }
  joint.set_training(false);

  const auto make_batch = [&](std::int64_t n) {
    Tensor x = Tensor::rand_uniform({n, JointModel::input_dim(kStamp)}, rng,
                                    -50.0f, 400.0f);
    for (std::int64_t s = 0; s < x.extent(0); ++s) {
      float* row = x.data() + (s + 1) * x.extent(1) - 5;
      for (int b = 0; b < 5; ++b) row[b] = static_cast<float>(0.1 * (b + 1));
    }
    return x;
  };

  std::vector<Tensor> calib;
  for (int i = 0; i < 3; ++i) calib.push_back(make_batch(8));
  const infer::JointCalibration table = calibrate(joint, calib);

  SessionOptions int8_opts;
  int8_opts.precision = Precision::Int8;
  int8_opts.joint_calibration = &table;
  infer::JointSession fp32 = make_session(joint);
  infer::JointSession int8 = make_session(joint, int8_opts);

  constexpr std::int64_t kSamples = 192;
  const Tensor batch = make_batch(kSamples);
  const Tensor ref = fp32.run(batch);
  const Tensor got = int8.run(batch);
  ASSERT_EQ(ref.size(), kSamples);
  ASSERT_EQ(got.size(), kSamples);

  std::vector<float> sorted(ref.data(), ref.data() + kSamples);
  std::nth_element(sorted.begin(), sorted.begin() + kSamples / 2,
                   sorted.end());
  const float median = sorted[kSamples / 2];
  std::vector<float> labels(kSamples);
  for (std::int64_t i = 0; i < kSamples; ++i) {
    labels[i] = ref.data()[i] > median ? 1.0f : 0.0f;
  }

  const eval::PrecisionParity parity = eval::precision_parity(
      std::span<const float>(ref.data(), kSamples),
      std::span<const float>(got.data(), kSamples), labels);
  EXPECT_DOUBLE_EQ(parity.auc_reference, 1.0);
  EXPECT_LE(std::abs(parity.auc_delta), 1e-3)
      << "auc fp32=" << parity.auc_reference
      << " int8=" << parity.auc_quantized
      << " max|Δscore|=" << parity.max_abs_diff;
}

TEST(InferParity, SteadyStateRunIsAllocationFree) {
  Rng rng(18);
  BandCnn cnn(small_cnn_config(), rng);
  warm_running_stats(cnn, rng);

  const Tensor x =
      Tensor::rand_uniform({16, 2, kStamp, kStamp}, rng, -50.0f, 400.0f);
  infer::InferenceSession session = make_session(cnn);
  Tensor out;
  session.run(x, out);  // warmup: arena + scratch sized here
  session.run(x, out);

  test::arm_alloc_counter();
  session.run(x, out);
  EXPECT_EQ(test::disarm_alloc_counter(), 0);
}

}  // namespace
}  // namespace sne::core
