// gemm_dispatch_test.cpp — the runtime-dispatched GEMM kernel tiers. The
// scalar kernel is the determinism bit-reference; the AVX2+FMA tier must
// agree with it to float tolerance on arbitrary shapes (including ragged
// register-tile tails), be bitwise deterministic within itself (repeated
// runs, thread-count sweeps, serial-vs-pooled drivers), and the fused
// epilogue (bias + PReLU) must change no bits relative to the separate
// passes it replaces. Also pins the 1×1 conv fast path: bitwise equal to
// the im2col lowering and free of column-buffer allocations, and the
// 2×2 max pool's AVX2 kernel (serving and training, argmax included)
// against the scalar walk.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "nn/conv2d.h"
#include "nn/pooling.h"
#include "tensor/gemm.h"
#include "tensor/qtensor.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "tensor/thread_pool.h"
#include "alloc_counter.h"

namespace sne {
namespace {

// Restores the process-wide tier on scope exit so test order cannot leak.
class TierGuard {
 public:
  TierGuard() : prev_(gemm_tier()) {}
  ~TierGuard() { set_gemm_tier(prev_); }

 private:
  GemmTier prev_;
};

bool vector_tier_available() {
  return gemm_tier_supported(GemmTier::Avx2Fma);
}

TEST(GemmDispatch, TierNamesAreStable) {
  EXPECT_STREQ(gemm_tier_name(GemmTier::Scalar), "scalar");
  EXPECT_STREQ(gemm_tier_name(GemmTier::Avx2Fma), "avx2");
}

TEST(GemmDispatch, ScalarTierAlwaysSupportedAndSettable) {
  TierGuard guard;
  EXPECT_TRUE(gemm_tier_supported(GemmTier::Scalar));
  set_gemm_tier(GemmTier::Scalar);
  EXPECT_EQ(gemm_tier(), GemmTier::Scalar);
}

TEST(GemmDispatch, UnsupportedRequestClampsToScalar) {
  TierGuard guard;
  set_gemm_tier(GemmTier::Avx2Fma);
  if (vector_tier_available()) {
    EXPECT_EQ(gemm_tier(), GemmTier::Avx2Fma);
  } else {
    EXPECT_EQ(gemm_tier(), GemmTier::Scalar);
  }
}

// Shape sweep deliberately heavy on ragged tails: the vector kernel tiles
// rows by 6/4/1 and columns by 16/8/1, so exercise every remainder class.
class GemmTierParity
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmTierParity, VectorMatchesScalar) {
  if (!vector_tier_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  const auto [m, n, k] = GetParam();
  TierGuard guard;
  Rng rng(m * 7919 + n * 101 + k);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  Tensor c_scalar = Tensor::randn({m, n}, rng);
  Tensor c_vector = c_scalar;

  set_gemm_tier(GemmTier::Scalar);
  sgemm(m, n, k, 0.9f, a.data(), b.data(), 0.2f, c_scalar.data());
  set_gemm_tier(GemmTier::Avx2Fma);
  sgemm(m, n, k, 0.9f, a.data(), b.data(), 0.2f, c_vector.data());

  // The tiers reassociate the k reduction, so agreement is to float
  // tolerance, not bitwise.
  EXPECT_TRUE(c_vector.allclose(c_scalar, 1e-3f))
      << "m=" << m << " n=" << n << " k=" << k;
}

TEST_P(GemmTierParity, SerialDriverMatchesPooledBitwisePerTier) {
  const auto [m, n, k] = GetParam();
  TierGuard guard;
  Rng rng(m + 31 * n + 997 * k);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);

  for (const GemmTier tier : {GemmTier::Scalar, GemmTier::Avx2Fma}) {
    if (!gemm_tier_supported(tier)) continue;
    set_gemm_tier(tier);
    Tensor c_pool({m, n});
    Tensor c_serial({m, n});
    set_num_threads(4);
    sgemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_pool.data());
    set_num_threads(1);
    sgemm_serial(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_serial.data());
    EXPECT_TRUE(c_pool.equals(c_serial)) << gemm_tier_name(tier);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GemmTierParity,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(6, 16, 32), std::make_tuple(7, 17, 33),
                      std::make_tuple(10, 3844, 50),
                      std::make_tuple(30, 750, 500),
                      std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 33, 129),
                      std::make_tuple(70, 90, 260),
                      std::make_tuple(128, 24, 300)));

TEST(GemmDispatch, VectorTierIsThreadCountInvariant) {
  if (!vector_tier_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  TierGuard guard;
  set_gemm_tier(GemmTier::Avx2Fma);
  const std::int64_t m = 130, n = 90, k = 260;
  Rng rng(42);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);

  Tensor c1({m, n});
  set_num_threads(1);
  sgemm(m, n, k, 1.3f, a.data(), b.data(), 0.0f, c1.data());
  Tensor c4({m, n});
  set_num_threads(4);
  sgemm(m, n, k, 1.3f, a.data(), b.data(), 0.0f, c4.data());
  set_num_threads(1);
  EXPECT_TRUE(c1.equals(c4));

  // And repeated runs reproduce the same bits: the vector tier has its own
  // determinism pin, independent of the scalar bit-reference.
  Tensor c_again({m, n});
  sgemm(m, n, k, 1.3f, a.data(), b.data(), 0.0f, c_again.data());
  EXPECT_TRUE(c1.equals(c_again));
}

TEST(GemmDispatch, VectorTierElementsAreSequentialFma) {
  // The vector tier's per-element contract (tensor/gemm.h): every element
  // of C is the sequential std::fma chain over its k products, whatever
  // its row group (6/4/1) or column position (16-column tiles, the masked
  // 1–7 column edge) — for sgemm, sgemm_serial and sgemm_at alike. k
  // crosses the 256-deep k block; m sweeps every row-tile remainder.
  if (!vector_tier_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  TierGuard guard;
  set_gemm_tier(GemmTier::Avx2Fma);
  constexpr std::int64_t kMaxM = 70, kMaxK = 500, kMaxN = 289;
  Rng rng(29);
  const Tensor a_pool = Tensor::randn({kMaxM, kMaxK}, rng);
  const Tensor b_pool = Tensor::randn({kMaxK, kMaxN}, rng);
  std::vector<float> a, at, b, ref, c;
  std::int64_t checked = 0, differ = 0;
  for (std::int64_t m = 1; m <= kMaxM; ++m) {
    for (const std::int64_t n : {1, 4, 7, 16, 20, 33, 144, 289}) {
      for (const std::int64_t k : {1, 25, 255, 256, 257, 500}) {
        a.resize(static_cast<std::size_t>(m * k));
        at.resize(a.size());
        b.assign(b_pool.data(), b_pool.data() + k * n);
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t p = 0; p < k; ++p) {
            a[static_cast<std::size_t>(i * k + p)] = a_pool.at(i, p);
            at[static_cast<std::size_t>(p * m + i)] = a_pool.at(i, p);
          }
        }
        ref.assign(static_cast<std::size_t>(m * n), 0.0f);
        for (std::int64_t i = 0; i < m; ++i) {
          float* r = ref.data() + i * n;
          for (std::int64_t p = 0; p < k; ++p) {
            const float av = a[static_cast<std::size_t>(i * k + p)];
            const float* bp = b.data() + p * n;
            for (std::int64_t j = 0; j < n; ++j) r[j] = std::fma(av, bp[j], r[j]);
          }
        }
        const auto check = [&](const char* kernel) {
          for (std::size_t e = 0; e < ref.size(); ++e) {
            ++checked;
            if (std::memcmp(&c[e], &ref[e], sizeof(float)) == 0) continue;
            if (differ++ == 0) {
              ADD_FAILURE() << kernel << " m=" << m << " n=" << n
                            << " k=" << k << " element " << e << ": "
                            << c[e] << " != fma chain " << ref[e];
            }
          }
        };
        c.assign(ref.size(), -1.0f);
        sgemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
        check("sgemm");
        c.assign(ref.size(), -1.0f);
        sgemm_serial(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
        check("sgemm_serial");
        c.assign(ref.size(), -1.0f);
        sgemm_at(m, n, k, 1.0f, at.data(), b.data(), 0.0f, c.data());
        check("sgemm_at");
      }
    }
  }
  EXPECT_EQ(differ, 0) << "of " << checked << " elements";
}

TEST(GemmDispatch, EpilogueBiasPreluMatchesSeparatePassesBitwise) {
  const std::int64_t m = 21, n = 135, k = 77;
  Rng rng(7);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  const Tensor bias = Tensor::randn({m}, rng);
  const Tensor slope = Tensor::rand_uniform({m}, rng, 0.01f, 0.5f);

  TierGuard guard;
  for (const GemmTier tier : {GemmTier::Scalar, GemmTier::Avx2Fma}) {
    if (!gemm_tier_supported(tier)) continue;
    set_gemm_tier(tier);

    Tensor c_ref({m, n});
    sgemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_ref.data());
    for (std::int64_t i = 0; i < m; ++i) {
      float* row = c_ref.data() + i * n;
      for (std::int64_t j = 0; j < n; ++j) row[j] += bias[i];
      for (std::int64_t j = 0; j < n; ++j) {
        row[j] = row[j] > 0.0f ? row[j] : slope[i] * row[j];
      }
    }

    Tensor c_fused({m, n});
    sgemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_fused.data(),
          GemmEpilogue{bias.data(), slope.data()});
    EXPECT_TRUE(c_fused.equals(c_ref)) << gemm_tier_name(tier);

    Tensor c_serial({m, n});
    sgemm_serial(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_serial.data(),
                 GemmEpilogue{bias.data(), slope.data()});
    EXPECT_TRUE(c_serial.equals(c_ref)) << gemm_tier_name(tier);
  }
}

TEST(GemmDispatch, EpilogueStillAppliesOnDegenerateCalls) {
  // alpha == 0 short-circuits the accumulation but the bias must still
  // land on the beta-scaled C.
  const Tensor bias({2}, {1.0f, -2.0f});
  Tensor c({2, 3}, 4.0f);
  sgemm(2, 3, 5, 0.0f, nullptr, nullptr, 0.5f, c.data(),
        GemmEpilogue{bias.data(), nullptr});
  for (std::int64_t j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(c.at(0, j), 3.0f);
    EXPECT_FLOAT_EQ(c.at(1, j), 0.0f);
  }
}

// ---- 1×1 convolution fast path ----

TEST(PointwiseConv, MatchesExplicitIm2colLoweringBitwise) {
  Rng rng(11);
  nn::Conv2d conv(6, 9, /*kernel=*/1, rng);
  const std::int64_t h = 13, w = 17;
  const Tensor x = Tensor::randn({3, 6, h, w}, rng);

  // Reference: the full im2col lowering the fast path skips. For 1×1 the
  // column matrix is a verbatim copy of the sample, so the results must
  // agree bit-for-bit, not just within tolerance.
  Tensor ref({3, 9, h, w});
  std::vector<float> cols(static_cast<std::size_t>(6 * h * w));
  for (std::int64_t i = 0; i < 3; ++i) {
    im2col(x.data() + i * 6 * h * w, 6, h, w, 1, 1, 0, 1, cols.data());
    sgemm_serial(9, h * w, 6, 1.0f, conv.weight().value.data(), cols.data(),
                 0.0f, ref.data() + i * 9 * h * w,
                 GemmEpilogue{conv.bias().value.data(), nullptr});
  }

  Tensor got;
  conv.infer_into(x, got);
  ASSERT_EQ(got.shape(), ref.shape());
  EXPECT_TRUE(got.equals(ref));

  // The training forward shares the fast path (plus caching for backward).
  Tensor fwd = conv.forward(x);
  EXPECT_TRUE(fwd.equals(ref));
}

TEST(PointwiseConv, BackwardMatchesGeneralPath) {
  // A 1×1 conv built as kernel-size-1 must produce the same gradients as
  // the im2col path would: compare against a finite-difference-free
  // reference built from the same GEMM primitives.
  Rng rng(12);
  nn::Conv2d conv(4, 5, 1, rng);
  const Tensor x = Tensor::randn({2, 4, 6, 6}, rng);
  Tensor y = conv.forward(x);
  const Tensor gy = Tensor::randn(y.shape(), rng);
  conv.zero_grad();
  const Tensor gx = conv.backward(gy);
  ASSERT_EQ(gx.shape(), x.shape());

  // Reference input gradient: Wᵀ · gy per sample, scattered by the
  // identity col2im.
  Tensor gx_ref(x.shape());
  std::vector<float> grad_cols(static_cast<std::size_t>(4 * 36));
  for (std::int64_t i = 0; i < 2; ++i) {
    sgemm_at(4, 36, 5, 1.0f, conv.weight().value.data(),
             gy.data() + i * 5 * 36, 0.0f, grad_cols.data());
    col2im(grad_cols.data(), 4, 6, 6, 1, 1, 0, 1,
           gx_ref.data() + i * 4 * 36);
  }
  EXPECT_TRUE(gx.equals(gx_ref));
}

// ---- int8 GEMM tier (quantized serving path) ----

// Scalar reference for the full igemm contract: exact int32 accumulation,
// then the requant epilogue in its documented element order (scale, bias,
// PReLU). Everything is either exact integer arithmetic or a short fixed
// float sequence, so igemm at ANY tier must match this bit for bit.
Tensor igemm_reference(std::int64_t m, std::int64_t n, std::int64_t k,
                       const std::int8_t* a, const std::int8_t* b,
                       const IgemmEpilogue& ep) {
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += std::int32_t{a[i * k + p]} * std::int32_t{b[p * n + j]};
      }
      // The requant contract is the FUSED multiply-add (fmaf in the
      // scalar epilogue, vfmaddps in the vector one — one rounding), so
      // the reference uses fmaf explicitly. A null bias still adds 0.0f,
      // as the library does.
      const float v0 = std::fmaf(static_cast<float>(acc), ep.scale[i],
                                 ep.bias != nullptr ? ep.bias[i] : 0.0f);
      float v = v0;
      if (ep.prelu != nullptr && !(v > 0.0f)) v *= ep.prelu[i];
      c.data()[i * n + j] = v;
    }
  }
  return c;
}

std::vector<std::int8_t> pattern_i8(std::int64_t count, int seed) {
  std::vector<std::int8_t> v(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    v[static_cast<std::size_t>(i)] =
        static_cast<std::int8_t>((i * 31 + seed * 17) % 255 - 127);
  }
  return v;
}

// Ragged sweep: the AVX2 igemm tiles rows by 6 and columns by 16 with an
// odd-k scalar tail, so cover every remainder class. Unlike the f32
// parity, equality here is EXACT — integer accumulation plus a shared
// epilogue operation sequence leaves no reassociation slack.
class IgemmTierParity
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(IgemmTierParity, TiersAgreeBitwise) {
  const auto [m, n, k] = GetParam();
  const auto a = pattern_i8(m * k, m + n);
  const auto b = pattern_i8(k * n, k);
  std::vector<float> scale(static_cast<std::size_t>(m));
  std::vector<float> bias(static_cast<std::size_t>(m));
  std::vector<float> prelu(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    scale[static_cast<std::size_t>(i)] = 0.003f + 0.001f * static_cast<float>(i);
    bias[static_cast<std::size_t>(i)] = 0.25f - 0.1f * static_cast<float>(i % 7);
    prelu[static_cast<std::size_t>(i)] = 0.05f + 0.01f * static_cast<float>(i % 3);
  }
  const IgemmEpilogue ep{scale.data(), bias.data(), prelu.data()};
  const Tensor ref = igemm_reference(m, n, k, a.data(), b.data(), ep);

  TierGuard guard;
  for (const GemmTier tier : {GemmTier::Scalar, GemmTier::Avx2Fma}) {
    if (!gemm_tier_supported(tier)) continue;
    set_gemm_tier(tier);
    Tensor c({m, n});
    igemm(m, n, k, a.data(), b.data(), c.data(), ep);
    EXPECT_TRUE(c.equals(ref))
        << gemm_tier_name(tier) << " m=" << m << " n=" << n << " k=" << k;
    Tensor c_serial({m, n});
    igemm_serial(m, n, k, a.data(), b.data(), c_serial.data(), ep);
    EXPECT_TRUE(c_serial.equals(ref)) << "serial " << gemm_tier_name(tier);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, IgemmTierParity,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(6, 16, 32), std::make_tuple(7, 17, 33),
                      std::make_tuple(10, 1600, 50),
                      std::make_tuple(20, 256, 250),
                      std::make_tuple(30, 16, 500),
                      std::make_tuple(13, 47, 129),
                      std::make_tuple(64, 64, 64)));

TEST(IgemmDispatch, SaturatedOperandsAccumulateExactly) {
  // All-(-127)·(+127) operands drive every k step to the magnitude
  // extreme: acc = -k·127² must come out exactly in int32 (the scheme
  // saturates only in quantize_into, never inside the GEMM).
  const std::int64_t m = 7, n = 19, k = 1000;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k), -127);
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n), 127);
  std::vector<float> scale(static_cast<std::size_t>(m), 1.0f);
  const IgemmEpilogue ep{scale.data(), nullptr, nullptr};
  const float want = static_cast<float>(-k * 127 * 127);

  TierGuard guard;
  for (const GemmTier tier : {GemmTier::Scalar, GemmTier::Avx2Fma}) {
    if (!gemm_tier_supported(tier)) continue;
    set_gemm_tier(tier);
    Tensor c({m, n});
    igemm(m, n, k, a.data(), b.data(), c.data(), ep);
    for (std::int64_t i = 0; i < m * n; ++i) {
      ASSERT_EQ(c.data()[i], want) << gemm_tier_name(tier);
    }
  }
}

TEST(IgemmDispatch, RejectsKBeyondAccumulatorBound) {
  std::vector<std::int8_t> dummy(1);
  std::vector<float> scale(1, 1.0f);
  Tensor c({1, 1});
  EXPECT_THROW(igemm(1, 1, kIgemmMaxK + 1, dummy.data(), dummy.data(),
                     c.data(), IgemmEpilogue{scale.data(), nullptr, nullptr}),
               std::invalid_argument);
}

TEST(IgemmDispatch, ThreadCountAndRerunInvariantBitwise) {
  const std::int64_t m = 70, n = 90, k = 260;
  const auto a = pattern_i8(m * k, 5);
  const auto b = pattern_i8(k * n, 9);
  std::vector<float> scale(static_cast<std::size_t>(m), 0.01f);
  std::vector<float> bias(static_cast<std::size_t>(m), -0.3f);
  const IgemmEpilogue ep{scale.data(), bias.data(), nullptr};

  TierGuard guard;
  for (const GemmTier tier : {GemmTier::Scalar, GemmTier::Avx2Fma}) {
    if (!gemm_tier_supported(tier)) continue;
    set_gemm_tier(tier);
    Tensor c1({m, n});
    set_num_threads(1);
    igemm(m, n, k, a.data(), b.data(), c1.data(), ep);
    Tensor c4({m, n});
    set_num_threads(4);
    igemm(m, n, k, a.data(), b.data(), c4.data(), ep);
    set_num_threads(1);
    EXPECT_TRUE(c1.equals(c4)) << gemm_tier_name(tier);
    Tensor c_again({m, n});
    igemm(m, n, k, a.data(), b.data(), c_again.data(), ep);
    EXPECT_TRUE(c1.equals(c_again)) << gemm_tier_name(tier);
  }
}

TEST(IgemmDispatch, SerialIsAllocationFreeAfterWarmup) {
  const std::int64_t m = 20, n = 256, k = 250;
  const auto a = pattern_i8(m * k, 1);
  const auto b = pattern_i8(k * n, 2);
  std::vector<float> scale(static_cast<std::size_t>(m), 0.01f);
  const IgemmEpilogue ep{scale.data(), nullptr, nullptr};
  Tensor c({m, n});
  igemm_serial(m, n, k, a.data(), b.data(), c.data(), ep);  // warm scratch

  test::arm_alloc_counter();
  igemm_serial(m, n, k, a.data(), b.data(), c.data(), ep);
  EXPECT_EQ(test::disarm_alloc_counter(), 0);
}

// ---- grouped narrow convs ----

TEST(GroupedConv, SamplesMatchPerSampleLoweringBitwise) {
  // Serving convs narrower than one GEMM register tile lower many samples
  // into one column panel. Every sample of a batch of 1…70 must equal the
  // same sample run alone, bit for bit, in fp32 (bias + PReLU epilogue)
  // and int8, at both tiers, for the band CNN's three conv shapes at
  // stamp 36 (output planes 32×32, 12×12, 2×2) and tier 1's two (17×17,
  // 4×4). Batch sizes past 64 also cover a second, partial group.
  struct Shape5 {
    std::int64_t cin, cout, extent;
  };
  const Shape5 shapes[] = {
      {2, 10, 36}, {10, 20, 16}, {20, 30, 6}, {1, 8, 21}, {8, 16, 8}};
  constexpr std::int64_t kMaxBatch = 70;
  const auto same_rows = [](const Tensor& got, const Tensor& ref,
                            std::int64_t rows) {
    const std::int64_t per = ref.size() / ref.extent(0);
    return got.extent(0) == rows &&
           std::memcmp(got.data(), ref.data(),
                       sizeof(float) * static_cast<std::size_t>(rows * per)) ==
               0;
  };
  TierGuard guard;
  for (const GemmTier tier : {GemmTier::Scalar, GemmTier::Avx2Fma}) {
    if (!gemm_tier_supported(tier)) continue;
    set_gemm_tier(tier);
    for (const Shape5& sh : shapes) {
      Rng rng(static_cast<std::uint64_t>(sh.cin * 100 + sh.extent));
      nn::Conv2d conv(sh.cin, sh.cout, 5, rng);
      const Tensor x = Tensor::randn({kMaxBatch, sh.cin, sh.extent, sh.extent},
                                     rng);
      const Tensor bias = Tensor::randn({sh.cout}, rng);
      const Tensor slope = Tensor::rand_uniform({sh.cout}, rng, 0.05f, 0.5f);
      const QTensor qw = quantize_per_channel(conv.weight().value);
      const float in_max = max_abs(x.data(), x.size());
      Tensor requant({sh.cout});
      for (std::int64_t c = 0; c < sh.cout; ++c) {
        requant[c] = in_max / 127.0f * qw.scales[c];
      }
      const IgemmEpilogue iep{requant.data(), bias.data(), slope.data()};
      nn::ConvInt8Scratch scratch;
      const auto run = [&](bool int8, ConstTensorView in, Tensor& out) {
        if (int8) {
          conv.infer_quantized(qw.data.data(), iep, 127.0f / in_max, in, out,
                               scratch);
        } else {
          conv.infer_with(conv.weight().value, bias, in, out, &slope);
        }
      };
      for (const bool int8 : {false, true}) {
        // Reference: each sample alone, stacked.
        Tensor ref;
        Tensor one;
        for (std::int64_t i = 0; i < kMaxBatch; ++i) {
          run(int8, ConstTensorView(x).slice(0, i, i + 1), one);
          if (i == 0) {
            Shape shape = one.shape();
            shape[0] = kMaxBatch;
            ref = Tensor(shape);
          }
          std::copy(one.data(), one.data() + one.size(),
                    ref.data() + i * one.size());
        }
        Tensor got;
        for (std::int64_t batch = 1; batch <= kMaxBatch; ++batch) {
          run(int8, ConstTensorView(x).slice(0, 0, batch), got);
          EXPECT_TRUE(same_rows(got, ref, batch))
              << gemm_tier_name(tier) << (int8 ? " int8" : " fp32")
              << " cin=" << sh.cin << " extent=" << sh.extent
              << " batch=" << batch;
        }
      }
    }
  }
}

TEST(GroupedConv, SteadyStateIsAllocationFree) {
  // The grouped lowering's column and output panels are per-thread and
  // grow-only: after one warmup run at a batch size, later runs at that
  // size (and any smaller one) allocate nothing, in fp32 and int8.
  Rng rng(31);
  nn::Conv2d conv(20, 30, 5, rng);
  const Tensor x = Tensor::randn({70, 20, 6, 6}, rng);
  const QTensor qw = quantize_per_channel(conv.weight().value);
  Tensor requant({30}, 0.001f);
  const IgemmEpilogue iep{requant.data(), nullptr, nullptr};
  nn::ConvInt8Scratch scratch;
  Tensor out;
  conv.infer_into(x, out);
  conv.infer_quantized(qw.data.data(), iep, 10.0f, x, out, scratch);

  test::arm_alloc_counter();
  conv.infer_into(x, out);
  conv.infer_into(ConstTensorView(x).slice(0, 0, 33), out);
  conv.infer_quantized(qw.data.data(), iep, 10.0f, x, out, scratch);
  EXPECT_EQ(test::disarm_alloc_counter(), 0);
}

// ---- MaxPool serving fast path ----

TEST(MaxPoolDispatch, VectorPlanePoolMatchesScalarWalkBitwise) {
  // The 2×2/stride-2 AVX2 plane pool in MaxPool2d::infer_into must be
  // bitwise equal to the scalar window walk, including the NaN rule (NaN
  // never beats a finite value, an all-NaN window stays NaN) and the
  // first-seen-zero tie between -0.0 and +0.0. ow = 11: the 8-wide row
  // loop runs once and leaves a 3-column tail; ow = 6 and ow = 1 (the band
  // CNN's pool2 and pool3) take the gathered short-row path.
  nn::MaxPool2d pool(2);
  TierGuard guard;
  for (const std::int64_t w : {22, 12, 2}) {
    Rng rng(17);
    Tensor x = Tensor::randn({4, 5, 12, w}, rng);
    // Poison specific windows: all-NaN, mixed NaN, and a -0/+0 tie.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    x.data()[0] = nan;
    x.data()[1] = nan;
    x.data()[w] = nan;
    x.data()[w + 1] = nan;  // window all NaN
    x.data()[2] = nan;      // window mixed
    x.data()[4] = -0.0f;
    x.data()[5] = 0.0f;
    x.data()[w + 4] = -1.0f;
    x.data()[w + 5] = -2.0f;  // window max is the tie between -0.0 and +0.0

    set_gemm_tier(GemmTier::Scalar);
    Tensor ref;
    pool.infer_into(x, ref);

    if (!vector_tier_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
    set_gemm_tier(GemmTier::Avx2Fma);
    Tensor got;
    pool.infer_into(x, got);
    ASSERT_EQ(got.shape(), ref.shape());
    // memcmp, not equals(): the all-NaN window makes elementwise == false
    // even for identical bits, and identical bits is exactly the claim.
    EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                          sizeof(float) * static_cast<std::size_t>(ref.size())),
              0)
        << "w=" << w;

    // The all-NaN window must have stayed NaN on both paths.
    EXPECT_TRUE(std::isnan(ref.data()[0]));
    EXPECT_TRUE(std::isnan(got.data()[0]));
  }
}

TEST(MaxPoolDispatch, TrainingForwardAndBackwardMatchScalarTierBitwise) {
  // MaxPool2d::forward takes the same 2×2 AVX2 kernel as serving, with
  // the argmax blended from the fold masks. Outputs, argmax routing (seen
  // through backward: windows are disjoint and every upstream gradient is
  // distinct, so any argmax difference moves a value) and the serving
  // output must all equal the scalar walk, on odd and even extents whose
  // values are drawn from a small set full of NaNs, signed zeros and ties.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float values[] = {nan, -0.0f, 0.0f, 1.0f, -1.0f, 2.0f, 1.0f, nan};
  // Rows of 8+ outputs (row loop plus tail) and every short row, ow =
  // 1…7, on even and odd extents; 21 planes leave a partial last group of
  // eight on the short-row path.
  const std::int64_t extents[][2] = {
      {2, 2},  {3, 17}, {12, 22}, {13, 23}, {8, 16}, {7, 35}, {3, 3},
      {4, 4},  {5, 5},  {6, 6},   {7, 7},   {4, 8},  {5, 9},  {6, 10},
      {3, 11}, {12, 12}, {2, 13}, {9, 14},  {8, 15}};
  TierGuard guard;
  for (const auto& e : extents) {
    const std::int64_t h = e[0], w = e[1];
    Rng rng(static_cast<std::uint64_t>(100 + h * w));
    Tensor x({3, 7, h, w});
    for (std::int64_t j = 0; j < x.size(); ++j) {
      x[j] = values[rng.uniform_index(8)];
    }
    nn::MaxPool2d pool(2);
    const auto run = [&](GemmTier tier, Tensor& y, Tensor& gx, Tensor& yi) {
      set_gemm_tier(tier);
      y = pool.forward(x);
      Tensor gy(y.shape());
      for (std::int64_t j = 0; j < gy.size(); ++j) {
        gy[j] = static_cast<float>(j + 1);
      }
      gx = pool.backward(gy);
      pool.infer_into(x, yi);
    };
    Tensor y_ref, gx_ref, yi_ref;
    run(GemmTier::Scalar, y_ref, gx_ref, yi_ref);
    if (!vector_tier_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
    Tensor y, gx, yi;
    run(GemmTier::Avx2Fma, y, gx, yi);
    const auto same = [](const Tensor& a, const Tensor& b) {
      return a.shape() == b.shape() &&
             std::memcmp(a.data(), b.data(),
                         sizeof(float) * static_cast<std::size_t>(a.size())) ==
                 0;
    };
    EXPECT_TRUE(same(y, y_ref)) << h << "x" << w;
    EXPECT_TRUE(same(gx, gx_ref)) << h << "x" << w;
    EXPECT_TRUE(same(yi, y_ref)) << h << "x" << w;
    EXPECT_TRUE(same(yi_ref, y_ref)) << h << "x" << w;
  }
}

// ---- quantize helpers feeding igemm ----

TEST(QuantizeDispatch, VectorPathMatchesScalarContractBitwise) {
  // quantize_into dispatches to an AVX2 body on capable CPUs; its contract
  // (multiply, float-space clamp, round-to-nearest-even, NaN→0) is pinned
  // here against a literal scalar transcription, across the 32-lane main
  // loop and the tail, including NaN/Inf/half-way cases.
  const std::int64_t n = 131;  // 4 full 32-lane groups + a 3-element tail
  std::vector<float> x(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = 0.37f * static_cast<float>(i - 65);
  }
  x[0] = std::numeric_limits<float>::quiet_NaN();
  x[33] = std::numeric_limits<float>::infinity();
  x[66] = -std::numeric_limits<float>::infinity();
  x[99] = 0.5f;    // ties-to-even at the integer grid after scaling by 1
  x[100] = 1.5f;
  x[101] = -0.5f;
  const float inv_scale = 1.0f;

  std::vector<std::int8_t> got(static_cast<std::size_t>(n));
  quantize_into(x.data(), n, inv_scale, got.data());
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = x[static_cast<std::size_t>(i)] * inv_scale;
    const float clamped = v > 127.0f ? 127.0f : (v < -127.0f ? -127.0f : v);
    const std::int8_t want =
        std::isnan(clamped) ? std::int8_t{0}
                            : static_cast<std::int8_t>(std::lrintf(clamped));
    ASSERT_EQ(got[static_cast<std::size_t>(i)], want) << "i=" << i;
  }
  EXPECT_EQ(got[0], 0);     // NaN
  EXPECT_EQ(got[33], 127);  // +Inf saturates
  EXPECT_EQ(got[66], -127);
  EXPECT_EQ(got[99], 0);    // 0.5 rounds to even
  EXPECT_EQ(got[100], 2);   // 1.5 rounds to even
  EXPECT_EQ(got[101], 0);
}

TEST(Im2colDispatch, Int8FastPathMatchesGenericTraversal) {
  // The stride-1 fill/copy/fill fast path must write exactly the bytes the
  // bounds-checked per-element walk writes, for every kernel offset and
  // padding class.
  for (const std::int64_t pad : {std::int64_t{0}, std::int64_t{2}}) {
    const std::int64_t c = 3, h = 9, w = 11, kh = 5, kw = 5;
    const std::int64_t oh = conv_out_extent(h, kh, pad, 1);
    const std::int64_t ow = conv_out_extent(w, kw, pad, 1);
    const auto img = pattern_i8(c * h * w, 3);
    std::vector<std::int8_t> cols(
        static_cast<std::size_t>(c * kh * kw * oh * ow), 99);
    im2col_i8(img.data(), c, h, w, kh, kw, pad, 1, cols.data());

    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const std::int64_t iy = oy + ky - pad;
              const std::int64_t ix = ox + kx - pad;
              const std::int8_t want =
                  (iy >= 0 && iy < h && ix >= 0 && ix < w)
                      ? img[static_cast<std::size_t>((ch * h + iy) * w + ix)]
                      : std::int8_t{0};
              const std::int64_t at =
                  (((ch * kh + ky) * kw + kx) * oh + oy) * ow + ox;
              ASSERT_EQ(cols[static_cast<std::size_t>(at)], want)
                  << "pad=" << pad << " ch=" << ch << " ky=" << ky
                  << " kx=" << kx << " oy=" << oy << " ox=" << ox;
            }
          }
        }
      }
    }
  }
}

TEST(PointwiseConv, InferAllocatesNoColumnBuffer) {
  Rng rng(13);
  nn::Conv2d conv(8, 12, 1, rng);
  const Tensor x = Tensor::randn({4, 8, 10, 10}, rng);
  Tensor out;
  conv.infer_into(x, out);  // warm up GEMM's per-thread scratch panel

  // Steady state: the 1×1 path feeds the input straight to GEMM, so no
  // column buffer exists to allocate or grow — zero allocations total.
  test::arm_alloc_counter();
  conv.infer_into(x, out);
  EXPECT_EQ(test::disarm_alloc_counter(), 0);
}

}  // namespace
}  // namespace sne
