#include "nn/pooling.h"

#include <cmath>
#include <stdexcept>

#include "tensor/gemm.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SNE_POOL_X86 1
#else
#define SNE_POOL_X86 0
#endif

namespace sne::nn {

namespace {

void check_pool_input(ConstTensorView x, std::int64_t kernel) {
  if (x.rank() != 4) {
    throw std::invalid_argument("pooling: expected [N, C, H, W], got " +
                                x.shape_string());
  }
  if (x.extent(2) < kernel || x.extent(3) < kernel) {
    throw std::invalid_argument("pooling: window larger than input");
  }
}

std::int64_t pooled_extent(std::int64_t in, std::int64_t kernel,
                           std::int64_t stride) {
  return (in - kernel) / stride + 1;
}

// Scalar max-pool walk over every window, shared by the training forward
// and serving. The update rule takes v when (v > best) or (best is NaN and
// v is not): NaN candidates never win, a NaN seed is replaced by the first
// non-NaN candidate, and an all-NaN window propagates NaN from its first
// element. The seed is the window's own first element, so the argmax can
// never escape the window: with a -inf seed and index 0, an all-NaN window
// would route its gradient to global element 0 of the input — a
// cross-sample leak. `argmax` (flat input index per output) may be null.
void maxpool_scalar(const float* x, std::int64_t planes, std::int64_t h,
                    std::int64_t w, std::int64_t kernel, std::int64_t stride,
                    std::int64_t oh, std::int64_t ow, float* out,
                    std::int64_t* argmax) {
  std::int64_t o = 0;
  for (std::int64_t p = 0; p < planes; ++p) {
    const float* plane = x + p * h * w;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox, ++o) {
        std::int64_t best_idx = oy * stride * w + ox * stride;
        float best = plane[best_idx];
        for (std::int64_t ky = 0; ky < kernel; ++ky) {
          const std::int64_t row = (oy * stride + ky) * w + ox * stride;
          for (std::int64_t kx = 0; kx < kernel; ++kx) {
            const float v = plane[row + kx];
            if (v > best || (std::isnan(best) && !std::isnan(v))) {
              best = v;
              best_idx = row + kx;
            }
          }
        }
        out[o] = best;
        if (argmax != nullptr) argmax[o] = p * h * w + best_idx;
      }
    }
  }
}

#if SNE_POOL_X86

// The scalar update rule as a per-lane mask: set where v replaces best.
// _CMP_GT_OQ is false whenever either operand is NaN — exactly like the
// scalar `v > best` — so blending on this mask reproduces the scalar
// result bit for bit, including the all-NaN window and the first-seen-zero
// tie cases.
__attribute__((target("avx2"))) inline __m256 pool_takes_avx2(__m256 best,
                                                              __m256 v) {
  const __m256 gt = _mm256_cmp_ps(v, best, _CMP_GT_OQ);
  const __m256 nan_best = _mm256_cmp_ps(best, best, _CMP_UNORD_Q);
  const __m256 ord_v = _mm256_cmp_ps(v, v, _CMP_ORD_Q);
  return _mm256_or_ps(gt, _mm256_and_ps(nan_best, ord_v));
}

// Scalar walk of one 2x2 window whose top-left input is x[tl], in the
// scalar kernel's encounter order; the edge case of the vector pool.
inline void pool_window_2x2(const float* x, std::int64_t tl, std::int64_t w,
                            float* dst, std::int64_t* argmax) {
  std::int64_t best_idx = tl;
  float best = x[tl];
  for (int k = 1; k < 4; ++k) {
    const std::int64_t idx = tl + (k >> 1) * w + (k & 1);
    const float v = x[idx];
    if (v > best || (std::isnan(best) && !std::isnan(v))) {
      best = v;
      best_idx = idx;
    }
  }
  *dst = best;
  if (argmax != nullptr) *argmax = best_idx;
}

// Eight 2x2 windows from their (top-left, top-right) input pairs: a0 holds
// the pairs of outputs 0–3, a1 of outputs 4–7, and b0/b1 the bottom row's
// pairs. The two shuffles split them into even/odd columns (lane-scrambled,
// but identically for all four operands, so each lane still folds one
// window in the scalar's encounter order: top-left, top-right,
// bottom-left, bottom-right); one 64-bit permute restores output order.
// With kArgmax the same blend masks also select the winning window slot
// (0..3) per lane, which is added to the window's top-left input index
// (tl_lo for outputs 0–3, tl_hi for 4–7) — the training forward's argmax,
// equal to maxpool_scalar's. Serving instantiates kArgmax = false, which
// carries none of that work.
template <bool kArgmax>
__attribute__((target("avx2"))) inline void pool8_2x2_avx2(
    __m256 a0, __m256 a1, __m256 b0, __m256 b1, std::int64_t w, float* dst,
    std::int64_t* argmax, __m256i tl_lo, __m256i tl_hi) {
  const __m256 e0 = _mm256_shuffle_ps(a0, a1, _MM_SHUFFLE(2, 0, 2, 0));
  const __m256 o0 = _mm256_shuffle_ps(a0, a1, _MM_SHUFFLE(3, 1, 3, 1));
  const __m256 e1 = _mm256_shuffle_ps(b0, b1, _MM_SHUFFLE(2, 0, 2, 0));
  const __m256 o1 = _mm256_shuffle_ps(b0, b1, _MM_SHUFFLE(3, 1, 3, 1));
  const __m256 t1 = pool_takes_avx2(e0, o0);
  __m256 m = _mm256_blendv_ps(e0, o0, t1);
  const __m256 t2 = pool_takes_avx2(m, e1);
  m = _mm256_blendv_ps(m, e1, t2);
  const __m256 t3 = pool_takes_avx2(m, o1);
  m = _mm256_blendv_ps(m, o1, t3);
  _mm256_storeu_ps(dst, _mm256_castpd_ps(_mm256_permute4x64_pd(
                            _mm256_castps_pd(m), _MM_SHUFFLE(3, 1, 2, 0))));
  if constexpr (!kArgmax) return;
  __m256 slot = _mm256_and_ps(t1, _mm256_castsi256_ps(_mm256_set1_epi32(1)));
  slot = _mm256_blendv_ps(slot, _mm256_castsi256_ps(_mm256_set1_epi32(2)), t2);
  slot = _mm256_blendv_ps(slot, _mm256_castsi256_ps(_mm256_set1_epi32(3)), t3);
  const __m256i s = _mm256_permute4x64_epi64(_mm256_castps_si256(slot),
                                             _MM_SHUFFLE(3, 1, 2, 0));
  // slot → offset from the window's top-left: (slot/2)·w + slot%2.
  const __m256i off = _mm256_add_epi32(
      _mm256_and_si256(s, _mm256_set1_epi32(1)),
      _mm256_mullo_epi32(_mm256_srli_epi32(s, 1),
                         _mm256_set1_epi32(static_cast<int>(w))));
  _mm256_storeu_si256(
      reinterpret_cast<__m256i*>(argmax),
      _mm256_add_epi64(tl_lo,
                       _mm256_cvtepi32_epi64(_mm256_castsi256_si128(off))));
  _mm256_storeu_si256(
      reinterpret_cast<__m256i*>(argmax + 4),
      _mm256_add_epi64(tl_hi,
                       _mm256_cvtepi32_epi64(_mm256_extracti128_si256(off, 1))));
}

// 2x2 stride-2 pool over `planes` planes. Rows of at least 8 outputs load
// their window pairs straight from the two input rows, eight outputs per
// iteration, and walk the row's last ow % 8 windows scalar. Shorter rows
// (the deep stages of the paper's CNNs, down to one output per plane)
// would never fill a vector that way, so they pool as one flat run of
// outputs across rows and planes: each lane's window pairs are gathered
// from its own top-left index, and only the last total % 8 outputs of the
// whole tensor walk scalar. Both paths fold through pool8_2x2_avx2.
template <bool kArgmax>
__attribute__((target("avx2"))) void maxpool_2x2_avx2(
    const float* x, std::int64_t planes, std::int64_t h, std::int64_t w,
    std::int64_t oh, std::int64_t ow, float* dst, std::int64_t* argmax) {
  std::int64_t* const no_argmax = nullptr;
  if (ow >= 8) {
    const __m256i lane2_lo = _mm256_setr_epi64x(0, 2, 4, 6);
    const __m256i lane2_hi = _mm256_setr_epi64x(8, 10, 12, 14);
    for (std::int64_t p = 0; p < planes; ++p) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        const std::int64_t row0 = p * h * w + 2 * oy * w;
        const float* r0 = x + row0;
        const float* r1 = r0 + w;
        const std::int64_t o = (p * oh + oy) * ow;
        std::int64_t ox = 0;
        for (; ox + 8 <= ow; ox += 8) {
          const __m256i base = _mm256_set1_epi64x(row0 + 2 * ox);
          pool8_2x2_avx2<kArgmax>(
              _mm256_loadu_ps(r0 + 2 * ox), _mm256_loadu_ps(r0 + 2 * ox + 8),
              _mm256_loadu_ps(r1 + 2 * ox), _mm256_loadu_ps(r1 + 2 * ox + 8),
              w, dst + o + ox, kArgmax ? argmax + o + ox : no_argmax,
              _mm256_add_epi64(base, lane2_lo),
              _mm256_add_epi64(base, lane2_hi));
        }
        for (; ox < ow; ++ox) {
          pool_window_2x2(x, row0 + 2 * ox, w, dst + o + ox,
                          kArgmax ? argmax + o + ox : no_argmax);
        }
      }
    }
    return;
  }
  // Short rows: walk (plane, oy, ox) in output order, eight windows at a
  // time. Each gather lane loads one window's two adjacent floats as a
  // 64-bit element, so a0/a1/b0/b1 come out laid like the row loads above.
  const double* xd = reinterpret_cast<const double*>(x);
  const __m256i wv = _mm256_set1_epi64x(w);
  const std::int64_t total = planes * oh * ow;
  // Walker over outputs in order: top-left input index of output o.
  std::int64_t plane0 = 0, row0 = 0, oy = 0, ox = 0;
  const auto next = [&] {
    if (++ox < ow) return;
    ox = 0;
    if (++oy < oh) {
      row0 += 2 * w;
      return;
    }
    oy = 0;
    plane0 += h * w;
    row0 = plane0;
  };
  alignas(32) std::int64_t tl[8];
  std::int64_t o = 0;
  for (; o + 8 <= total; o += 8) {
    for (std::int64_t& t : tl) {
      t = row0 + 2 * ox;
      next();
    }
    const __m256i tl_lo = _mm256_load_si256(reinterpret_cast<__m256i*>(tl));
    const __m256i tl_hi =
        _mm256_load_si256(reinterpret_cast<__m256i*>(tl + 4));
    pool8_2x2_avx2<kArgmax>(
        _mm256_castpd_ps(_mm256_i64gather_pd(xd, tl_lo, 4)),
        _mm256_castpd_ps(_mm256_i64gather_pd(xd, tl_hi, 4)),
        _mm256_castpd_ps(
            _mm256_i64gather_pd(xd, _mm256_add_epi64(tl_lo, wv), 4)),
        _mm256_castpd_ps(
            _mm256_i64gather_pd(xd, _mm256_add_epi64(tl_hi, wv), 4)),
        w, dst + o, kArgmax ? argmax + o : no_argmax, tl_lo, tl_hi);
  }
  for (; o < total; ++o) {
    pool_window_2x2(x, row0 + 2 * ox, w, dst + o,
                    kArgmax ? argmax + o : no_argmax);
    next();
  }
}

#endif  // SNE_POOL_X86

// The one max-pool forward kernel: 2x2/stride-2 windows take the vector
// plane pool on the AVX2 tier (bitwise identical to the scalar walk, see
// pool_takes_avx2, and pinned against it by the dispatch test); every
// other window and tier takes maxpool_scalar. Training asks for the
// argmax backward needs, serving passes null.
void maxpool_into(ConstTensorView x, std::int64_t kernel, std::int64_t stride,
                  float* out, std::int64_t* argmax) {
  const std::int64_t planes = x.extent(0) * x.extent(1);
  const std::int64_t h = x.extent(2);
  const std::int64_t w = x.extent(3);
  const std::int64_t oh = pooled_extent(h, kernel, stride);
  const std::int64_t ow = pooled_extent(w, kernel, stride);
#if SNE_POOL_X86
  if (kernel == 2 && stride == 2 && gemm_tier() == GemmTier::Avx2Fma) {
    if (argmax != nullptr) {
      maxpool_2x2_avx2<true>(x.data(), planes, h, w, oh, ow, out, argmax);
    } else {
      maxpool_2x2_avx2<false>(x.data(), planes, h, w, oh, ow, out, nullptr);
    }
    return;
  }
#endif
  maxpool_scalar(x.data(), planes, h, w, kernel, stride, oh, ow, out,
                 argmax);
}

}  // namespace

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
  if (kernel <= 0 || stride_ <= 0) {
    throw std::invalid_argument("MaxPool2d: invalid window");
  }
}

Tensor MaxPool2d::forward(const Tensor& x) {
  check_pool_input(x, kernel_);
  cached_in_shape_ = x.shape();
  Tensor y({x.extent(0), x.extent(1),
            pooled_extent(x.extent(2), kernel_, stride_),
            pooled_extent(x.extent(3), kernel_, stride_)});
  argmax_.resize(static_cast<std::size_t>(y.size()));
  maxpool_into(x, kernel_, stride_, y.data(), argmax_.data());
  return y;
}

void MaxPool2d::infer_into(ConstTensorView x, Tensor& out) const {
  check_pool_input(x, kernel_);
  out.resize({x.extent(0), x.extent(1),
              pooled_extent(x.extent(2), kernel_, stride_),
              pooled_extent(x.extent(3), kernel_, stride_)});
  maxpool_into(x, kernel_, stride_, out.data(), nullptr);
}

Shape MaxPool2d::infer_shape(const Shape& in) const {
  if (in.size() != 4) {
    throw std::invalid_argument("MaxPool2d::infer_shape: bad input shape");
  }
  // Same validation as the execution paths (check_pool_input): the
  // planner's AOT shape walk must reject a window larger than the input
  // rather than plan a non-positive extent.
  if (in[2] < kernel_ || in[3] < kernel_) {
    throw std::invalid_argument(
        "MaxPool2d::infer_shape: window larger than input");
  }
  return {in[0], in[1], pooled_extent(in[2], kernel_, stride_),
          pooled_extent(in[3], kernel_, stride_)};
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  if (cached_in_shape_.empty()) {
    throw std::logic_error("MaxPool2d::backward before forward");
  }
  if (grad_output.size() != static_cast<std::int64_t>(argmax_.size())) {
    throw std::invalid_argument("MaxPool2d::backward: bad grad shape " +
                                grad_output.shape_string());
  }
  Tensor grad_input(cached_in_shape_);
  for (std::int64_t out = 0; out < grad_output.size(); ++out) {
    grad_input[argmax_[static_cast<std::size_t>(out)]] += grad_output[out];
  }
  return grad_input;
}

AvgPool2d::AvgPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
  if (kernel <= 0 || stride_ <= 0) {
    throw std::invalid_argument("AvgPool2d: invalid window");
  }
}

Tensor AvgPool2d::forward(const Tensor& x) {
  check_pool_input(x, kernel_);
  const std::int64_t n = x.extent(0);
  const std::int64_t c = x.extent(1);
  const std::int64_t h = x.extent(2);
  const std::int64_t w = x.extent(3);
  const std::int64_t oh = pooled_extent(h, kernel_, stride_);
  const std::int64_t ow = pooled_extent(w, kernel_, stride_);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);

  cached_in_shape_ = x.shape();
  Tensor y({n, c, oh, ow});
  std::int64_t out = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + (i * c + ch) * h * w;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox, ++out) {
          float s = 0.0f;
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            const float* row = plane + (oy * stride_ + ky) * w + ox * stride_;
            for (std::int64_t kx = 0; kx < kernel_; ++kx) s += row[kx];
          }
          y[out] = s * inv;
        }
      }
    }
  }
  return y;
}

void AvgPool2d::infer_into(ConstTensorView x, Tensor& out) const {
  check_pool_input(x, kernel_);
  const std::int64_t n = x.extent(0);
  const std::int64_t c = x.extent(1);
  const std::int64_t h = x.extent(2);
  const std::int64_t w = x.extent(3);
  const std::int64_t oh = pooled_extent(h, kernel_, stride_);
  const std::int64_t ow = pooled_extent(w, kernel_, stride_);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);

  out.resize({n, c, oh, ow});
  std::int64_t o = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + (i * c + ch) * h * w;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox, ++o) {
          float s = 0.0f;
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            const float* row = plane + (oy * stride_ + ky) * w + ox * stride_;
            for (std::int64_t kx = 0; kx < kernel_; ++kx) s += row[kx];
          }
          out[o] = s * inv;
        }
      }
    }
  }
}

Shape AvgPool2d::infer_shape(const Shape& in) const {
  if (in.size() != 4) {
    throw std::invalid_argument("AvgPool2d::infer_shape: bad input shape");
  }
  if (in[2] < kernel_ || in[3] < kernel_) {
    throw std::invalid_argument(
        "AvgPool2d::infer_shape: window larger than input");
  }
  return {in[0], in[1], pooled_extent(in[2], kernel_, stride_),
          pooled_extent(in[3], kernel_, stride_)};
}

Tensor AvgPool2d::backward(const Tensor& grad_output) {
  if (cached_in_shape_.empty()) {
    throw std::logic_error("AvgPool2d::backward before forward");
  }
  const std::int64_t n = cached_in_shape_[0];
  const std::int64_t c = cached_in_shape_[1];
  const std::int64_t h = cached_in_shape_[2];
  const std::int64_t w = cached_in_shape_[3];
  const std::int64_t oh = pooled_extent(h, kernel_, stride_);
  const std::int64_t ow = pooled_extent(w, kernel_, stride_);
  if (grad_output.rank() != 4 || grad_output.extent(0) != n ||
      grad_output.extent(1) != c || grad_output.extent(2) != oh ||
      grad_output.extent(3) != ow) {
    throw std::invalid_argument("AvgPool2d::backward: bad grad shape");
  }
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);

  Tensor grad_input(cached_in_shape_);
  std::int64_t out = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      float* plane = grad_input.data() + (i * c + ch) * h * w;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox, ++out) {
          const float g = grad_output[out] * inv;
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            float* row = plane + (oy * stride_ + ky) * w + ox * stride_;
            for (std::int64_t kx = 0; kx < kernel_; ++kx) row[kx] += g;
          }
        }
      }
    }
  }
  return grad_input;
}

}  // namespace sne::nn
