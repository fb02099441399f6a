// AVX2 TU for the NCHWc8 direct and transposed convolutions — the only
// file in src/plan/ built with -mavx2 (see CMakeLists.txt here).
// Deliberately compiled WITHOUT -mfma and written with separate
// _mm256_mul_ps/_mm256_add_ps so each channel lane executes exactly the
// scalar kernel's accumulation chain: acc[l] += w[l] * a per (ic, ky, kx)
// tap in im2col row order (per ic for the transposed conv).
// Helpers live in the anonymous namespace so nothing compiled with AVX2
// flags can ODR-merge into another TU.
#include "plan/nchwc_avx2.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#define ROADFUSION_NCHWC_AVX2 1
#endif

namespace roadfusion::plan {

#if defined(ROADFUSION_NCHWC_AVX2)

namespace {

constexpr int64_t kLanes = 8;
// Six output columns share every weight-tap load; 96/48/24/12/6-wide
// encoder rows tile exactly. 6 accumulators + weight + broadcast stay
// well inside the 16 YMM registers.
constexpr int64_t kCols = 6;

/// Per-output-block epilogue parameters: lane-padded arrays offset to the
/// block (null = stage skipped).
struct EpiParams {
  const float* bias = nullptr;
  const float* mean = nullptr;  ///< with invstd, gamma and beta
  const float* invstd = nullptr;
  const float* gamma = nullptr;
  const float* beta = nullptr;
  bool relu = false;
  float fusion_weight = 1.0f;
};

/// The epilogue parameters in registers, loaded once per tile after its
/// accumulation loop: held through that loop they would push the weight
/// vector out to the stack.
struct EpiVecs {
  explicit EpiVecs(const EpiParams& p) : params(p) {
    if (p.bias != nullptr) {
      bias = _mm256_loadu_ps(p.bias);
    }
    if (p.mean != nullptr) {
      mean = _mm256_loadu_ps(p.mean);
      invstd = _mm256_loadu_ps(p.invstd);
      gamma = _mm256_loadu_ps(p.gamma);
      beta = _mm256_loadu_ps(p.beta);
    }
  }
  const EpiParams& params;
  __m256 bias = _mm256_setzero_ps();
  __m256 mean = _mm256_setzero_ps();
  __m256 invstd = _mm256_setzero_ps();
  __m256 gamma = _mm256_setzero_ps();
  __m256 beta = _mm256_setzero_ps();
};

/// Output side of the direct conv: the NCHWc8 plane of the current output
/// block, or — for a dense NCHW output — the plane of its first channel.
struct OutPlane {
  float* base = nullptr;
  int64_t out_w = 0;
  int64_t channel_stride = 0;  ///< NCHW: floats between channel planes
  int64_t lanes = kLanes;      ///< NCHW: real channels in this block
};

/// Stores column (oy, ox) at NCHWc8 offset `at`, or at its NCHW position
/// when `kNchwOut`.
template <bool kNchwOut>
inline void store(__m256 v, const OutPlane& out, int64_t at, int64_t oy,
                  int64_t ox) {
  if constexpr (!kNchwOut) {
    _mm256_storeu_ps(out.base + at, v);
    return;
  }
  alignas(32) float column[kLanes];
  _mm256_store_ps(column, v);
  float* d = out.base + oy * out.out_w + ox;
  for (int64_t l = 0; l < out.lanes; ++l) {
    d[l * out.channel_stride] = column[l];
  }
}

/// Replays the scalar epilogue chain on one 8-lane column:
/// +bias -> BN affine -> +pre -> ReLU -> +fusion_weight * post. max_ps
/// matches the scalar `v > 0 ? v : 0` on -0.0 and NaN because both pick
/// the +0.0 operand when the compare is false or unordered.
inline __m256 epilogue(__m256 v, const float* pre_p, const float* post_p,
                       const EpiVecs& e) {
  if (e.params.bias != nullptr) {
    v = _mm256_add_ps(v, e.bias);
  }
  if (e.params.mean != nullptr) {
    const __m256 xh = _mm256_mul_ps(_mm256_sub_ps(v, e.mean), e.invstd);
    v = _mm256_add_ps(_mm256_mul_ps(e.gamma, xh), e.beta);
  }
  if (pre_p != nullptr) {
    v = _mm256_add_ps(v, _mm256_loadu_ps(pre_p));
  }
  if (e.params.relu) {
    v = _mm256_max_ps(v, _mm256_setzero_ps());
  }
  if (post_p != nullptr) {
    __m256 p = _mm256_loadu_ps(post_p);
    if (e.params.fusion_weight != 1.0f) {
      p = _mm256_mul_ps(p, _mm256_set1_ps(e.params.fusion_weight));
    }
    v = _mm256_add_ps(v, p);
  }
  return v;
}

/// The direct conv for a K x K kernel, K = 0 read at run time. A
/// compile-time K = 1 drops the tap loops from the 1x1 convs; the 3x3
/// convs measured faster with the run-time loops than fully unrolled.
/// `kNchwOut` (the decoder head) writes dense NCHW instead of NCHWc8.
template <int64_t K, bool kNchwOut>
void conv_kernel(const NchwcConvArgs& a) {
  const int64_t k = K > 0 ? K : a.kernel;
  const int64_t s = a.stride;
  const int64_t tap0 = 1 - (k == 3 ? 1 : 0);
  const int64_t srow = (a.in_w + 2) * kLanes;
  const int64_t splane = (a.in_h + 2) * srow;
  const int64_t cb = (a.cin + kLanes - 1) / kLanes;
  const int64_t ssample = cb * splane;
  const int64_t drow = (a.out_w + 2) * kLanes;
  const int64_t dplane = (a.out_h + 2) * drow;
  const int64_t ocb = (a.cout + kLanes - 1) / kLanes;
  const int64_t dsample = ocb * dplane;
  const int64_t col_step = s * kLanes;  // float stride between output cols
  for (int64_t img = 0; img < a.n; ++img) {
    const float* simg = a.src + img * ssample;
    for (int64_t ob = 0; ob < ocb; ++ob) {
      const float* wblock = a.w + ob * a.cin * k * k * kLanes;
      OutPlane out;
      out.out_w = a.out_w;
      if constexpr (kNchwOut) {
        out.channel_stride = a.out_h * a.out_w;
        out.base = a.dst + (img * a.cout + ob * kLanes) * out.channel_stride;
        out.lanes = a.cout - ob * kLanes < kLanes ? a.cout - ob * kLanes
                                                  : kLanes;
      } else {
        out.base = a.dst + img * dsample + ob * dplane;
      }
      const float* pre_p =
          a.pre ? a.pre + img * dsample + ob * dplane : nullptr;
      const float* post_p =
          a.post ? a.post + img * dsample + ob * dplane : nullptr;
      const int64_t lane0 = ob * kLanes;
      EpiParams e;
      if (a.bias != nullptr) {
        e.bias = a.bias + lane0;
      }
      if (a.bn_mean != nullptr) {
        e.mean = a.bn_mean + lane0;
        e.invstd = a.bn_invstd + lane0;
        e.gamma = a.bn_gamma + lane0;
        e.beta = a.bn_beta + lane0;
      }
      e.fusion_weight = a.fusion_weight;
      e.relu = a.relu;
      for (int64_t oy = 0; oy < a.out_h; ++oy) {
        int64_t ox = 0;
        for (; ox + kCols <= a.out_w; ox += kCols) {
          __m256 c0 = _mm256_setzero_ps(), c1 = _mm256_setzero_ps();
          __m256 c2 = _mm256_setzero_ps(), c3 = _mm256_setzero_ps();
          __m256 c4 = _mm256_setzero_ps(), c5 = _mm256_setzero_ps();
          const float* wptr = wblock;
          for (int64_t ic = 0; ic < a.cin; ++ic) {
            const float* sbase =
                simg + (ic / kLanes) * splane + (ic % kLanes);
            for (int64_t ky = 0; ky < k; ++ky) {
              const float* srow_p = sbase + (oy * s + ky + tap0) * srow +
                                    (ox * s + tap0) * kLanes;
              for (int64_t kx = 0; kx < k; ++kx) {
                const float* tap = srow_p + kx * kLanes;
                const __m256 wv = _mm256_loadu_ps(wptr);
                c0 = _mm256_add_ps(
                    c0, _mm256_mul_ps(wv, _mm256_broadcast_ss(tap)));
                c1 = _mm256_add_ps(
                    c1,
                    _mm256_mul_ps(wv, _mm256_broadcast_ss(tap + col_step)));
                c2 = _mm256_add_ps(
                    c2, _mm256_mul_ps(
                            wv, _mm256_broadcast_ss(tap + 2 * col_step)));
                c3 = _mm256_add_ps(
                    c3, _mm256_mul_ps(
                            wv, _mm256_broadcast_ss(tap + 3 * col_step)));
                c4 = _mm256_add_ps(
                    c4, _mm256_mul_ps(
                            wv, _mm256_broadcast_ss(tap + 4 * col_step)));
                c5 = _mm256_add_ps(
                    c5, _mm256_mul_ps(
                            wv, _mm256_broadcast_ss(tap + 5 * col_step)));
                wptr += kLanes;
              }
            }
          }
          const int64_t at = ((oy + 1) * (a.out_w + 2) + (ox + 1)) * kLanes;
          const __m256 acc[kCols] = {c0, c1, c2, c3, c4, c5};
          const EpiVecs ev(e);
          for (int64_t c = 0; c < kCols; ++c) {
            const int64_t col_at = at + c * kLanes;
            store<kNchwOut>(
                epilogue(acc[c], pre_p ? pre_p + col_at : nullptr,
                         post_p ? post_p + col_at : nullptr, ev),
                out, col_at, oy, ox + c);
          }
        }
        for (; ox < a.out_w; ++ox) {
          __m256 acc = _mm256_setzero_ps();
          const float* wptr = wblock;
          for (int64_t ic = 0; ic < a.cin; ++ic) {
            const float* sbase =
                simg + (ic / kLanes) * splane + (ic % kLanes);
            for (int64_t ky = 0; ky < k; ++ky) {
              const float* srow_p = sbase + (oy * s + ky + tap0) * srow +
                                    (ox * s + tap0) * kLanes;
              for (int64_t kx = 0; kx < k; ++kx) {
                acc = _mm256_add_ps(
                    acc, _mm256_mul_ps(
                             _mm256_loadu_ps(wptr),
                             _mm256_broadcast_ss(srow_p + kx * kLanes)));
                wptr += kLanes;
              }
            }
          }
          const int64_t at = ((oy + 1) * (a.out_w + 2) + (ox + 1)) * kLanes;
          store<kNchwOut>(epilogue(acc, pre_p ? pre_p + at : nullptr,
                                   post_p ? post_p + at : nullptr, EpiVecs(e)),
                          out, at, oy, ox);
        }
      }
    }
  }
}

}  // namespace

bool conv_nchwc_avx2(const NchwcConvArgs& a) {
  if (a.nchw_out) {
    a.kernel == 1 ? conv_kernel<1, true>(a) : conv_kernel<0, true>(a);
  } else if (a.kernel == 1) {
    conv_kernel<1, false>(a);
  } else {
    conv_kernel<0, false>(a);
  }
  return true;
}

bool tconv_nchwc_avx2(const NchwcConvArgs& a) {
  const int64_t srow = (a.in_w + 2) * kLanes;
  const int64_t splane = (a.in_h + 2) * srow;
  const int64_t ssample = ((a.cin + kLanes - 1) / kLanes) * splane;
  const int64_t dplane = (a.out_h + 2) * (a.out_w + 2) * kLanes;
  const int64_t ocb = (a.cout + kLanes - 1) / kLanes;
  const int64_t dsample = ocb * dplane;
  const __m256 zero = _mm256_setzero_ps();
  // Three input columns per tile feed six adjacent output columns (taps
  // kx = 0, 1 of each), so both weight vectors of an input channel are
  // loaded once per tile.
  constexpr int64_t kInCols = kCols / 2;
  for (int64_t img = 0; img < a.n; ++img) {
    const float* simg = a.src + img * ssample;
    for (int64_t ob = 0; ob < ocb; ++ob) {
      float* dplane_p = a.dst + img * dsample + ob * dplane;
      const float* skip_plane =
          a.pre ? a.pre + img * dsample + ob * dplane : nullptr;
      for (int64_t oy = 0; oy < a.out_h; ++oy) {
        const float* wrow = a.w + (ob * 2 + oy % 2) * a.cin * 2 * kLanes;
        const float* srow_p = simg + (oy / 2 + 1) * srow + kLanes;
        const int64_t drow_at = ((oy + 1) * (a.out_w + 2) + 1) * kLanes;
        float* drow_p = dplane_p + drow_at;
        const float* skip_row = skip_plane ? skip_plane + drow_at : nullptr;
        // Output column ox = (0.0f + acc) + skip: col2im's accumulate
        // into a zeroed output, then the skip add.
        const auto finish = [&](__m256 acc, int64_t ox) {
          __m256 v = _mm256_add_ps(zero, acc);
          if (skip_row != nullptr) {
            v = _mm256_add_ps(v, _mm256_loadu_ps(skip_row + ox * kLanes));
          }
          _mm256_storeu_ps(drow_p + ox * kLanes, v);
        };
        int64_t ix = 0;
        for (; ix + kInCols <= a.in_w; ix += kInCols) {
          __m256 c00 = zero, c01 = zero, c10 = zero;
          __m256 c11 = zero, c20 = zero, c21 = zero;
          const float* wptr = wrow;
          for (int64_t ic = 0; ic < a.cin; ++ic) {
            const float* pix =
                srow_p + (ic / kLanes) * splane + ix * kLanes + ic % kLanes;
            const __m256 w0 = _mm256_loadu_ps(wptr);
            const __m256 w1 = _mm256_loadu_ps(wptr + kLanes);
            const __m256 x0 = _mm256_broadcast_ss(pix);
            const __m256 x1 = _mm256_broadcast_ss(pix + kLanes);
            const __m256 x2 = _mm256_broadcast_ss(pix + 2 * kLanes);
            c00 = _mm256_add_ps(c00, _mm256_mul_ps(w0, x0));
            c01 = _mm256_add_ps(c01, _mm256_mul_ps(w1, x0));
            c10 = _mm256_add_ps(c10, _mm256_mul_ps(w0, x1));
            c11 = _mm256_add_ps(c11, _mm256_mul_ps(w1, x1));
            c20 = _mm256_add_ps(c20, _mm256_mul_ps(w0, x2));
            c21 = _mm256_add_ps(c21, _mm256_mul_ps(w1, x2));
            wptr += 2 * kLanes;
          }
          const __m256 acc[kCols] = {c00, c01, c10, c11, c20, c21};
          for (int64_t c = 0; c < kCols; ++c) {
            finish(acc[c], 2 * ix + c);
          }
        }
        for (; ix < a.in_w; ++ix) {
          __m256 c0 = zero, c1 = zero;
          const float* wptr = wrow;
          for (int64_t ic = 0; ic < a.cin; ++ic) {
            const __m256 x = _mm256_broadcast_ss(
                srow_p + (ic / kLanes) * splane + ix * kLanes + ic % kLanes);
            c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_loadu_ps(wptr), x));
            c1 = _mm256_add_ps(
                c1, _mm256_mul_ps(_mm256_loadu_ps(wptr + kLanes), x));
            wptr += 2 * kLanes;
          }
          finish(c0, 2 * ix);
          finish(c1, 2 * ix + 1);
        }
      }
    }
  }
  return true;
}

#else  // !ROADFUSION_NCHWC_AVX2

bool conv_nchwc_avx2(const NchwcConvArgs&) { return false; }
bool tconv_nchwc_avx2(const NchwcConvArgs&) { return false; }

#endif

}  // namespace roadfusion::plan
