// AVX2 lane kernel for the NCHWc8 direct convolution (DESIGN.md §16).
//
// Same ODR ground rules as autograd/gemm_avx2.hpp: this header must stay
// free of heavyweight includes and the implementation TU is the only file
// in src/plan/ compiled with -mavx2 (and deliberately WITHOUT -mfma: the
// kernel uses separate mul+add intrinsics so every lane reproduces the
// scalar accumulation chain bit-for-bit — a fused multiply-add would keep
// the infinite-precision intermediate and change the last bits).
#pragma once

#include <cstdint>

namespace roadfusion::plan {

/// Raw-pointer operand block for the AVX2 kernels; mirrors the PackedConv
/// fields conv_nchwc() / tconv_nchwc() consume, flattened so this header
/// needs nothing from plan/ir.hpp.
struct NchwcConvArgs {
  const float* src = nullptr;
  int64_t n = 0;
  int64_t in_h = 0;
  int64_t in_w = 0;
  int64_t cin = 0;
  int64_t cout = 0;
  int64_t kernel = 1;
  int64_t stride = 1;
  const float* w = nullptr;  // [ocb][cin][k][k][8]; tconv [ocb][ky][cin][kx][8]
  const float* bias = nullptr;     // lane-padded per-cout, or null
  const float* bn_mean = nullptr;  // lane-padded eval-BN params, or null
  const float* bn_invstd = nullptr;
  const float* bn_gamma = nullptr;
  const float* bn_beta = nullptr;
  bool relu = false;
  float* dst = nullptr;
  bool nchw_out = false;  // dst is dense NCHW (real channels only)
  int64_t out_h = 0;
  int64_t out_w = 0;
  const float* pre = nullptr;   // residual shortcut / tconv skip, output geometry
  const float* post = nullptr;  // cross-layer fusion addend
  float fusion_weight = 1.0f;
};

/// Runs the blocked direct conv with 8-lane AVX2 vectors (one mul+add per
/// weight tap per output column). Returns false when this binary was built
/// without AVX2 support; the caller must then use the scalar kernel. The
/// caller is responsible for the runtime CPUID gate.
bool conv_nchwc_avx2(const NchwcConvArgs& args);

/// The 2x2/s2 transposed conv with 8-lane AVX2 vectors: dst = (0.0f +
/// acc) + pre per element, the scalar kernel's chain. Same contract as
/// conv_nchwc_avx2 otherwise.
bool tconv_nchwc_avx2(const NchwcConvArgs& args);

}  // namespace roadfusion::plan
