// NCHWc8 blocked-layout kernels for the inference plan (DESIGN.md §16).
//
// Layout: a feature map (N, C, H, W) becomes N * ceil(C/8) channel
// blocks, each storing an (H+2) x (W+2) spatial plane with 8 channel
// lanes innermost. The extra ring is a permanently-zero border so the
// pad-1 convolutions read it instead of branching on bounds; channel
// lanes past C are permanently zero as well (the conv epilogue parameters
// for padded lanes are zero, so no step ever writes them non-zero).
//
// Exactness contract: the direct conv accumulates each output element
// over (in_channel, ky, kx) in exactly the im2col row order with a single
// scalar accumulator chain per element — the same order the blocked GEMM
// uses when the whole reduction fits one Kc cache block — and the fused
// epilogue replays the GEMM epilogue's scalar chain. The transposed conv
// is the same argument with stride equal to kernel: each output element
// is one GEMM dot product over the input channels, and its epilogue
// replays col2im's accumulate into a zeroed output, then the skip add.
// The plan runs these kernels only when every conv of the network fits
// one Kc block, so plans reproduce the graph path bit-for-bit (test_plan
// pins this).
#pragma once

#include "plan/ir.hpp"
#include "tensor/tensor.hpp"

namespace roadfusion::nn {
class Conv2d;
class ConvTranspose2d;
class BatchNorm2d;
}  // namespace roadfusion::nn

namespace roadfusion::plan {

/// Repacks `conv`'s weight (and optional fused eval-BN + ReLU) into the
/// blocked-kernel layout. `bn` may be null; requires eval mode when set.
/// `name` only labels errors.
PackedConv pack_conv(const nn::Conv2d& conv, const nn::BatchNorm2d* bn,
                     bool relu, const std::string& name);

/// Repacks a 2x2/s2 transposed conv without bias (the decoder's
/// upsampling) for `tconv_nchwc`.
PackedConv pack_tconv(const nn::ConvTranspose2d& up, const std::string& name);

/// NCHW -> NCHWc8. `dst` must be zeroed (border and padded lanes stay 0).
void convert_to_nchwc(const float* src, int64_t n, int64_t c, int64_t h,
                      int64_t w, float* dst);

/// Zeroes the border ring of an NCHWc8 buffer — all a conv output needs
/// before its kernel writes every lane of the interior.
void zero_border(float* buf, int64_t n, int64_t c, int64_t h, int64_t w);

/// NCHWc8 -> NCHW (reads real channels only).
void convert_to_nchw(const float* src, int64_t n, int64_t c, int64_t h,
                     int64_t w, float* dst);

/// Direct blocked conv with the fused epilogue chain:
///   acc -> +bias -> BN affine -> +pre (residual shortcut) -> ReLU
///       -> +fusion_weight * post (cross-layer fusion sum).
/// `pre` / `post` are NCHWc8 buffers of the output geometry, or null.
/// Padding is implied by the kernel size (3 -> pad 1, 1 -> pad 0). With
/// `nchw_out`, `dst` is a dense (n, cout, out_h, out_w) NCHW buffer that
/// receives only the real channels (the decoder head's logits).
void conv_nchwc(const float* src, int64_t n, int64_t in_h, int64_t in_w,
                const PackedConv& pc, float* dst, int64_t out_h,
                int64_t out_w, const float* pre, const float* post,
                float fusion_weight, bool nchw_out = false);

/// Blocked 2x2/s2 transposed conv NCHWc8 (in_h, in_w) -> NCHWc8
/// (2 in_h, 2 in_w) with the skip connection in its epilogue:
///   dst = (0.0f + acc) + skip,
/// the graph's col2im accumulate into a zeroed output, then the skip add
/// (the leading 0.0f + turns a -0.0f dot product into +0.0f first).
/// `skip` is an NCHWc8 buffer of the output geometry, or null.
void tconv_nchwc(const float* src, int64_t n, int64_t in_h, int64_t in_w,
                 const PackedConv& pc, float* dst, const float* skip);

/// dst += src over two same-geometry NCHWc8 buffers (plain add — the
/// AllFilter_B depth-branch update order).
void add_in_place(float* dst, const float* src, int64_t floats);

/// dst += fusion_weight * src, replaying the graph accumulate's exact
/// float order (weight 1 skips the scale).
void accumulate(float* dst, const float* src, int64_t floats,
                float fusion_weight);

}  // namespace roadfusion::plan
