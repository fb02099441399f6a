// Inference plan IR (DESIGN.md §16).
//
// A compiled plan is a flat list of Steps over a flat list of buffer
// Slots — the output of the plan compiler and the only thing the
// executor interprets. Steps reference slots by index, packed weights by
// pointer into the geometry-independent PlanContext and NCHW layers by
// pointer into the network, so a plan is cheap to cache per input
// geometry and serving mode and trivially inspectable (the
// --explain-plan printer walks the same two lists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/shape.hpp"

namespace roadfusion::core {
class FusionFilter;
}
namespace roadfusion::roadseg {
class Encoder;
}

namespace roadfusion::plan {

/// Vector width of the blocked layout: NCHWc8, eight channels innermost.
constexpr int64_t kLanes = 8;

/// Channel blocks needed for `channels` channels (last block zero-padded).
inline int64_t blocks_of(int64_t channels) {
  return (channels + kLanes - 1) / kLanes;
}

/// Float count of an NCHWc8 buffer including its ring-1 zero border
/// (pad-1 convolutions read the border instead of testing bounds).
inline int64_t nchwc_floats(int64_t n, int64_t channels, int64_t h,
                            int64_t w) {
  return n * blocks_of(channels) * (h + 2) * (w + 2) * kLanes;
}

/// Buffer layout of one slot — and, for a whole plan, the layout its convs
/// run in (stems, encoder blocks, fusion filters and the decoder; the
/// WeightedSharing AWN is NCHW in every plan).
enum class Layout {
  kNchw,   ///< plain dense NCHW Tensor; layers run their forward_infer
  kNchwc,  ///< blocked NCHWc8 with ring-1 zero border, flat storage
};

/// The four ways a RoadSegNet serves a frame. Each compiles to its own
/// step list from the same per-scheme switch.
enum class Mode {
  kFused,       ///< both branches, fused at every stage
  kRgbOnly,     ///< fusion weight 0: the depth input is never read
  kStreamFill,  ///< kFused that also stores the matched depth features
  kStreamHit,   ///< RGB branch fused with the stored depth features
};

/// One conv repacked for the blocked direct kernels: weights reordered to
/// [out_block][in_channel][ky][kx][lane] (lane = output channel within
/// the block, zero-padded past `cout`) with the fused per-output-channel
/// epilogue stored as lane-padded arrays. The epilogue replays the exact
/// scalar chain of the GEMM path — bias add, then (v - mean) * invstd
/// followed by gamma * xh + beta, then ReLU — and every padded lane's
/// parameters are zero so padded output lanes stay exactly 0.0f.
///
/// A transposed conv (2x2, stride 2, no bias or BN) stores its weights as
/// [out_block][ky][in_channel][kx][lane], so the two taps one input pixel
/// feeds along an output row sit next to each other.
struct PackedConv {
  int64_t cin = 0;
  int64_t cout = 0;
  int64_t kernel = 1;  ///< 1 or 3 (padding implied: 3 -> pad 1); 2 transposed
  int64_t stride = 1;
  bool transposed = false;
  std::vector<float> w;  ///< blocks_of(cout) * cin * kernel^2 * kLanes
  /// Lane-padded epilogue parameter arrays (blocks_of(cout) * kLanes each;
  /// empty = stage skipped). The four bn_* arrays are set together.
  std::vector<float> bias;
  std::vector<float> bn_mean;
  std::vector<float> bn_invstd;
  std::vector<float> bn_gamma;
  std::vector<float> bn_beta;
  bool relu = false;
};

/// One buffer of the plan. NCHWc slots hold nchwc_floats(...) floats;
/// NCHW slots are (n, c, h, w) Tensors.
struct SlotDef {
  Layout layout = Layout::kNchw;
  int64_t n = 0, c = 0, h = 0, w = 0;  ///< logical dims (border excluded)
  tensor::Shape shape;                 ///< storage shape
  /// Index of the last step reading this slot. The executor drops an NCHW
  /// buffer right after that step so the workspace arena can reuse its
  /// storage, and NCHWc slots with disjoint lifetimes share frame space.
  /// -1 = never read.
  int last_use = -1;
  /// >= 0: the slot lives in the caller's StreamFeatureCache at this
  /// index (the stage whose matched depth features it holds) instead of
  /// the arena, so it survives the call. Stream-fill plans write it,
  /// stream-hit plans only read it.
  int persistent = -1;
  /// Transient NCHWc slots: float offset into the executor's per-thread
  /// frame. Slots whose lifetimes do not overlap share frame space.
  int64_t offset = -1;
  std::string label;  ///< for --explain-plan
};

enum class StepKind {
  /// NCHW encoder stage through the layer's own forward_infer: the stem
  /// at stage 0, a residual block otherwise.
  kEncoderStage,
  kMatch,           ///< NCHW fusion filter match_infer: dst = F(src)
  kConvertToNchwc,  ///< src (NCHW) -> dst (NCHWc)
  kConvertToNchw,   ///< src (NCHWc) -> dst (NCHW)
  /// Blocked direct conv src -> dst with the fused epilogue chain:
  /// bias -> BN affine -> (+ pre slot, the residual shortcut) -> ReLU ->
  /// (+ fusion_weight * post slot, the cross-layer fusion sum). An NCHW
  /// dst (the decoder head) receives the real channels densely.
  kConvNchwc,
  /// Blocked 2x2/s2 transposed conv src -> dst (decoder upsampling) with
  /// the skip connection (pre slot) added in its epilogue.
  kTconvNchwc,
  kAddInPlace,  ///< dst += src (AllFilter_B depth update; either layout)
  kAccumulate,  ///< dst += fusion_weight * src (either layout)
  /// WeightedSharing head on NCHW: w = AWN(dst, src); aux = w * src per
  /// sample (aux may be src itself, never a persistent slot);
  /// dst += fusion_weight * aux.
  kAwnFuse,
  kDecoder,  ///< NCHW decoder + head over the skip slots -> logits (dst)
};

struct Step {
  StepKind kind = StepKind::kEncoderStage;
  int src = -1;
  int dst = -1;
  int pre = -1;   ///< residual shortcut (kConvNchwc), skip (kTconvNchwc)
  int post = -1;  ///< kConvNchwc: fusion-sum slot (scaled by fusion weight)
  int aux = -1;   ///< kAwnFuse: scaled depth features
  const PackedConv* conv = nullptr;             ///< kConvNchwc, kTconvNchwc
  const roadseg::Encoder* encoder = nullptr;    ///< kEncoderStage
  const core::FusionFilter* filter = nullptr;   ///< kMatch
  /// Layer the conv steps run, as --explain-plan names it (a shared
  /// stage's depth branch names its own layer, not the aliased rgb one).
  std::string layer;
  /// Trace span the step runs under, "<group><stage>" (or just "<group>"
  /// for stage -1). Consecutive steps of one group and stage share one
  /// span, nested in one `outer` span when set (the blocked decoder's
  /// "decoder"), so a trace shows the same spans per encoder branch,
  /// fusion point and decoder step whichever layout the plan runs.
  const char* group = nullptr;
  int stage = -1;
  const char* outer = nullptr;
};

}  // namespace roadfusion::plan
