// Inference plan compiler — public surface (DESIGN.md §16).
//
// The plan is the one inference path of a RoadSegNet in eval mode. The
// compiler walks the fusion graph once per (input geometry, layout,
// serving mode) and emits a flat schedule; the executor runs it with
// blocked buffers laid out in a per-thread frame and NCHW buffers drawn
// from the workspace arena, each reused after its last read. Serving
// modes: fused, RGB-only (fusion weight 0), stream fill and stream hit
// (the cross-frame depth-feature cache lives in persistent plan slots).
//
// Each plan runs the whole network in one of two layouts:
//  * NCHWc8 — every conv as a blocked direct conv: the stems read the
//    converted caller input, the residual add, fusion-filter match and
//    fusion sum are fused into conv epilogues, the decoder's transposed
//    convs add their skip in the epilogue, and the head writes the NCHW
//    logits. Only the WeightedSharing AWN runs on NCHW;
//  * NCHW — every layer through its own forward_infer, so the tune
//    solver registry and the int8 kernels serve each conv.
// NCHW is chosen whenever the registry's kernels must run (int8 mode,
// calibration, conv-problem recording for tuning, a forced solver), when
// a conv does not fit one GEMM Kc block (the blocked kernels' exactness
// argument), or when ROADFUSION_PLAN=0. Both layouts are bitwise equal to
// the graph path in fp32.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "plan/ir.hpp"
#include "tensor/tensor.hpp"

namespace roadfusion::roadseg {
class RoadSegNet;
struct StreamFeatureCache;
}  // namespace roadfusion::roadseg

namespace roadfusion::plan {

/// Packed weights plus the per-geometry plans compiled from them.
struct PlanContext;

/// The layout a plan runs in, with the reason in words ("nchwc8: ..." /
/// "nchw: quantized mode").
struct LayoutChoice {
  Layout layout = Layout::kNchw;
  const char* reason = "";
};

/// Packs `net`'s weights for the blocked layout when it is allowed. The
/// net must be in eval mode with its layer inference caches built.
std::shared_ptr<PlanContext> build(const roadseg::RoadSegNet& net);

/// True while `ctx` still reflects the network's parameters (no
/// optimizer step, checkpoint load or training-mode flip since build).
bool current(const PlanContext& ctx);

/// True while `ctx` is current and ROADFUSION_PLAN still reads as it did
/// at build, so a fresh build would pack the same context.
bool reusable(const PlanContext& ctx);

/// The layout the next run against `ctx` takes.
LayoutChoice choose_layout(const PlanContext& ctx);

/// The layout `net` serves with right now (builds a throwaway context).
LayoutChoice layout_for(const roadseg::RoadSegNet& net);

/// Road logits (N, 1, H, W) for NCHW inputs, bit-identical to
/// `forward_fused(rgb, depth, fusion_weight).logits`. With a `cache`,
/// runs as a stream: a hit (depth_unchanged and the cache holds features
/// of this geometry and layout) skips the depth branch; otherwise the
/// fused pass refills the cache. RGB-only calls and AllFilter_B (whose
/// depth branch reads RGB features) invalidate the cache instead.
tensor::Tensor run(const roadseg::RoadSegNet& net, PlanContext& ctx,
                   const tensor::Tensor& rgb, const tensor::Tensor& depth,
                   float fusion_weight, roadseg::StreamFeatureCache* cache,
                   bool depth_unchanged);

/// Human-readable schedule for `net` at input geometry (n, 3, h, w): the
/// chosen layout and why, then one line per step of the fused plan with
/// layout, kernel/solver, fused epilogue stages and buffer slots — the
/// backing of `roadfusion infer --explain-plan`. The net must be in eval
/// mode.
std::string explain(const roadseg::RoadSegNet& net, int64_t n, int64_t h,
                    int64_t w);

/// Does nothing: the plan is part of RoadSegNet and needs no
/// installation. Kept so callers written against the former link-time
/// plan hooks still build.
inline void install_hooks() {}

}  // namespace roadfusion::plan
