#include "plan/plan.hpp"

#include <array>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "autograd/gemm.hpp"
#include "common/check.hpp"
#include "common/cpu.hpp"
#include "core/awn.hpp"
#include "core/fusion_filter.hpp"
#include "core/fusion_scheme.hpp"
#include "nn/blocks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/ir.hpp"
#include "plan/nchwc.hpp"
#include "quant/runtime.hpp"
#include "roadseg/encoder.hpp"
#include "roadseg/plan_hook.hpp"
#include "roadseg/roadseg_net.hpp"
#include "tune/dispatch.hpp"
#include "tune/solver.hpp"

namespace roadfusion::plan {
namespace {

using core::FusionScheme;
using roadseg::Encoder;
using roadseg::RoadSegNet;
using tensor::Tensor;

/// Fixed executor capacity — slot storage lives in a stack array so a
/// plan run performs no per-call container allocation. Generous: the
/// deepest supported network (8 stages) compiles to ~70 slots.
constexpr int kMaxPlanSlots = 96;
constexpr int kMaxPlanStages = 8;

/// One residual block repacked for the blocked kernel. conv2 carries the
/// post-shortcut ReLU (the epilogue order is bias -> BN -> +pre -> ReLU,
/// exactly the graph's conv2 + add_relu chain).
struct BlockPack {
  PackedConv conv1;
  PackedConv conv2;
  std::unique_ptr<PackedConv> proj;  ///< null = identity shortcut
};

/// Geometry-specific schedule; immutable once compiled.
struct CompiledPlan {
  int64_t n = 0, h = 0, w = 0;
  std::vector<SlotDef> slots;
  std::vector<Step> steps;
  std::vector<int> skip_slots;  ///< NCHW fused pyramid, stage 0 first
  /// Slots to drop right after each step (their last reader) — computed
  /// liveness that keeps the arena footprint minimal.
  std::vector<std::vector<int>> release_after;
};

/// Geometry-independent plan state hung off the RoadSegNet: packed
/// weights plus a small cache of compiled per-geometry schedules.
struct PlanContext {
  int stages = 0;
  FusionScheme scheme = FusionScheme::kBaseline;
  std::vector<std::shared_ptr<const BlockPack>> rgb_blocks;    ///< [stage-1]
  std::vector<std::shared_ptr<const BlockPack>> depth_blocks;  ///< [stage-1]
  std::vector<PackedConv> d2r;  ///< [stage]; stage 0 runs NCHW, entry unused
  std::vector<PackedConv> r2d;  ///< AllFilter_B only, same indexing
  std::mutex mutex;
  std::vector<std::shared_ptr<const CompiledPlan>> plans;
};

obs::Counter& plan_counter(const char* which, const char* help) {
  return obs::MetricsRegistry::global().counter(
      std::string("roadfusion_plan_") + which, help);
}

std::shared_ptr<const BlockPack> pack_block(const nn::ResidualBlock& rb,
                                            const std::string& name) {
  auto bp = std::make_shared<BlockPack>();
  bp->conv1 =
      pack_conv(rb.conv1().conv(), &rb.conv1().bn(), true, name + ".conv1");
  bp->conv2 = pack_conv(rb.conv2(), &rb.bn2(), true, name + ".conv2");
  if (rb.projection() != nullptr) {
    bp->proj = std::make_unique<PackedConv>(
        pack_conv(*rb.projection(), rb.projection_bn(), false, name + ".proj"));
  }
  return bp;
}

/// The bit-exactness argument (nchwc.hpp) requires the graph-path GEMM to
/// run its whole reduction in one Kc cache block, so the plan only covers
/// convs whose lowered depth fits one block.
bool fits_one_kc_block(const PackedConv& pc) {
  return pc.cin * pc.kernel * pc.kernel <=
         autograd::kernels::blocked_gemm_config().kc;
}

bool uses_filters(FusionScheme scheme) {
  return scheme == FusionScheme::kAllFilterU ||
         scheme == FusionScheme::kAllFilterB;
}

// ---------------------------------------------------------------------------
// Build: network -> PlanContext (packed weights)
// ---------------------------------------------------------------------------

std::shared_ptr<void> build_hook(const RoadSegNet& net) {
  if (!planning_enabled() || quant::enabled()) {
    return nullptr;
  }
  const int stages = net.num_stages();
  if (stages < 2 || stages > kMaxPlanStages) {
    return nullptr;
  }
  auto ctx = std::make_shared<PlanContext>();
  ctx->stages = stages;
  ctx->scheme = net.config().scheme;
  bool ok = true;
  const auto block_fits = [&](const BlockPack& bp) {
    return fits_one_kc_block(bp.conv1) && fits_one_kc_block(bp.conv2) &&
           (bp.proj == nullptr || fits_one_kc_block(*bp.proj));
  };
  for (int stage = 1; stage < stages; ++stage) {
    auto rgb = pack_block(net.rgb_encoder().block(stage),
                          "rgb.stage" + std::to_string(stage));
    // A shared stage aliases the rgb parameters — pack once, point twice.
    auto depth = net.stage_is_shared(stage)
                     ? rgb
                     : pack_block(net.depth_encoder().block(stage),
                                  "depth.stage" + std::to_string(stage));
    ok = ok && block_fits(*rgb) && block_fits(*depth);
    ctx->rgb_blocks.push_back(std::move(rgb));
    ctx->depth_blocks.push_back(std::move(depth));
  }
  if (uses_filters(ctx->scheme)) {
    ctx->d2r.resize(static_cast<size_t>(stages));
    for (int stage = 1; stage < stages; ++stage) {
      ctx->d2r[static_cast<size_t>(stage)] =
          pack_conv(net.depth_to_rgb_filters()[static_cast<size_t>(stage)]
                        .conv(),
                    nullptr, false, "d2r.stage" + std::to_string(stage));
      ok = ok && fits_one_kc_block(ctx->d2r[static_cast<size_t>(stage)]);
    }
    if (ctx->scheme == FusionScheme::kAllFilterB) {
      ctx->r2d.resize(static_cast<size_t>(stages));
      for (int stage = 1; stage + 1 < stages; ++stage) {
        ctx->r2d[static_cast<size_t>(stage)] =
            pack_conv(net.rgb_to_depth_filters()[static_cast<size_t>(stage)]
                          .conv(),
                      nullptr, false, "r2d.stage" + std::to_string(stage));
        ok = ok && fits_one_kc_block(ctx->r2d[static_cast<size_t>(stage)]);
      }
    }
  }
  if (!ok) {
    plan_counter("declined_total",
                 "Plan builds/runs declined to the graph-order path")
        .inc();
    return nullptr;
  }
  plan_counter("builds_total", "Inference plan contexts compiled").inc();
  return ctx;
}

// ---------------------------------------------------------------------------
// Compile: PlanContext + input geometry -> CompiledPlan
// ---------------------------------------------------------------------------

std::shared_ptr<const CompiledPlan> compile(const PlanContext& ctx,
                                            const RoadSegNet& net, int64_t n,
                                            int64_t h, int64_t w) {
  auto plan = std::make_shared<CompiledPlan>();
  plan->n = n;
  plan->h = h;
  plan->w = w;
  const auto& channels = net.config().stage_channels;
  const auto new_slot = [&](Layout layout, int64_t c, int64_t hh, int64_t ww,
                            std::string label) {
    SlotDef def;
    def.layout = layout;
    def.n = n;
    def.c = c;
    def.h = hh;
    def.w = ww;
    def.label = std::move(label);
    plan->slots.push_back(std::move(def));
    return static_cast<int>(plan->slots.size()) - 1;
  };
  const auto push = [&](Step step) { plan->steps.push_back(step); };

  // Stage 0: plain NCHW through the existing layer paths, then one
  // layout conversion each for the two feature maps the interior stages
  // consume. skip 0 stays NCHW for the decoder.
  const int64_t c0 = channels[0];
  const int skip0 = new_slot(Layout::kNchw, c0, h, w, "skip0");
  const int d0 = new_slot(Layout::kNchw, c0, h, w, "d0");
  {
    Step s;
    s.kind = StepKind::kStageZero;
    s.dst = skip0;
    s.aux = d0;
    s.stage = 0;
    push(s);
  }
  plan->skip_slots.push_back(skip0);
  int r_in = new_slot(Layout::kNchwc, c0, h, w, "skip0.c8");
  {
    Step s;
    s.kind = StepKind::kConvertToNchwc;
    s.src = skip0;
    s.dst = r_in;
    push(s);
  }
  int d_in = new_slot(Layout::kNchwc, c0, h, w, "d0.c8");
  {
    Step s;
    s.kind = StepKind::kConvertToNchwc;
    s.src = d0;
    s.dst = d_in;
    push(s);
  }

  for (int stage = 1; stage < ctx.stages; ++stage) {
    const int64_t c = channels[static_cast<size_t>(stage)];
    const int64_t out_h = Encoder::stage_extent(stage, h);
    const int64_t out_w = Encoder::stage_extent(stage, w);
    const BlockPack& rgb = *ctx.rgb_blocks[static_cast<size_t>(stage - 1)];
    const BlockPack& depth = *ctx.depth_blocks[static_cast<size_t>(stage - 1)];
    const std::string tag = ".stage" + std::to_string(stage);

    // Emits one residual block: conv1, (projection), conv2 with the
    // shortcut fused as `pre` and — when `post_slot` >= 0 — the fusion
    // sum fused as `post`. Returns the block output slot.
    const auto emit_block = [&](const BlockPack& bp, int input,
                                const std::string& who, int post_slot) {
      const int t1 = new_slot(Layout::kNchwc, c, out_h, out_w, who + ".conv1");
      Step s1;
      s1.kind = StepKind::kConvNchwc;
      s1.src = input;
      s1.dst = t1;
      s1.conv = &bp.conv1;
      s1.stage = stage;
      push(s1);
      int pre = input;  // identity shortcut (requires matching geometry)
      if (bp.proj != nullptr) {
        pre = new_slot(Layout::kNchwc, c, out_h, out_w, who + ".proj");
        Step sp;
        sp.kind = StepKind::kConvNchwc;
        sp.src = input;
        sp.dst = pre;
        sp.conv = bp.proj.get();
        sp.stage = stage;
        push(sp);
      }
      const int out = new_slot(Layout::kNchwc, c, out_h, out_w, who);
      Step s2;
      s2.kind = StepKind::kConvNchwc;
      s2.src = t1;
      s2.dst = out;
      s2.pre = pre;
      s2.post = post_slot;
      s2.conv = &bp.conv2;
      s2.stage = stage;
      push(s2);
      return out;
    };
    const auto emit_filter = [&](const PackedConv& pc, int input,
                                 const std::string& who, int post_slot) {
      const int out = new_slot(Layout::kNchwc, c, out_h, out_w, who);
      Step s;
      s.kind = StepKind::kConvNchwc;
      s.src = input;
      s.dst = out;
      s.post = post_slot;
      s.conv = &pc;
      s.stage = stage;
      push(s);
      return out;
    };

    int fused = -1;
    int d_i = -1;
    const bool last = stage == ctx.stages - 1;
    switch (ctx.scheme) {
      case FusionScheme::kBaseline:
      case FusionScheme::kBaseSharing:
        d_i = emit_block(depth, d_in, "d" + tag, -1);
        fused = emit_block(rgb, r_in, "fused" + tag, d_i);
        break;
      case FusionScheme::kAllFilterU: {
        d_i = emit_block(depth, d_in, "d" + tag, -1);
        const int matched = emit_filter(ctx.d2r[static_cast<size_t>(stage)],
                                        d_i, "matched" + tag, -1);
        fused = emit_block(rgb, r_in, "fused" + tag, matched);
        break;
      }
      case FusionScheme::kAllFilterB: {
        d_i = emit_block(depth, d_in, "d" + tag, -1);
        if (last) {
          // No reverse filter at the deepest stage — the fusion sum can
          // ride the rgb conv2 epilogue like AllFilter_U.
          const int matched = emit_filter(ctx.d2r[static_cast<size_t>(stage)],
                                          d_i, "matched" + tag, -1);
          fused = emit_block(rgb, r_in, "fused" + tag, matched);
        } else {
          // The reverse filter needs the *pre-fusion* rgb features, so
          // the fusion sum cannot be fused into the rgb block here.
          const int r_i = emit_block(rgb, r_in, "r" + tag, -1);
          const int matched = emit_filter(ctx.d2r[static_cast<size_t>(stage)],
                                          d_i, "matched" + tag, -1);
          const int mrgb = emit_filter(ctx.r2d[static_cast<size_t>(stage)],
                                       r_i, "matched_rgb" + tag, -1);
          Step upd;
          upd.kind = StepKind::kAddInPlace;
          upd.dst = d_i;
          upd.src = mrgb;
          upd.stage = stage;
          push(upd);
          Step acc;
          acc.kind = StepKind::kAccumulate;
          acc.dst = r_i;
          acc.src = matched;
          acc.stage = stage;
          push(acc);
          fused = r_i;
        }
        break;
      }
      case FusionScheme::kWeightedSharing: {
        d_i = emit_block(depth, d_in, "d" + tag, -1);
        if (!last) {
          fused = emit_block(rgb, r_in, "fused" + tag, d_i);
          break;
        }
        // AWN head: both deepest feature stacks go back to NCHW (the AWN
        // pools them and the fused result only feeds the decoder), then
        // the graph-path weighting + fusion code runs verbatim.
        const int r_i = emit_block(rgb, r_in, "r" + tag, -1);
        const int rskip =
            new_slot(Layout::kNchw, c, out_h, out_w, "fused" + tag);
        Step cr;
        cr.kind = StepKind::kConvertToNchw;
        cr.src = r_i;
        cr.dst = rskip;
        cr.stage = stage;
        push(cr);
        const int dn = new_slot(Layout::kNchw, c, out_h, out_w, "d" + tag);
        Step cd;
        cd.kind = StepKind::kConvertToNchw;
        cd.src = d_i;
        cd.dst = dn;
        cd.stage = stage;
        push(cd);
        Step awn;
        awn.kind = StepKind::kAwnFuse;
        awn.dst = rskip;
        awn.aux = dn;
        awn.stage = stage;
        push(awn);
        plan->skip_slots.push_back(rskip);
        break;
      }
    }
    if (fused >= 0) {
      const int skip =
          new_slot(Layout::kNchw, c, out_h, out_w, "skip" + tag);
      Step cs;
      cs.kind = StepKind::kConvertToNchw;
      cs.src = fused;
      cs.dst = skip;
      cs.stage = stage;
      push(cs);
      plan->skip_slots.push_back(skip);
      r_in = fused;
      d_in = d_i;
    }
  }

  {
    Step dec;
    dec.kind = StepKind::kDecoder;
    dec.stage = ctx.stages;
    push(dec);
  }

  if (plan->slots.size() > kMaxPlanSlots) {
    return nullptr;
  }

  // Liveness: record each slot's last reader, then invert into per-step
  // release lists (a step never releases its own outputs).
  std::vector<int> last_use(plan->slots.size(), -1);
  for (size_t j = 0; j < plan->steps.size(); ++j) {
    const Step& st = plan->steps[j];
    const auto read = [&](int slot) {
      if (slot >= 0) {
        last_use[static_cast<size_t>(slot)] = static_cast<int>(j);
      }
    };
    read(st.src);
    read(st.pre);
    read(st.post);
    if (st.kind == StepKind::kAddInPlace ||
        st.kind == StepKind::kAccumulate) {
      read(st.dst);  // in-place update reads its destination
    }
    if (st.kind == StepKind::kAwnFuse) {
      read(st.dst);
      read(st.aux);
    }
    if (st.kind == StepKind::kDecoder) {
      for (int skip : plan->skip_slots) {
        read(skip);
      }
    }
  }
  plan->release_after.assign(plan->steps.size(), {});
  for (size_t i = 0; i < plan->slots.size(); ++i) {
    plan->slots[i].last_use = last_use[i];
    const int j = last_use[i];
    if (j < 0) {
      continue;
    }
    const Step& st = plan->steps[static_cast<size_t>(j)];
    if (static_cast<int>(i) == st.dst || static_cast<int>(i) == st.aux) {
      continue;
    }
    plan->release_after[static_cast<size_t>(j)].push_back(
        static_cast<int>(i));
  }

  // Compile-time schedule metrics: how many layers landed in each layout.
  int64_t nchwc_layers = 0;
  for (const Step& st : plan->steps) {
    if (st.kind == StepKind::kConvNchwc) {
      ++nchwc_layers;
    }
  }
  // NCHW layers: two stems, the stage-0 filters, the decoder stack and —
  // for WeightedSharing — the AWN head.
  int64_t nchw_layers = 2 + 2 * (ctx.stages - 1) + 1;
  if (uses_filters(ctx.scheme)) {
    nchw_layers += 1;  // stage-0 depth->rgb filter
  }
  if (ctx.scheme == FusionScheme::kAllFilterB) {
    nchw_layers += 1;  // stage-0 rgb->depth filter
  }
  if (ctx.scheme == FusionScheme::kWeightedSharing) {
    nchw_layers += 1;  // AWN
  }
  obs::MetricsRegistry::global()
      .counter("roadfusion_plan_layers_total{layout=\"nchwc\"}",
               "Layers scheduled per layout by the inference plan compiler")
      .inc(static_cast<uint64_t>(nchwc_layers));
  obs::MetricsRegistry::global()
      .counter("roadfusion_plan_layers_total{layout=\"nchw\"}",
               "Layers scheduled per layout by the inference plan compiler")
      .inc(static_cast<uint64_t>(nchw_layers));
  plan_counter("compiles_total", "Per-geometry inference plans compiled")
      .inc();
  return plan;
}

// ---------------------------------------------------------------------------
// Execute
// ---------------------------------------------------------------------------

void run_stage_zero(const RoadSegNet& net, const PlanContext& ctx,
                    const Tensor& rgb, const Tensor& depth,
                    float fusion_weight, Tensor& skip0_out, Tensor& d0_out) {
  obs::ScopedSpan span("plan.stage", 0);
  // Keep the graph path's per-encoder span names so traces stay
  // comparable (and trace consumers keyed on them keep working) whether
  // or not a plan served the request.
  Tensor r0, d0;
  {
    obs::ScopedSpan rgb_span("rgb_encoder.stage", 0);
    r0 = net.rgb_encoder().forward_stage_infer(0, rgb);
  }
  {
    obs::ScopedSpan depth_span("depth_encoder.stage", 0);
    d0 = net.depth_encoder().forward_stage_infer(0, depth);
  }
  obs::ScopedSpan fusion_span("fusion.stage", 0);
  switch (ctx.scheme) {
    case FusionScheme::kBaseline:
    case FusionScheme::kBaseSharing:
    case FusionScheme::kWeightedSharing:
      accumulate(r0.raw(), d0.raw(), r0.numel(), fusion_weight);
      break;
    case FusionScheme::kAllFilterU: {
      const Tensor matched = net.depth_to_rgb_filters()[0].match_infer(d0);
      accumulate(r0.raw(), matched.raw(), r0.numel(), fusion_weight);
      break;
    }
    case FusionScheme::kAllFilterB: {
      const Tensor matched = net.depth_to_rgb_filters()[0].match_infer(d0);
      // next_depth = d_0 + match(r_0), before r_0 is fused in place —
      // the exact graph-path order.
      const Tensor matched_rgb = net.rgb_to_depth_filters()[0].match_infer(r0);
      add_in_place(d0.raw(), matched_rgb.raw(), d0.numel());
      accumulate(r0.raw(), matched.raw(), r0.numel(), fusion_weight);
      break;
    }
  }
  skip0_out = std::move(r0);
  d0_out = std::move(d0);
}

bool execute(const RoadSegNet& net, const PlanContext& ctx,
             const CompiledPlan& plan, const Tensor& rgb, const Tensor& depth,
             float fusion_weight, Tensor& out) {
  obs::ScopedSpan plan_span("plan.execute");
  std::array<std::optional<Tensor>, kMaxPlanSlots> slots;
  const auto get = [&](int idx) -> Tensor& { return *slots[static_cast<size_t>(idx)]; };
  const auto define = [&](int idx) -> Tensor& {
    const SlotDef& def = plan.slots[static_cast<size_t>(idx)];
    if (def.layout == Layout::kNchwc) {
      // Zero-initialized: the conv kernels only write the interior, the
      // border ring and padded lanes must stay 0.
      slots[static_cast<size_t>(idx)].emplace(
          tensor::Shape::vec(nchwc_floats(def.n, def.c, def.h, def.w)));
    } else {
      slots[static_cast<size_t>(idx)].emplace(Tensor::uninitialized(
          tensor::Shape::nchw(def.n, def.c, def.h, def.w)));
    }
    return *slots[static_cast<size_t>(idx)];
  };

  for (size_t j = 0; j < plan.steps.size(); ++j) {
    const Step& st = plan.steps[j];
    switch (st.kind) {
      case StepKind::kStageZero: {
        Tensor skip0, d0;
        run_stage_zero(net, ctx, rgb, depth, fusion_weight, skip0, d0);
        slots[static_cast<size_t>(st.dst)] = std::move(skip0);
        slots[static_cast<size_t>(st.aux)] = std::move(d0);
        break;
      }
      case StepKind::kConvertToNchwc: {
        const SlotDef& sd = plan.slots[static_cast<size_t>(st.src)];
        convert_to_nchwc(get(st.src).raw(), sd.n, sd.c, sd.h, sd.w,
                         define(st.dst).raw());
        break;
      }
      case StepKind::kConvertToNchw: {
        const SlotDef& sd = plan.slots[static_cast<size_t>(st.src)];
        convert_to_nchw(get(st.src).raw(), sd.n, sd.c, sd.h, sd.w,
                        define(st.dst).raw());
        break;
      }
      case StepKind::kConvNchwc: {
        obs::ScopedSpan span("plan.conv", st.stage);
        const SlotDef& sd = plan.slots[static_cast<size_t>(st.src)];
        const SlotDef& dd = plan.slots[static_cast<size_t>(st.dst)];
        conv_nchwc(get(st.src).raw(), dd.n, sd.h, sd.w, *st.conv,
                   define(st.dst).raw(), dd.h, dd.w,
                   st.pre >= 0 ? get(st.pre).raw() : nullptr,
                   st.post >= 0 ? get(st.post).raw() : nullptr,
                   fusion_weight);
        break;
      }
      case StepKind::kAddInPlace:
        add_in_place(get(st.dst).raw(), get(st.src).raw(),
                     get(st.dst).numel());
        break;
      case StepKind::kAccumulate:
        accumulate(get(st.dst).raw(), get(st.src).raw(), get(st.dst).numel(),
                   fusion_weight);
        break;
      case StepKind::kAwnFuse: {
        Tensor& r = get(st.dst);
        Tensor& d = get(st.aux);
        {
          obs::ScopedSpan awn_span("awn.weight");
          const Tensor wgt = net.awn()->weight_infer(r, d);
          // matched = w (per sample) * d, in place; ws * x order as in
          // scale_per_sample — verbatim graph-path code.
          const int64_t batch = d.shape().batch();
          const int64_t per_sample = d.numel() / batch;
          float* pd = d.raw();
          const float* pw = wgt.raw();
          for (int64_t s = 0; s < batch; ++s) {
            const float ws = pw[s];
            for (int64_t i = 0; i < per_sample; ++i) {
              pd[s * per_sample + i] = ws * pd[s * per_sample + i];
            }
          }
        }
        accumulate(r.raw(), d.raw(), r.numel(), fusion_weight);
        break;
      }
      case StepKind::kDecoder: {
        obs::ScopedSpan decoder_span("decoder");
        std::array<Tensor, kMaxPlanStages> skips;
        for (size_t i = 0; i < plan.skip_slots.size(); ++i) {
          skips[i] =
              std::move(get(plan.skip_slots[i]));
        }
        out = net.decoder().forward_infer(
            skips.data(), static_cast<int>(plan.skip_slots.size()));
        break;
      }
    }
    for (int idx : plan.release_after[j]) {
      slots[static_cast<size_t>(idx)].reset();
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Run hook: decline checks + plan-cache lookup
// ---------------------------------------------------------------------------

bool run_hook(const RoadSegNet& net, const std::shared_ptr<void>& state,
              const Tensor& rgb, const Tensor& depth, float fusion_weight,
              Tensor& out) {
  auto* ctx = static_cast<PlanContext*>(state.get());
  if (ctx == nullptr) {
    return false;
  }
  // Declines — each falls back to the graph-order path, which either
  // handles the case (degraded RGB-only mode, forced solver, quantized
  // mode) or raises its own descriptive error (bad geometry).
  // Note the weight-range part also declines NaN and out-of-range values,
  // so the graph path's fusion_weight CHECK still raises for them.
  if (!(fusion_weight > 0.0f && fusion_weight <= 1.0f) || quant::enabled() ||
      !tune::forced_solver().empty()) {
    plan_counter("declined_total",
                 "Plan builds/runs declined to the graph-order path")
        .inc();
    return false;
  }
  if (rgb.shape().rank() != 4 || depth.shape().rank() != 4) {
    return false;
  }
  const int64_t n = rgb.shape().batch();
  const int64_t h = rgb.shape().height();
  const int64_t w = rgb.shape().width();
  const int64_t stride = int64_t{1} << (ctx->stages - 1);
  if (depth.shape().batch() != n || depth.shape().height() != h ||
      depth.shape().width() != w ||
      rgb.shape().dim(1) != net.config().rgb_channels ||
      depth.shape().dim(1) != net.config().depth_channels || h < stride ||
      w < stride || h % stride != 0 || w % stride != 0) {
    return false;
  }
  std::shared_ptr<const CompiledPlan> plan;
  {
    std::lock_guard<std::mutex> lock(ctx->mutex);
    for (const auto& p : ctx->plans) {
      if (p->n == n && p->h == h && p->w == w) {
        plan = p;
        break;
      }
    }
    if (plan == nullptr) {
      plan = compile(*ctx, net, n, h, w);
      if (plan == nullptr) {
        plan_counter("declined_total",
                     "Plan builds/runs declined to the graph-order path")
            .inc();
        return false;
      }
      ctx->plans.push_back(plan);
    }
  }
  return execute(net, *ctx, *plan, rgb, depth, fusion_weight, out);
}

[[maybe_unused]] const bool hooks_installed = [] {
  install_hooks();
  return true;
}();

// ---------------------------------------------------------------------------
// --explain-plan printer
// ---------------------------------------------------------------------------

std::string slot_str(const CompiledPlan& plan, int idx) {
  if (idx < 0) {
    return "-";
  }
  const SlotDef& def = plan.slots[static_cast<size_t>(idx)];
  std::ostringstream os;
  os << "%" << idx << ":" << def.label << "(" << def.n << "x" << def.c << "x"
     << def.h << "x" << def.w
     << (def.layout == Layout::kNchwc ? " nchwc8)" : " nchw)");
  return os.str();
}

std::string epilogue_str(const Step& st) {
  std::string out;
  const auto add = [&](const char* stage) {
    out += out.empty() ? stage : std::string("+") + stage;
  };
  if (st.conv != nullptr && !st.conv->bias.empty()) {
    add("bias");
  }
  if (st.conv != nullptr && !st.conv->bn_mean.empty()) {
    add("bn");
  }
  if (st.pre >= 0) {
    add("residual");
  }
  if (st.conv != nullptr && st.conv->relu) {
    add("relu");
  }
  if (st.post >= 0) {
    add("fusion_sum");
  }
  return out.empty() ? "none" : out;
}

/// Solver the registry would bind for an NCHW conv of this shape — the
/// graph-path layers of the plan (stems, decoder) still dispatch there.
std::string bound_solver(int64_t cin, int64_t cout, int64_t kernel,
                         int64_t stride, int64_t pad, int64_t in_h,
                         int64_t in_w) {
  tune::ConvProblem problem;
  problem.n = 1;
  problem.c = cin;
  problem.h = in_h;
  problem.w = in_w;
  problem.k = cout;
  problem.r = kernel;
  problem.s = kernel;
  problem.stride = stride;
  problem.pad = pad;
  return tune::bind(problem, true)->solver->name();
}

}  // namespace

bool planning_enabled() {
  const char* env = std::getenv("ROADFUSION_PLAN");
  return env == nullptr || std::string(env) != "0";
}

void install_hooks() {
  roadseg::PlanHooks hooks;
  hooks.build = &build_hook;
  hooks.run = &run_hook;
  roadseg::set_plan_hooks(hooks);
}

std::string explain(const roadseg::RoadSegNet& net, int64_t n, int64_t h,
                    int64_t w) {
  std::ostringstream os;
  if (!net.supports_raw_inference()) {
    return "inference plan unavailable: model is in training mode (call "
           "set_training(false) + prepare_inference() first)\n";
  }
  const std::shared_ptr<void> state = build_hook(net);
  if (state == nullptr) {
    os << "inference plan unavailable ("
       << (!planning_enabled()
               ? "ROADFUSION_PLAN=0"
               : quant::enabled()
                     ? "quantized mode"
                     : "unsupported model shape")
       << "); inference uses the graph-order path\n";
    return os.str();
  }
  auto* ctx = static_cast<PlanContext*>(state.get());
  const auto plan = compile(*ctx, net, n, h, w);
  if (plan == nullptr) {
    return "inference plan unavailable for this geometry; inference uses "
           "the graph-order path\n";
  }
  os << "inference plan: scheme=" << core::to_string(ctx->scheme)
     << " input=" << n << "x" << net.config().rgb_channels << "x" << h << "x"
     << w << " steps=" << plan->steps.size()
     << " slots=" << plan->slots.size() << "\n";
  if (!tune::forced_solver().empty()) {
    os << "  note: ROADFUSION_SOLVER is set — the plan DECLINES at run "
          "time and the graph path serves every call\n";
  }
  for (size_t j = 0; j < plan->steps.size(); ++j) {
    const Step& st = plan->steps[j];
    os << "  [" << j << "] ";
    switch (st.kind) {
      case StepKind::kStageZero:
        os << "stage0      layout=nchw solver="
           << bound_solver(net.config().rgb_channels,
                           net.config().stage_channels[0], 3, 1, 1, h, w)
           << " stems+stage0 fusion -> " << slot_str(*plan, st.dst) << ", "
           << slot_str(*plan, st.aux);
        break;
      case StepKind::kConvertToNchwc:
        os << "to_nchwc    " << slot_str(*plan, st.src) << " -> "
           << slot_str(*plan, st.dst);
        break;
      case StepKind::kConvertToNchw:
        os << "to_nchw     " << slot_str(*plan, st.src) << " -> "
           << slot_str(*plan, st.dst);
        break;
      case StepKind::kConvNchwc:
        os << "conv" << st.conv->kernel << "x" << st.conv->kernel << "/s"
           << st.conv->stride << "   layout=nchwc8 solver=nchwc_direct"
           << (common::active_tier() >= common::CpuTier::kAvx2 ? "_avx2"
                                                               : "")
           << " layer="
           << st.conv->name << " epilogue=" << epilogue_str(st) << " "
           << slot_str(*plan, st.src) << " -> " << slot_str(*plan, st.dst);
        if (st.pre >= 0) {
          os << " pre=" << slot_str(*plan, st.pre);
        }
        if (st.post >= 0) {
          os << " post=" << slot_str(*plan, st.post);
        }
        break;
      case StepKind::kAddInPlace:
        os << "add         " << slot_str(*plan, st.dst)
           << " += " << slot_str(*plan, st.src);
        break;
      case StepKind::kAccumulate:
        os << "fusion_sum  " << slot_str(*plan, st.dst)
           << " += w * " << slot_str(*plan, st.src);
        break;
      case StepKind::kAwnFuse:
        os << "awn_fuse    layout=nchw " << slot_str(*plan, st.dst)
           << " += w * AWN-scaled " << slot_str(*plan, st.aux);
        break;
      case StepKind::kDecoder:
        os << "decoder     layout=nchw solver="
           << bound_solver(net.config().stage_channels[0],
                           net.config().stage_channels[0], 3, 1, 1, h, w)
           << " skips={";
        for (size_t i = 0; i < plan->skip_slots.size(); ++i) {
          os << (i == 0 ? "" : ", ") << "%" << plan->skip_slots[i];
        }
        os << "} -> logits";
        break;
    }
    if (!plan->release_after[j].empty()) {
      os << "  free={";
      for (size_t i = 0; i < plan->release_after[j].size(); ++i) {
        os << (i == 0 ? "" : ", ") << "%" << plan->release_after[j][i];
      }
      os << "}";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace roadfusion::plan
