#include "plan/plan.hpp"

#include <algorithm>
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
#include "nn/module.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/nchwc.hpp"
#include "quant/runtime.hpp"
#include "roadseg/decoder.hpp"
#include "roadseg/encoder.hpp"
#include "roadseg/roadseg_net.hpp"
#include "tensor/workspace.hpp"
#include "tune/dispatch.hpp"
#include "tune/solver.hpp"

namespace roadfusion::plan {
namespace {

using core::FusionScheme;
using roadseg::Encoder;
using roadseg::RoadSegNet;
using roadseg::StreamFeatureCache;
using tensor::Tensor;

/// Slots 0 and 1 of every plan are the caller's NCHW inputs.
constexpr int kRgbInput = 0;
constexpr int kDepthInput = 1;

/// Span groups. Steps compare group pointers, so each name has exactly
/// one definition.
constexpr const char* kRgbGroup = "rgb_encoder.stage";
constexpr const char* kDepthGroup = "depth_encoder.stage";
constexpr const char* kFusionGroup = "fusion.stage";
constexpr const char* kDecoderGroup = "decoder";
constexpr const char* kUpGroup = "decoder.up";  // + step, deepest first
constexpr const char* kHeadGroup = "decoder.head";

/// One residual block repacked for the blocked kernel. conv2 carries the
/// post-shortcut ReLU (the epilogue order is bias -> BN -> +pre -> ReLU,
/// exactly the graph's conv2 + add_relu chain).
struct BlockPack {
  PackedConv conv1;
  PackedConv conv2;
  std::unique_ptr<PackedConv> proj;  ///< null = identity shortcut
};

/// Schedule for one (geometry, layout, mode); immutable once compiled.
struct CompiledPlan {
  int64_t n = 0, h = 0, w = 0;
  Layout layout = Layout::kNchw;
  Mode mode = Mode::kFused;
  std::vector<SlotDef> slots;
  std::vector<Step> steps;
  int output = -1;              ///< the NCHW logits slot
  std::vector<int> skip_slots;  ///< kDecoder's NCHW pyramid, stage 0 first
  /// Stream plans: the slot of each stage's cached depth features.
  std::vector<int> persistent_slots;
  /// Transient NCHW slots to drop right after each step (their last
  /// reader) — computed liveness that keeps the arena footprint minimal.
  std::vector<std::vector<int>> release_after;
  int64_t frame_floats = 0;  ///< frame size of the transient NCHWc slots
  const char* mode_span = nullptr;  ///< span around the whole mode
};

/// ROADFUSION_PLAN=0: the kill switch that selects the NCHW layout.
bool env_plan_off() {
  const char* env = std::getenv("ROADFUSION_PLAN");
  return env != nullptr && std::string(env) == "0";
}

obs::Counter& plan_counter(const char* which, const char* help) {
  return obs::MetricsRegistry::global().counter(
      std::string("roadfusion_plan_") + which, help);
}

}  // namespace

/// Geometry-independent plan state hung off the RoadSegNet: packed
/// weights plus the compiled schedules.
struct PlanContext {
  uint64_t epoch = 0;  ///< nn inference epoch the weights were packed at
  int stages = 0;
  FusionScheme scheme = FusionScheme::kBaseline;
  bool env_off = false;      ///< ROADFUSION_PLAN=0 at build
  bool kc_overflow = false;  ///< some conv exceeds one Kc block
  PackedConv rgb_stem;
  PackedConv depth_stem;
  std::vector<std::shared_ptr<const BlockPack>> rgb_blocks;    ///< [stage-1]
  std::vector<std::shared_ptr<const BlockPack>> depth_blocks;  ///< [stage-1]
  std::vector<PackedConv> d2r;  ///< [stage]
  std::vector<PackedConv> r2d;  ///< AllFilter_B only, same indexing
  std::vector<PackedConv> up;      ///< decoder upsampling, deepest first
  std::vector<PackedConv> refine;  ///< decoder refine, same indexing
  PackedConv head;
  std::mutex mutex;
  std::vector<std::shared_ptr<const CompiledPlan>> plans;
};

namespace {

// ---------------------------------------------------------------------------
// Build: network -> PlanContext (packed weights)
// ---------------------------------------------------------------------------

/// The bit-exactness argument (nchwc.hpp) requires the graph-path GEMM to
/// run its whole reduction in one Kc cache block, so the blocked layout
/// only runs when every conv's reduction depth fits one block.
bool fits_one_kc_block(int64_t depth) {
  return depth <= autograd::kernels::blocked_gemm_config().kc;
}

bool fits_one_kc_block(const nn::Conv2d& conv) {
  return fits_one_kc_block(conv.in_channels() * conv.geometry().kernel *
                           conv.geometry().kernel);
}

bool block_fits(const nn::ResidualBlock& rb) {
  return fits_one_kc_block(rb.conv1().conv()) &&
         fits_one_kc_block(rb.conv2()) &&
         (rb.projection() == nullptr || fits_one_kc_block(*rb.projection()));
}

bool encoder_fits(const Encoder& encoder) {
  if (!fits_one_kc_block(encoder.stem().conv())) {
    return false;
  }
  for (int stage = 1; stage < encoder.num_stages(); ++stage) {
    if (!block_fits(encoder.block(stage))) {
      return false;
    }
  }
  return true;
}

/// True when every conv the blocked layout runs fits one Kc block: stems,
/// blocks, fusion filters and the decoder (a 2x2/s2 transposed conv
/// reduces over its input channels only).
bool network_fits(const RoadSegNet& net) {
  if (!encoder_fits(net.rgb_encoder()) || !encoder_fits(net.depth_encoder())) {
    return false;
  }
  for (const auto* filters :
       {&net.depth_to_rgb_filters(), &net.rgb_to_depth_filters()}) {
    for (const core::FusionFilter& filter : *filters) {
      if (!fits_one_kc_block(filter.conv())) {
        return false;
      }
    }
  }
  const roadseg::Decoder& decoder = net.decoder();
  for (int step = 0; step < decoder.num_steps(); ++step) {
    if (!fits_one_kc_block(decoder.up(step).in_channels()) ||
        !fits_one_kc_block(decoder.refine(step).conv())) {
      return false;
    }
  }
  return fits_one_kc_block(decoder.head());
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

void pack_blocked(const RoadSegNet& net, PlanContext& ctx) {
  const auto pack_stem = [](const Encoder& encoder, const char* name) {
    return pack_conv(encoder.stem().conv(), &encoder.stem().bn(), true, name);
  };
  ctx.rgb_stem = pack_stem(net.rgb_encoder(), "rgb.stem");
  ctx.depth_stem = pack_stem(net.depth_encoder(), "depth.stem");
  for (int stage = 1; stage < ctx.stages; ++stage) {
    auto rgb = pack_block(net.rgb_encoder().block(stage),
                          "rgb.stage" + std::to_string(stage));
    // A shared stage aliases the rgb parameters — pack once, point twice.
    auto depth = net.stage_is_shared(stage)
                     ? rgb
                     : pack_block(net.depth_encoder().block(stage),
                                  "depth.stage" + std::to_string(stage));
    ctx.rgb_blocks.push_back(std::move(rgb));
    ctx.depth_blocks.push_back(std::move(depth));
  }
  const auto pack_filters = [&](const std::vector<core::FusionFilter>& filters,
                                const char* prefix,
                                std::vector<PackedConv>& out) {
    out.resize(filters.size());
    for (size_t stage = 0; stage < filters.size(); ++stage) {
      out[stage] = pack_conv(filters[stage].conv(), nullptr, false,
                             prefix + std::to_string(stage));
    }
  };
  pack_filters(net.depth_to_rgb_filters(), "d2r.stage", ctx.d2r);
  pack_filters(net.rgb_to_depth_filters(), "r2d.stage", ctx.r2d);
  const roadseg::Decoder& decoder = net.decoder();
  for (int step = 0; step < decoder.num_steps(); ++step) {
    const std::string tag = std::to_string(ctx.stages - 1 - step);
    ctx.up.push_back(pack_tconv(decoder.up(step), "decoder.up" + tag));
    ctx.refine.push_back(pack_conv(decoder.refine(step).conv(),
                                   &decoder.refine(step).bn(), true,
                                   "decoder.refine" + tag));
  }
  ctx.head = pack_conv(decoder.head(), nullptr, false, "decoder.head");
}

// ---------------------------------------------------------------------------
// Compile: PlanContext + layout + mode + input geometry -> CompiledPlan
// ---------------------------------------------------------------------------

/// Emits one plan. Every serving mode and both layouts go through the one
/// per-scheme switch in `compile()`; the helpers below hide the layout.
class Compiler {
 public:
  Compiler(const PlanContext& ctx, const RoadSegNet& net, Layout layout,
           Mode mode, int64_t n, int64_t h, int64_t w)
      : ctx_(ctx),
        net_(net),
        mode_(mode),
        channels_(net.config().stage_channels),
        plan_(std::make_shared<CompiledPlan>()) {
    plan_->n = n;
    plan_->h = h;
    plan_->w = w;
    plan_->layout = layout;
    plan_->mode = mode;
    plan_->mode_span = mode == Mode::kRgbOnly    ? "rgb_only"
                       : mode == Mode::kStreamHit ? "depth_cache.reuse"
                                                  : nullptr;
  }

  std::shared_ptr<const CompiledPlan> compile() {
    ROADFUSION_CHECK(ctx_.scheme != FusionScheme::kAllFilterB ||
                         mode_ == Mode::kFused || mode_ == Mode::kRgbOnly,
                     "AllFilter_B has no stream plans");
    new_slot(Layout::kNchw, net_.config().rgb_channels, plan_->h, plan_->w,
             "rgb");
    new_slot(Layout::kNchw, net_.config().depth_channels, plan_->h,
             plan_->w, "depth");
    int r_in = kRgbInput;
    int d_in = kDepthInput;
    std::vector<int> skips;  // fused pyramid, stage 0 first
    for (int stage = 0; stage < ctx_.stages; ++stage) {
      const bool last = stage == ctx_.stages - 1;
      int fused = -1;
      int d_next = -1;
      if (mode_ == Mode::kRgbOnly) {
        // The depth branch never runs and the depth input is never read:
        // each fusion point contributes zero matched features.
        fused = branch(true, stage, r_in, -1);
      } else {
        // Every scheme reduces to fused_i = r_i + matched_i; the schemes
        // differ in how `matched` derives from d_i (identity, fusion
        // filter, AWN weighting) and whether the depth branch is updated
        // in reverse (AllFilter_B).
        switch (ctx_.scheme) {
          case FusionScheme::kBaseline:
          case FusionScheme::kBaseSharing:
          case FusionScheme::kAllFilterU:
          case FusionScheme::kWeightedSharing: {
            const int matched = persist(stage, [&] {
              d_next = branch(false, stage, d_in, -1);
              return ctx_.scheme == FusionScheme::kAllFilterU
                         ? match(stage, true, d_next, "matched")
                         : d_next;
            });
            if (ctx_.scheme == FusionScheme::kWeightedSharing && last) {
              // The AWN weighs the deepest depth features by a per-sample
              // weight computed from the unfused RGB features.
              fused = to_layout(branch(true, stage, r_in, -1), Layout::kNchw);
              awn_fuse(stage, fused, matched);
            } else {
              fused = branch(true, stage, r_in, matched);
            }
            break;
          }
          case FusionScheme::kAllFilterB: {
            d_next = branch(false, stage, d_in, -1);
            if (last) {
              // No reverse filter at the deepest stage.
              fused = branch(true, stage, r_in,
                             match(stage, true, d_next, "matched"));
              break;
            }
            // The reverse filter reads the pre-fusion RGB features, and
            // the depth update lands before the RGB accumulate.
            fused = branch(true, stage, r_in, -1);
            const int matched = match(stage, true, d_next, "matched");
            const int matched_rgb =
                match(stage, false, fused, "matched_rgb");
            push(StepKind::kAddInPlace, matched_rgb, d_next);
            push(StepKind::kAccumulate, matched, fused);
            break;
          }
        }
      }
      skips.push_back(fused);
      r_in = fused;
      d_in = d_next;
    }
    plan_->output = decoder(skips);
    compute_liveness();
    assign_frame();
    plan_counter("compiles_total", "Inference plans compiled").inc();
    return plan_;
  }

 private:
  int64_t channels(int stage) const {
    return channels_[static_cast<size_t>(stage)];
  }
  static std::string tag(int stage) {
    return ".stage" + std::to_string(stage);
  }

  int new_slot(Layout layout, int64_t c, int64_t h, int64_t w,
               std::string label) {
    SlotDef def;
    def.layout = layout;
    def.n = plan_->n;
    def.c = c;
    def.h = h;
    def.w = w;
    def.shape = layout == Layout::kNchwc
                    ? tensor::Shape::vec(nchwc_floats(def.n, c, h, w))
                    : tensor::Shape::nchw(def.n, c, h, w);
    def.label = std::move(label);
    plan_->slots.push_back(std::move(def));
    return static_cast<int>(plan_->slots.size()) - 1;
  }
  /// Slot holding stage `stage`'s output feature map.
  int stage_slot(Layout layout, int stage, std::string label) {
    return new_slot(layout, channels(stage),
                    Encoder::stage_extent(stage, plan_->h),
                    Encoder::stage_extent(stage, plan_->w), std::move(label));
  }

  void enter(const char* group, int stage, const char* outer = nullptr) {
    group_ = group;
    stage_ = stage;
    outer_ = outer;
  }
  /// Appends a step to the current span group and its stage.
  Step& push(StepKind kind, int src, int dst) {
    Step s;
    s.kind = kind;
    s.src = src;
    s.dst = dst;
    s.group = group_;
    s.stage = stage_;
    s.outer = outer_;
    plan_->steps.push_back(std::move(s));
    return plan_->steps.back();
  }

  /// `slot` in `layout`, converting (in the current span group) when the
  /// producer wrote the other one.
  int to_layout(int slot, Layout layout) {
    const SlotDef& def = plan_->slots[static_cast<size_t>(slot)];
    if (def.layout == layout) {
      return slot;
    }
    const int out =
        new_slot(layout, def.c, def.h, def.w,
                 def.label + (layout == Layout::kNchwc ? ".c8" : ".nchw"));
    push(layout == Layout::kNchwc ? StepKind::kConvertToNchwc
                                  : StepKind::kConvertToNchw,
         slot, out);
    return out;
  }

  /// Appends a blocked conv step running `conv` as layer `layer`.
  Step& conv_step(const PackedConv& conv, std::string layer, int src,
                  int dst) {
    Step& s = push(conv.transposed ? StepKind::kTconvNchwc
                                   : StepKind::kConvNchwc,
                   src, dst);
    s.conv = &conv;
    s.layer = std::move(layer);
    return s;
  }

  /// One encoder stage of the RGB or depth branch; `post` >= 0 fuses
  /// fused = out + fusion_weight * post into it.
  int branch(bool rgb, int stage, int input, int post) {
    enter(rgb ? kRgbGroup : kDepthGroup, stage);
    const Layout layout = plan_->layout;
    input = to_layout(input, layout);
    if (post >= 0) {
      post = to_layout(post, layout);
    }
    const std::string who =
        (post >= 0 ? "fused" : rgb ? "r" : "d") + tag(stage);
    if (layout == Layout::kNchw) {
      const int out = stage_slot(layout, stage, who);
      push(StepKind::kEncoderStage, input, out).encoder =
          rgb ? &net_.rgb_encoder() : &net_.depth_encoder();
      if (post >= 0) {
        push(StepKind::kAccumulate, post, out);
      }
      return out;
    }
    const std::string layer = rgb ? "rgb" : "depth";
    if (stage == 0) {
      // Stem: one conv with the BN+ReLU epilogue and the fusion sum as
      // `post`, reading the converted input.
      const int out = stage_slot(layout, stage, who);
      conv_step(rgb ? ctx_.rgb_stem : ctx_.depth_stem, layer + ".stem", input,
                out)
          .post = post;
      return out;
    }
    // Residual block: conv1, (projection), conv2 with the shortcut fused
    // as `pre` and the fusion sum as `post`. A shared stage's depth branch
    // runs the rgb pack under its own layer name.
    const BlockPack& bp = *(rgb ? ctx_.rgb_blocks : ctx_.depth_blocks)
                               [static_cast<size_t>(stage - 1)];
    const std::string name = layer + tag(stage);
    const int t1 = stage_slot(layout, stage, who + ".conv1");
    conv_step(bp.conv1, name + ".conv1", input, t1);
    int pre = input;  // identity shortcut (requires matching geometry)
    if (bp.proj != nullptr) {
      pre = stage_slot(layout, stage, who + ".proj");
      conv_step(*bp.proj, name + ".proj", input, pre);
    }
    const int out = stage_slot(layout, stage, who);
    Step& s2 = conv_step(bp.conv2, name + ".conv2", t1, out);
    s2.pre = pre;
    s2.post = post;
    return out;
  }

  /// Fusion filter of stage `stage` (depth->rgb, or rgb->depth for
  /// AllFilter_B's reverse path) applied to `input`.
  int match(int stage, bool depth_to_rgb, int input, const char* label) {
    enter(kFusionGroup, stage);
    const Layout layout = plan_->layout;
    input = to_layout(input, layout);
    const int out = stage_slot(layout, stage, label + tag(stage));
    const auto s = static_cast<size_t>(stage);
    if (layout == Layout::kNchw) {
      push(StepKind::kMatch, input, out).filter =
          depth_to_rgb ? &net_.depth_to_rgb_filters()[s]
                       : &net_.rgb_to_depth_filters()[s];
    } else {
      conv_step(depth_to_rgb ? ctx_.d2r[s] : ctx_.r2d[s],
                (depth_to_rgb ? "d2r" : "r2d") + tag(stage), input, out);
    }
    return out;
  }

  /// Stage `stage`'s matched depth features: computed by `compute` in the
  /// fused mode, computed and kept in the stream cache when filling it,
  /// read back from the cache on a hit.
  template <typename Compute>
  int persist(int stage, Compute&& compute) {
    int slot = -1;
    if (mode_ == Mode::kStreamHit) {
      slot = stage_slot(plan_->layout, stage, "cached" + tag(stage));
    } else {
      slot = compute();
    }
    if (mode_ == Mode::kStreamFill || mode_ == Mode::kStreamHit) {
      SlotDef& def = plan_->slots[static_cast<size_t>(slot)];
      ROADFUSION_CHECK(def.layout == plan_->layout && def.c == channels(stage),
                       "plan: cached slot " << def.label
                                            << " has the wrong geometry");
      def.persistent = stage;
      plan_->persistent_slots.push_back(slot);
    }
    return slot;
  }

  /// WeightedSharing's last fusion point on NCHW: fused += fusion_weight *
  /// AWN(fused, d) * d. A cached `d` is scaled into a scratch slot so the
  /// cache keeps the unscaled features the next frame's AWN reads.
  void awn_fuse(int stage, int fused, int d) {
    enter(kFusionGroup, stage);
    d = to_layout(d, Layout::kNchw);
    const SlotDef& def = plan_->slots[static_cast<size_t>(d)];
    const int scaled =
        def.persistent >= 0
            ? stage_slot(Layout::kNchw, stage, "matched" + tag(stage))
            : d;
    push(StepKind::kAwnFuse, d, fused).aux = scaled;
  }

  /// The decoder over the fused pyramid `skips` (stage 0 first); returns
  /// the NCHW logits slot. The NCHW layout runs the decoder's own
  /// forward_infer; the blocked one runs each step as a transposed conv
  /// with the skip add in its epilogue, then the BN+ReLU refine conv, and
  /// the head writes the logits directly.
  int decoder(const std::vector<int>& skips) {
    const int logits =
        new_slot(Layout::kNchw, 1, plan_->h, plan_->w, "logits");
    if (plan_->layout == Layout::kNchw) {
      enter(kDecoderGroup, -1);
      push(StepKind::kDecoder, -1, logits);
      plan_->skip_slots = skips;
      return logits;
    }
    int x = skips.back();
    for (int step = 0; step + 1 < ctx_.stages; ++step) {
      const int target = ctx_.stages - 2 - step;
      const std::string tag = std::to_string(target + 1);
      enter(kUpGroup, step, kDecoderGroup);
      x = to_layout(x, Layout::kNchwc);  // WeightedSharing's AWN output
      const int up = stage_slot(Layout::kNchwc, target, "up" + tag);
      conv_step(ctx_.up[static_cast<size_t>(step)], "decoder.up" + tag, x, up)
          .pre = skips[static_cast<size_t>(target)];
      x = stage_slot(Layout::kNchwc, target, "refined" + tag);
      conv_step(ctx_.refine[static_cast<size_t>(step)],
                "decoder.refine" + tag, up, x);
    }
    enter(kHeadGroup, -1, kDecoderGroup);
    conv_step(ctx_.head, "decoder.head", x, logits);
    return logits;
  }

  void compute_liveness() {
    std::vector<int> last_use(plan_->slots.size(), -1);
    for (size_t j = 0; j < plan_->steps.size(); ++j) {
      const Step& st = plan_->steps[j];
      const auto read = [&](int slot) {
        if (slot >= 0) {
          last_use[static_cast<size_t>(slot)] = static_cast<int>(j);
        }
      };
      read(st.src);
      read(st.pre);
      read(st.post);
      read(st.aux);
      if (st.kind == StepKind::kAddInPlace ||
          st.kind == StepKind::kAccumulate || st.kind == StepKind::kAwnFuse) {
        read(st.dst);  // in-place update reads its destination
      }
      if (st.kind == StepKind::kDecoder) {
        for (int skip : plan_->skip_slots) {
          read(skip);
        }
      }
    }
    plan_->release_after.assign(plan_->steps.size(), {});
    for (size_t i = 0; i < plan_->slots.size(); ++i) {
      SlotDef& def = plan_->slots[i];
      def.last_use = last_use[i];
      if (def.last_use >= 0 && def.persistent < 0 &&
          def.layout == Layout::kNchw && static_cast<int>(i) != kRgbInput &&
          static_cast<int>(i) != kDepthInput) {
        plan_->release_after[static_cast<size_t>(def.last_use)].push_back(
            static_cast<int>(i));
      }
    }
  }

  /// Lays the transient NCHWc slots out in one frame: first fit by
  /// definition order, sharing space between slots whose [definition,
  /// last use] step intervals are disjoint.
  void assign_frame() {
    struct Placed {
      int64_t offset, floats;
      int first, last;
    };
    std::vector<Placed> placed;
    for (size_t j = 0; j < plan_->steps.size(); ++j) {
      const Step& st = plan_->steps[j];
      if (st.dst < 0) {
        continue;
      }
      SlotDef& def = plan_->slots[static_cast<size_t>(st.dst)];
      if (def.layout != Layout::kNchwc || def.persistent >= 0 ||
          def.offset >= 0) {
        continue;
      }
      const int first = static_cast<int>(j);
      const int last = std::max(def.last_use, first);
      const int64_t floats = def.shape.numel();
      int64_t offset = 0;
      for (bool moved = true; moved;) {
        moved = false;
        for (const Placed& p : placed) {
          if (p.first <= last && first <= p.last &&
              p.offset < offset + floats && offset < p.offset + p.floats) {
            offset = p.offset + p.floats;
            moved = true;
          }
        }
      }
      def.offset = offset;
      placed.push_back({offset, floats, first, last});
      plan_->frame_floats = std::max(plan_->frame_floats, offset + floats);
    }
  }

  const PlanContext& ctx_;
  const RoadSegNet& net_;
  const Mode mode_;
  const std::vector<int64_t>& channels_;
  std::shared_ptr<CompiledPlan> plan_;
  const char* group_ = nullptr;
  int stage_ = -1;
  const char* outer_ = nullptr;
};

/// The compiled plan for this call, compiled on first use.
const CompiledPlan& plan_for(PlanContext& ctx, const RoadSegNet& net,
                             Layout layout, Mode mode, int64_t n, int64_t h,
                             int64_t w) {
  const std::lock_guard<std::mutex> lock(ctx.mutex);
  for (const auto& p : ctx.plans) {
    if (p->n == n && p->h == h && p->w == w && p->layout == layout &&
        p->mode == mode) {
      return *p;
    }
  }
  ctx.plans.push_back(Compiler(ctx, net, layout, mode, n, h, w).compile());
  return *ctx.plans.back();
}

// ---------------------------------------------------------------------------
// Execute
// ---------------------------------------------------------------------------

/// Runs one compiled plan. NCHWc slots are raw views into a per-thread
/// frame laid out at compile time; NCHW slots are Tensors drawn from the
/// ambient workspace arena and dropped at their last use; persistent
/// slots live in the stream cache on the heap. The frame and the slot
/// table grow once per thread, so steady-state runs allocate nothing.
class Executor {
 public:
  Executor(const CompiledPlan& plan, const RoadSegNet& net, const Tensor& rgb,
           const Tensor& depth, float fusion_weight, StreamFeatureCache* cache)
      : plan_(plan),
        net_(net),
        rgb_(rgb),
        depth_(depth),
        fusion_weight_(fusion_weight),
        cache_(cache) {
    if (table().size() < plan.slots.size()) {
      table().resize(plan.slots.size());
    }
    if (frame().size() < static_cast<size_t>(plan.frame_floats)) {
      frame().resize(static_cast<size_t>(plan.frame_floats));
    }
  }
  ~Executor() {
    // Also on exceptions: no arena block outlives the call.
    for (size_t i = 0; i < plan_.slots.size(); ++i) {
      table()[i].reset();
    }
    skips().clear();
  }
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  Tensor run() {
    const obs::ScopedSpan plan_span("plan.execute");
    if (plan_.mode_span != nullptr) {
      const obs::ScopedSpan mode_span(plan_.mode_span);
      run_spans();
    } else {
      run_spans();
    }
    return std::move(tensor(plan_.output));
  }

 private:
  static std::vector<std::optional<Tensor>>& table() {
    thread_local std::vector<std::optional<Tensor>> slots;
    return slots;
  }
  static std::vector<float>& frame() {
    thread_local std::vector<float> floats;
    return floats;
  }
  static std::vector<Tensor>& skips() {
    thread_local std::vector<Tensor> skip_maps;
    return skip_maps;
  }

  const SlotDef& def(int idx) const {
    return plan_.slots[static_cast<size_t>(idx)];
  }
  Tensor& cached(int idx) {
    Tensor& slot = cache_->slots[static_cast<size_t>(def(idx).persistent)];
    if (slot.shape() != def(idx).shape) {
      // Zeroed on (re)allocation; kernels never write an NCHWc border.
      const tensor::NoWorkspaceScope heap;
      slot = Tensor(def(idx).shape);
    }
    return slot;
  }
  /// An NCHW slot's tensor, the caller's inputs included.
  const Tensor& read(int idx) {
    if (idx == kRgbInput) {
      return rgb_;
    }
    return idx == kDepthInput ? depth_ : tensor(idx);
  }
  /// An NCHW slot's tensor (never an input).
  Tensor& tensor(int idx) {
    if (def(idx).persistent >= 0) {
      return cached(idx);
    }
    return *table()[static_cast<size_t>(idx)];
  }
  /// Any slot's storage.
  float* data(int idx) {
    const SlotDef& d = def(idx);
    if (d.layout == Layout::kNchwc && d.persistent < 0) {
      return frame().data() + d.offset;
    }
    return tensor(idx).raw();
  }
  /// Any slot's storage for reading, the caller's inputs included; null
  /// for no slot.
  const float* view(int idx) {
    if (idx < 0) {
      return nullptr;
    }
    return idx == kRgbInput || idx == kDepthInput ? read(idx).raw()
                                                  : data(idx);
  }
  /// Storage for a kernel that writes the slot's interior. A frame slot
  /// may hold an earlier slot's values: its border ring must read as 0,
  /// and so must its padded lanes unless `all_lanes` (the conv kernels
  /// write every lane of the interior; a layout conversion only the real
  /// channels).
  float* define(int idx, bool all_lanes) {
    const SlotDef& d = def(idx);
    if (d.layout == Layout::kNchwc && d.persistent < 0) {
      float* p = frame().data() + d.offset;
      if (all_lanes) {
        zero_border(p, d.n, d.c, d.h, d.w);
      } else {
        std::fill(p, p + d.shape.numel(), 0.0f);
      }
      return p;
    }
    if (d.persistent < 0) {
      table()[static_cast<size_t>(idx)].emplace(
          Tensor::uninitialized(d.shape));
    }
    return tensor(idx).raw();
  }
  /// Stores a layer's returned output.
  void put(int idx, Tensor&& value) {
    if (def(idx).persistent >= 0) {
      // The cache outlives the arena: copy into its heap storage.
      const tensor::NoWorkspaceScope heap;
      cached(idx) = value;
      return;
    }
    table()[static_cast<size_t>(idx)] = std::move(value);
  }

  /// Runs the steps under one span per run of consecutive steps with the
  /// same outer span (none for the encoder and fusion steps).
  void run_spans() {
    const size_t count = plan_.steps.size();
    for (size_t begin = 0, end = 0; begin < count; begin = end) {
      const char* outer = plan_.steps[begin].outer;
      while (end < count && plan_.steps[end].outer == outer) {
        ++end;
      }
      if (outer != nullptr) {
        const obs::ScopedSpan span(outer);
        run_groups(begin, end);
      } else {
        run_groups(begin, end);
      }
    }
  }

  /// Runs steps [begin, end), one span per run of same-group steps.
  void run_groups(size_t first, size_t last) {
    for (size_t begin = first, end = first; begin < last; begin = end) {
      const Step& head = plan_.steps[begin];
      while (end < last && plan_.steps[end].group == head.group &&
             plan_.steps[end].stage == head.stage) {
        ++end;
      }
      if (head.stage >= 0) {
        const obs::ScopedSpan span(head.group, head.stage);
        run_steps(begin, end);
      } else {
        const obs::ScopedSpan span(head.group);
        run_steps(begin, end);
      }
    }
  }

  void run_steps(size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      step(plan_.steps[j]);
      for (int idx : plan_.release_after[j]) {
        table()[static_cast<size_t>(idx)].reset();
      }
    }
  }

  void step(const Step& st) {
    switch (st.kind) {
      case StepKind::kEncoderStage: {
        const Tensor& in = read(st.src);
        if (in.shape().rank() == 3) {
          // A CHW caller input: the NCHW copy lives for this step only.
          const Tensor nchw = in.reshaped(def(st.src).shape);
          put(st.dst, st.encoder->forward_stage_infer(st.stage, nchw));
        } else {
          put(st.dst, st.encoder->forward_stage_infer(st.stage, in));
        }
        break;
      }
      case StepKind::kMatch:
        put(st.dst, st.filter->match_infer(tensor(st.src)));
        break;
      case StepKind::kConvertToNchwc: {
        const SlotDef& sd = def(st.src);
        convert_to_nchwc(view(st.src), sd.n, sd.c, sd.h, sd.w,
                         define(st.dst, false));
        break;
      }
      case StepKind::kConvertToNchw: {
        const SlotDef& sd = def(st.src);
        convert_to_nchw(data(st.src), sd.n, sd.c, sd.h, sd.w,
                        define(st.dst, false));
        break;
      }
      case StepKind::kConvNchwc: {
        // The interior convs (stages >= 1) time their kernel per stage;
        // stem and decoder steps count in their stage's or step's span.
        std::optional<obs::ScopedSpan> span;
        if (st.outer == nullptr && st.stage > 0) {
          span.emplace("plan.conv", st.stage);
        }
        const SlotDef& sd = def(st.src);
        const SlotDef& dd = def(st.dst);
        float* dst = define(st.dst, true);
        conv_nchwc(view(st.src), dd.n, sd.h, sd.w, *st.conv, dst, dd.h, dd.w,
                   view(st.pre), view(st.post), fusion_weight_,
                   dd.layout == Layout::kNchw);
        break;
      }
      case StepKind::kTconvNchwc: {
        const SlotDef& sd = def(st.src);
        float* dst = define(st.dst, true);
        tconv_nchwc(view(st.src), sd.n, sd.h, sd.w, *st.conv, dst,
                    view(st.pre));
        break;
      }
      case StepKind::kAddInPlace:
        add_in_place(data(st.dst), data(st.src), def(st.dst).shape.numel());
        break;
      case StepKind::kAccumulate:
        accumulate(data(st.dst), data(st.src), def(st.dst).shape.numel(),
                   fusion_weight_);
        break;
      case StepKind::kAwnFuse: {
        Tensor& r = tensor(st.dst);
        const Tensor& d = tensor(st.src);
        float* pm =
            st.aux == st.src ? tensor(st.src).raw() : define(st.aux, false);
        {
          const obs::ScopedSpan awn_span("awn.weight");
          const Tensor wgt = net_.awn()->weight_infer(r, d);
          // matched = w (per sample) * d; ws * x order as in
          // scale_per_sample.
          const int64_t batch = d.shape().batch();
          const int64_t per_sample = d.numel() / batch;
          const float* pd = d.raw();
          const float* pw = wgt.raw();
          for (int64_t s = 0; s < batch; ++s) {
            const float ws = pw[s];
            for (int64_t i = 0; i < per_sample; ++i) {
              pm[s * per_sample + i] = ws * pd[s * per_sample + i];
            }
          }
        }
        accumulate(r.raw(), pm, r.numel(), fusion_weight_);
        break;
      }
      case StepKind::kDecoder: {
        std::vector<Tensor>& maps = skips();
        for (int idx : plan_.skip_slots) {
          maps.push_back(std::move(tensor(idx)));
        }
        put(st.dst, net_.decoder().forward_infer(
                        maps.data(), static_cast<int>(maps.size())));
        maps.clear();
        break;
      }
    }
  }

  const CompiledPlan& plan_;
  const RoadSegNet& net_;
  const Tensor& rgb_;
  const Tensor& depth_;
  const float fusion_weight_;
  StreamFeatureCache* cache_;
};

/// True when `cache` holds the features `hit` reads: same geometry and
/// layout as the plan that filled it.
bool cache_serves(const CompiledPlan& hit, const StreamFeatureCache& cache) {
  if (!cache.valid || cache.slots.size() != hit.persistent_slots.size()) {
    return false;
  }
  for (size_t i = 0; i < cache.slots.size(); ++i) {
    if (cache.slots[i].shape() !=
        hit.slots[static_cast<size_t>(hit.persistent_slots[i])].shape) {
      return false;
    }
  }
  return true;
}

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
    add(st.kind == StepKind::kTconvNchwc ? "skip" : "residual");
  }
  if (st.conv != nullptr && st.conv->relu) {
    add("relu");
  }
  if (st.post >= 0) {
    add("fusion_sum");
  }
  return out.empty() ? "none" : out;
}

/// Solver the registry binds for an NCHW conv of this shape — the layers
/// the plan runs through their own forward_infer dispatch there.
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
  problem.dtype = quant::enabled() ? "int8" : "fp32";
  return tune::bind(problem, true)->solver->name();
}

std::string bound_solver(const nn::Conv2d& conv, int64_t in_h,
                         int64_t in_w) {
  const auto& g = conv.geometry();
  return bound_solver(conv.in_channels(), conv.out_channels(), g.kernel,
                      g.stride, g.padding, in_h, in_w);
}

/// First conv of an NCHW encoder stage.
const nn::Conv2d& stage_conv(const Encoder& encoder, int stage) {
  return stage == 0 ? encoder.stem().conv()
                    : encoder.block(stage).conv1().conv();
}

}  // namespace

std::shared_ptr<PlanContext> build(const RoadSegNet& net) {
  // Packed weights outlive any forward pass: keep them off the arena.
  const tensor::NoWorkspaceScope heap;
  auto ctx = std::make_shared<PlanContext>();
  ctx->epoch = nn::current_inference_epoch();
  ctx->stages = net.num_stages();
  ctx->scheme = net.config().scheme;
  ctx->env_off = env_plan_off();
  ctx->kc_overflow = !network_fits(net);
  if (!ctx->env_off && !ctx->kc_overflow) {
    pack_blocked(net, *ctx);
  }
  plan_counter("builds_total", "Inference plan contexts built").inc();
  return ctx;
}

bool current(const PlanContext& ctx) {
  return ctx.epoch == nn::current_inference_epoch();
}

bool reusable(const PlanContext& ctx) {
  return current(ctx) && ctx.env_off == env_plan_off();
}

LayoutChoice choose_layout(const PlanContext& ctx) {
  if (ctx.env_off) {
    return {Layout::kNchw, "nchw: ROADFUSION_PLAN=0"};
  }
  if (quant::enabled()) {
    return {Layout::kNchw, "nchw: quantized mode"};
  }
  if (quant::calibrating()) {
    return {Layout::kNchw, "nchw: calibrating activation scales"};
  }
  if (tune::problem_recording()) {
    return {Layout::kNchw, "nchw: recording conv problems for tuning"};
  }
  if (!tune::forced_solver().empty()) {
    return {Layout::kNchw, "nchw: forced solver (ROADFUSION_SOLVER)"};
  }
  if (ctx.kc_overflow) {
    return {Layout::kNchw, "nchw: a conv exceeds one GEMM Kc block"};
  }
  return {Layout::kNchwc,
          "nchwc8: blocked direct conv for every conv (stems, encoder, "
          "fusion filters, decoder)"};
}

LayoutChoice layout_for(const RoadSegNet& net) {
  return choose_layout(*build(net));
}

Tensor run(const RoadSegNet& net, PlanContext& ctx, const Tensor& rgb,
           const Tensor& depth, float fusion_weight, StreamFeatureCache* cache,
           bool depth_unchanged) {
  const int rank = rgb.shape().rank();
  ROADFUSION_CHECK((rank == 4 || rank == 3) && depth.shape().rank() == rank,
                   "RoadSegNet::infer_logits expects NCHW (or one CHW) "
                   "inputs, got rgb "
                       << rgb.shape().str() << " and depth "
                       << depth.shape().str());
  // A CHW input is one sample; the stem step reads it as (1, C, H, W).
  const int64_t n = rank == 4 ? rgb.shape().batch() : 1;
  const int64_t h = rgb.shape().dim(rank - 2);
  const int64_t w = rgb.shape().dim(rank - 1);
  ROADFUSION_CHECK((rank == 3 || depth.shape().batch() == n) &&
                       depth.shape().dim(rank - 2) == h &&
                       depth.shape().dim(rank - 1) == w,
                   "RoadSegNet::infer_logits: rgb " << rgb.shape().str()
                                                    << " vs depth "
                                                    << depth.shape().str());
  ROADFUSION_CHECK(fusion_weight >= 0.0f && fusion_weight <= 1.0f,
                   "fusion_weight must be in [0, 1], got " << fusion_weight);
  const int64_t stride = int64_t{1} << (ctx.stages - 1);
  ROADFUSION_CHECK(h % stride == 0 && w % stride == 0,
                   "input " << rgb.shape().str()
                            << " not divisible by the network stride "
                            << stride);

  const Layout layout = choose_layout(ctx).layout;
  Mode mode = fusion_weight == 0.0f ? Mode::kRgbOnly : Mode::kFused;
  if (cache != nullptr) {
    if (mode == Mode::kRgbOnly || ctx.scheme == FusionScheme::kAllFilterB) {
      // RGB-only has no depth work to skip; AllFilter_B's depth branch
      // reads per-frame RGB features, so its features never carry over.
      cache->invalidate();
      cache = nullptr;
    } else {
      if (depth_unchanged) {
        const CompiledPlan& hit =
            plan_for(ctx, net, layout, Mode::kStreamHit, n, h, w);
        if (cache_serves(hit, *cache)) {
          ++cache->hits;
          return Executor(hit, net, rgb, depth, fusion_weight, cache).run();
        }
      }
      ++cache->misses;
      cache->valid = false;
      mode = Mode::kStreamFill;
      if (cache->slots.size() != static_cast<size_t>(ctx.stages)) {
        const tensor::NoWorkspaceScope heap;
        cache->slots.resize(static_cast<size_t>(ctx.stages));
      }
    }
  }
  const CompiledPlan& plan = plan_for(ctx, net, layout, mode, n, h, w);
  Tensor out = Executor(plan, net, rgb, depth, fusion_weight, cache).run();
  if (cache != nullptr) {
    cache->valid = true;
  }
  return out;
}

std::string explain(const RoadSegNet& net, int64_t n, int64_t h,
                    int64_t w) {
  if (!net.supports_raw_inference()) {
    return "inference plan unavailable: model is in training mode (call "
           "set_training(false) first)\n";
  }
  const std::shared_ptr<PlanContext> ctx = build(net);
  const LayoutChoice choice = choose_layout(*ctx);
  const auto compiled = [&](Mode mode) {
    return Compiler(*ctx, net, choice.layout, mode, n, h, w).compile();
  };
  const auto plan = compiled(Mode::kFused);
  std::ostringstream os;
  os << "inference plan: scheme=" << core::to_string(ctx->scheme)
     << " input=" << n << "x" << net.config().rgb_channels << "x" << h << "x"
     << w << " steps=" << plan->steps.size()
     << " slots=" << plan->slots.size() << "\n";
  os << "  layout " << choice.reason << "\n";
  os << "  modes: fused=" << plan->steps.size()
     << " rgb_only=" << compiled(Mode::kRgbOnly)->steps.size();
  if (ctx->scheme != FusionScheme::kAllFilterB) {
    os << " stream_fill=" << compiled(Mode::kStreamFill)->steps.size()
       << " stream_hit=" << compiled(Mode::kStreamHit)->steps.size();
  }
  os << " steps\n";
  for (size_t j = 0; j < plan->steps.size(); ++j) {
    const Step& st = plan->steps[j];
    const SlotDef& in = plan->slots[static_cast<size_t>(std::max(st.src, 0))];
    os << "  [" << j << "] ";
    switch (st.kind) {
      case StepKind::kEncoderStage:
        os << "stage       layout=nchw solver="
           << bound_solver(stage_conv(*st.encoder, st.stage), in.h, in.w)
           << " layer=" << (st.encoder == &net.rgb_encoder() ? "rgb" : "depth")
           << ".stage" << st.stage << " " << slot_str(*plan, st.src) << " -> "
           << slot_str(*plan, st.dst);
        break;
      case StepKind::kMatch:
        os << "match       layout=nchw solver="
           << bound_solver(st.filter->conv(), in.h, in.w)
           << " layer=" << plan->slots[static_cast<size_t>(st.dst)].label
           << " " << slot_str(*plan, st.src) << " -> "
           << slot_str(*plan, st.dst);
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
      case StepKind::kTconvNchwc:
        os << (st.conv->transposed ? "tconv" : "conv") << st.conv->kernel
           << "x" << st.conv->kernel << "/s" << st.conv->stride
           << (st.conv->transposed ? " " : "   ")
           << "layout=nchwc8 solver=nchwc_direct"
           << (common::active_tier() >= common::CpuTier::kAvx2 ? "_avx2"
                                                               : "")
           << " layer=" << st.layer << " epilogue=" << epilogue_str(st)
           << " " << slot_str(*plan, st.src) << " -> "
           << slot_str(*plan, st.dst);
        if (st.pre >= 0) {
          os << (st.conv->transposed ? " skip=" : " pre=")
             << slot_str(*plan, st.pre);
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
           << " += w * AWN-scaled " << slot_str(*plan, st.src);
        break;
      case StepKind::kDecoder: {
        const int64_t c0 = net.config().stage_channels[0];
        os << "decoder     layout=nchw solver="
           << bound_solver(c0, c0, 3, 1, 1, h, w) << " skips={";
        for (size_t i = 0; i < plan->skip_slots.size(); ++i) {
          os << (i == 0 ? "" : ", ") << "%" << plan->skip_slots[i];
        }
        os << "} -> " << slot_str(*plan, st.dst);
        break;
      }
    }
    // Transient slots whose storage is reusable after this step: NCHW
    // tensors go back to the arena, NCHWc frame space to later slots.
    const char* sep = "  free={";
    for (size_t i = kDepthInput + 1; i < plan->slots.size(); ++i) {
      const SlotDef& def = plan->slots[i];
      if (def.last_use == static_cast<int>(j) && def.persistent < 0) {
        os << sep << "%" << i;
        sep = ", ";
      }
    }
    os << (sep[0] == ',' ? "}\n" : "\n");
  }
  return os.str();
}

}  // namespace roadfusion::plan
