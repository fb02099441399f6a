// Inference plan compiler suite (DESIGN.md §16): the compiled plan is the
// one inference path of an eval-mode RoadSegNet, so every serving mode —
// fused predict, RGB-only, stream fill and stream hit — must reproduce
// the autograd graph (forward_fused + graph sigmoid) bit-for-bit for
// every fusion scheme, in both layouts, on generated network configs and
// at every CPU dispatch tier; run allocation-free once compiled; choose
// and explain its layout; and share one workspace arena per thread.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hooks.hpp"
#include "autograd/ops.hpp"
#include "autograd/variable.hpp"
#include "common/cpu.hpp"
#include "plan/plan.hpp"
#include "quant/runtime.hpp"
#include "roadseg/roadseg_net.hpp"
#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"
#include "tune/dispatch.hpp"

namespace roadfusion::plan {
namespace {

using core::FusionScheme;
using roadseg::RoadSegConfig;
using roadseg::RoadSegNet;
using roadseg::StreamFeatureCache;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

constexpr FusionScheme kSchemes[] = {
    FusionScheme::kBaseline, FusionScheme::kAllFilterU,
    FusionScheme::kAllFilterB, FusionScheme::kBaseSharing,
    FusionScheme::kWeightedSharing};

RoadSegConfig config_for(FusionScheme scheme) {
  RoadSegConfig config;
  config.scheme = scheme;
  config.stage_channels = {6, 8, 10, 12, 16};
  return config;
}

/// Sets an environment variable for the scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    old_ = had_old_ ? old : "";
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

/// Forces a conv solver for the scope.
class SolverGuard {
 public:
  explicit SolverGuard(const std::string& solver) {
    tune::force_solver(solver);
  }
  ~SolverGuard() { tune::force_solver(""); }
};

/// The semantic reference: the autograd graph plus the graph sigmoid.
Tensor graph_probs(const RoadSegNet& net, const Tensor& rgb,
                   const Tensor& depth, float fusion_weight) {
  const autograd::InferenceModeGuard no_grad;
  const roadseg::ForwardResult result =
      net.forward_fused(autograd::Variable::constant(rgb),
                        autograd::Variable::constant(depth), fusion_weight);
  return autograd::sigmoid(result.logits).value();
}

void expect_bitwise_equal(const Tensor& served, const Tensor& graph,
                          const std::string& what) {
  ASSERT_EQ(served.shape(), graph.shape()) << what;
  EXPECT_EQ(std::memcmp(served.raw(), graph.raw(),
                        static_cast<size_t>(served.numel()) * sizeof(float)),
            0)
      << what << ": served output differs from the graph path";
}

/// Every serving mode of `net` against the graph at fusion weight `fw`:
/// predict, a stream fill on frame A, then a stream hit on frame B (same
/// depth). Returns the number of stream hits the cache recorded.
int64_t check_every_mode(const RoadSegNet& net, int64_t batch, int64_t h,
                         int64_t w, float fw, Rng& rng,
                         const std::string& what) {
  const int64_t cd = net.config().depth_channels;
  const Tensor rgb_a = Tensor::normal(Shape::nchw(batch, 3, h, w), rng);
  const Tensor rgb_b = Tensor::normal(Shape::nchw(batch, 3, h, w), rng);
  const Tensor depth = Tensor::normal(Shape::nchw(batch, cd, h, w), rng);
  const Tensor expected_a = graph_probs(net, rgb_a, depth, fw);
  const Tensor expected_b = graph_probs(net, rgb_b, depth, fw);
  expect_bitwise_equal(net.predict_fused(rgb_a, depth, fw), expected_a,
                       what + " predict");
  StreamFeatureCache cache;
  expect_bitwise_equal(net.predict_stream(rgb_a, depth, fw, cache, false),
                       expected_a, what + " stream fill");
  expect_bitwise_equal(net.predict_stream(rgb_b, depth, fw, cache, true),
                       expected_b, what + " stream hit");
  return cache.hits;
}

TEST(PlanParity, EveryServingModeMatchesGraphForEverySchemeAndWeight) {
  for (const FusionScheme scheme : kSchemes) {
    for (const float fw : {0.0f, 0.5f, 1.0f}) {
      for (const int64_t batch : {1, 4}) {
        Rng rng(11);
        RoadSegNet net(config_for(scheme), rng);
        net.set_training(false);
        net.prepare_inference();
        ASSERT_EQ(layout_for(net).layout, Layout::kNchwc);
        const std::string what = std::string(core::to_string(scheme)) +
                                 " fw=" + std::to_string(fw) +
                                 " batch=" + std::to_string(batch);
        const int64_t hits = check_every_mode(net, batch, 32, 48, fw, rng,
                                              what);
        // AllFilter_B and the RGB-only mode never reuse depth features.
        const bool reusable =
            scheme != FusionScheme::kAllFilterB && fw != 0.0f;
        EXPECT_EQ(hits, reusable ? 1 : 0) << what;
      }
    }
  }
}

TEST(PlanParity, GeometryChangeRecompilesAndStaysExact) {
  Rng rng(13);
  RoadSegNet net(config_for(FusionScheme::kWeightedSharing), rng);
  net.set_training(false);
  net.prepare_inference();
  for (const auto& [h, w] : {std::pair<int64_t, int64_t>{32, 48},
                            std::pair<int64_t, int64_t>{16, 16},
                            std::pair<int64_t, int64_t>{32, 48}}) {
    const Tensor rgb = Tensor::normal(Shape::nchw(1, 3, h, w), rng);
    const Tensor depth = Tensor::normal(Shape::nchw(1, 1, h, w), rng);
    expect_bitwise_equal(net.predict(rgb, depth),
                         graph_probs(net, rgb, depth, 1.0f),
                         "WeightedSharing geometry change");
  }
}

TEST(PlanParity, StreamCacheSurvivesALayoutSwitch) {
  // A cache filled in the blocked layout holds NCHWc features; once the
  // plan switches to NCHW (here: a forced solver) the next frame must
  // refill rather than read them, and stay exact.
  Rng rng(18);
  RoadSegNet net(config_for(FusionScheme::kAllFilterU), rng);
  net.set_training(false);
  const Tensor rgb = Tensor::normal(Shape::nchw(1, 3, 32, 48), rng);
  const Tensor depth = Tensor::normal(Shape::nchw(1, 1, 32, 48), rng);
  const Tensor expected = graph_probs(net, rgb, depth, 1.0f);
  StreamFeatureCache cache;
  (void)net.predict_stream(rgb, depth, 1.0f, cache, false);
  {
    const SolverGuard guard("reference");
    expect_bitwise_equal(net.predict_stream(rgb, depth, 1.0f, cache, true),
                         expected, "hit after a layout switch");
  }
  EXPECT_EQ(cache.hits, 0);
  EXPECT_EQ(cache.misses, 2);
  expect_bitwise_equal(net.predict_stream(rgb, depth, 1.0f, cache, true),
                       expected, "hit back in the blocked layout");
  EXPECT_EQ(cache.misses, 3);
}

TEST(PlanLayout, ForcedSolverRunsNchwLayoutWithUnchangedBits) {
  Rng rng(14);
  RoadSegNet net(config_for(FusionScheme::kBaseline), rng);
  net.set_training(false);
  net.prepare_inference();
  const Tensor rgb = Tensor::normal(Shape::nchw(1, 3, 16, 32), rng);
  const Tensor depth = Tensor::normal(Shape::nchw(1, 1, 16, 32), rng);
  const Tensor blocked = net.predict(rgb, depth);
  {
    // A forced solver must run: the registry serves every conv.
    const SolverGuard guard("blocked");
    const LayoutChoice choice = layout_for(net);
    EXPECT_EQ(choice.layout, Layout::kNchw);
    EXPECT_NE(std::string(choice.reason).find("forced solver"),
              std::string::npos)
        << choice.reason;
    expect_bitwise_equal(net.predict(rgb, depth), blocked,
                         "forced-solver NCHW layout");
  }
  EXPECT_EQ(layout_for(net).layout, Layout::kNchwc);
  expect_bitwise_equal(blocked, graph_probs(net, rgb, depth, 1.0f),
                       "blocked layout");
}

TEST(PlanLayout, EnvKillSwitchSelectsNchwLayoutWithUnchangedBits) {
  Rng rng(15);
  RoadSegNet net(config_for(FusionScheme::kBaseline), rng);
  net.set_training(false);
  net.prepare_inference();
  const Tensor rgb = Tensor::normal(Shape::nchw(1, 3, 32, 48), rng);
  const Tensor depth = Tensor::normal(Shape::nchw(1, 1, 32, 48), rng);
  const Tensor blocked = net.predict(rgb, depth);
  {
    // ROADFUSION_PLAN is read when the plan is built.
    const ScopedEnv off("ROADFUSION_PLAN", "0");
    net.prepare_inference();
    EXPECT_EQ(layout_for(net).layout, Layout::kNchw);
    const std::string report = explain(net, 1, 32, 48);
    EXPECT_NE(report.find("nchw: ROADFUSION_PLAN=0"), std::string::npos)
        << report;
    EXPECT_EQ(report.find("nchwc_direct"), std::string::npos) << report;
    expect_bitwise_equal(net.predict(rgb, depth), blocked,
                         "kill-switch NCHW layout");
  }
  net.prepare_inference();
  EXPECT_EQ(layout_for(net).layout, Layout::kNchwc);
}

TEST(PlanLayout, QuantizedModeAndCalibrationRunNchw) {
  Rng rng(19);
  RoadSegNet net(config_for(FusionScheme::kWeightedSharing), rng);
  net.set_training(false);
  net.prepare_inference();
  quant::set_enabled(true);
  const std::string report = explain(net, 1, 32, 48);
  quant::set_enabled(false);
  EXPECT_NE(report.find("nchw: quantized mode"), std::string::npos)
      << report;
  EXPECT_NE(report.find("solver=int8_"), std::string::npos) << report;
  quant::set_calibrating(true);
  EXPECT_EQ(layout_for(net).layout, Layout::kNchw);
  quant::set_calibrating(false);
  quant::clear_calibration();
}

TEST(PlanExplain, PrintsScheduleWithLayoutsSolversAndSlots) {
  Rng rng(16);
  RoadSegNet net(config_for(FusionScheme::kAllFilterU), rng);
  net.set_training(false);
  net.prepare_inference();
  const std::string report = explain(net, 1, 32, 48);
  for (const char* needle :
       {"scheme=AllFilter_U", "layout nchwc8:", "modes: fused=",
        "stream_hit=", "layout=nchwc8", "solver=nchwc_direct",
        "epilogue=bn+relu", "epilogue=bn+residual+relu+fusion_sum",
        "to_nchwc", "to_nchw", "decoder", "free={", "d2r.stage1",
        "layer=rgb.stem", "layer=d2r.stage0", "tconv2x2/s2",
        "epilogue=skip", "layer=decoder.refine1",
        "layer=decoder.head epilogue=bias", "logits(1x1x32x48 nchw)"}) {
    EXPECT_NE(report.find(needle), std::string::npos)
        << "missing '" << needle << "' in:\n"
        << report;
  }
  // The whole network runs blocked: no step is left on the NCHW layers.
  EXPECT_EQ(report.find("layout=nchw "), std::string::npos) << report;
  // A shared stage's depth branch runs the rgb pack under its own name.
  RoadSegNet shared(config_for(FusionScheme::kBaseSharing), rng);
  shared.set_training(false);
  shared.prepare_inference();
  const std::string shared_report = explain(shared, 1, 32, 48);
  EXPECT_NE(shared_report.find("layer=depth.stage4.conv1"), std::string::npos)
      << shared_report;
}

TEST(PlanZeroAlloc, EveryServingModeIsAllocationFreeFromTheSecondCall) {
  Rng rng(17);
  RoadSegNet net(config_for(FusionScheme::kWeightedSharing), rng);
  net.set_training(false);
  net.prepare_inference();
  const Tensor rgb = Tensor::uniform(Shape::chw(3, 32, 48), rng);
  const Tensor depth = Tensor::uniform(Shape::chw(1, 32, 48), rng);
  StreamFeatureCache cache;
  const auto stream_fill = [&] {
    return net.predict_stream(rgb, depth, 1.0f, cache, false);
  };
  const auto stream_hit = [&] {
    return net.predict_stream(rgb, depth, 1.0f, cache, true);
  };
  const auto predict = [&] { return net.predict(rgb, depth); };
  const auto rgb_only = [&] { return net.predict_fused(rgb, depth, 0.0f); };
  // First calls compile each plan and grow the thread's arena, frame and
  // cache buffers.
  (void)predict();
  (void)rgb_only();
  (void)stream_fill();
  (void)stream_hit();
  const std::pair<const char*, std::function<Tensor()>> modes[] = {
      {"predict", predict},
      {"rgb_only", rgb_only},
      {"stream_fill", stream_fill},
      {"stream_hit", stream_hit}};
  for (const auto& [name, call] : modes) {
    (void)call();
    const testhooks::AllocProbe probe;
    const Tensor out = call();
    EXPECT_EQ(probe.allocations(), 0u)
        << name << " allocated " << probe.bytes() << " bytes";
  }
  EXPECT_GT(cache.hits, 0);
}

TEST(PlanArena, OneArenaPerThreadServesEveryMode) {
  // predict, RGB-only and stream predicts on one thread share one arena:
  // the summed arena peak after all three stays at one forward's peak
  // instead of stacking a second arena's.
  Rng rng(20);
  RoadSegNet net(RoadSegConfig{}, rng);
  net.set_training(false);
  net.prepare_inference();
  const Tensor rgb = Tensor::uniform(Shape::chw(3, 32, 96), rng);
  const Tensor depth = Tensor::uniform(Shape::chw(1, 32, 96), rng);
  size_t after_predict = 0;
  size_t after_all = 0;
  const size_t before = tensor::Workspace::global_stats().peak_bytes;
  std::thread worker([&] {
    (void)net.predict(rgb, depth);
    after_predict = tensor::Workspace::global_stats().peak_bytes;
    (void)net.predict_fused(rgb, depth, 0.0f);
    StreamFeatureCache cache;
    (void)net.predict_stream(rgb, depth, 1.0f, cache, false);
    (void)net.predict_stream(rgb, depth, 1.0f, cache, true);
    after_all = tensor::Workspace::global_stats().peak_bytes;
  });
  worker.join();
  const size_t one = after_predict - before;
  ASSERT_GT(one, 0u);
  EXPECT_LT(after_all - before, one + one / 2)
      << "a second per-thread arena: one predict peaked at " << one
      << " bytes, all modes at " << (after_all - before);
}

// ---------------------------------------------------------------------------
// Generated configs: random stage counts 2-5, widths off the 8-lane grid
// (stage 0 included, so the stems, the last refine and the head run with
// padded lanes), one config whose width overflows a Kc block (it must
// compile in the NCHW layout), odd geometry, at every CPU dispatch tier.
// ---------------------------------------------------------------------------

TEST(PlanGenerated, RandomConfigsMatchGraphAtEveryTier) {
  const common::CpuTier saved = common::active_tier();
  Rng gen(2024);
  const auto pick = [&](int64_t lo, int64_t hi) {
    return gen.uniform_int(lo, hi);
  };
  for (int trial = 0; trial < 6; ++trial) {
    RoadSegConfig config;
    config.scheme = kSchemes[trial % 5];
    const int stages = static_cast<int>(pick(2, 5));
    config.stage_channels.clear();
    for (int s = 0; s < stages; ++s) {
      int64_t c = pick(3, 21);
      if (c % 8 == 0) {
        ++c;  // keep every width off the lane grid
      }
      config.stage_channels.push_back(c);
    }
    ASSERT_NE(config.stage_channels.front() % 8, 0);
    // Trial 5 widens its deepest stage past one Kc block: 45 * 9 > 384.
    const bool overflow = trial == 5;
    if (overflow) {
      config.stage_channels.back() = 45;
    }
    // Odd geometry: the spatial extents halve down to odd sizes.
    const int64_t stride = int64_t{1} << (stages - 1);
    const int64_t h = stride * (2 * pick(1, 2) + 1);
    const int64_t w = stride * (2 * pick(1, 3) + 1);
    Rng net_rng(static_cast<uint64_t>(100 + trial));
    RoadSegNet net(config, net_rng);
    net.set_training(false);
    net.prepare_inference();
    EXPECT_EQ(layout_for(net).layout,
              overflow ? Layout::kNchw : Layout::kNchwc);
    for (const common::CpuTier tier :
         {common::CpuTier::kScalar, common::CpuTier::kSse2,
          common::CpuTier::kAvx2}) {
      common::set_active_tier(tier);
      std::string what = "trial " + std::to_string(trial) + " " +
                         core::to_string(config.scheme) + " stages=" +
                         std::to_string(stages) + " " + std::to_string(h) +
                         "x" + std::to_string(w) + " tier=" +
                         common::tier_name(common::active_tier());
      for (const int64_t c : config.stage_channels) {
        what += " c" + std::to_string(c);
      }
      for (const float fw : {0.0f, 0.5f, 1.0f}) {
        Rng rng(static_cast<uint64_t>(7 + trial));
        (void)check_every_mode(net, trial % 2 == 0 ? 1 : 2, h, w, fw, rng,
                               what + " fw=" + std::to_string(fw));
      }
    }
  }
  common::set_active_tier(saved);
}

}  // namespace
}  // namespace roadfusion::plan
