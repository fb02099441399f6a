// Golden end-to-end regression: RoadSegNet::predict on a fixed-seed
// network and scene must produce the same thresholded road mask under the
// shipped default solver bindings and under every forced solver, and that
// mask must match a checked-in checksum. The probability maps themselves
// may differ in the last float bits between solvers (the AVX2 kernel
// contracts multiply-adds), but the >= 0.5 decision mask is far from any
// threshold crossing at these seeds, so it is bit-stable — any change to
// conv semantics, the encoder topology, or the RNG stream trips this test.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "autograd/gemm.hpp"
#include "common/cpu.hpp"
#include "core/fusion_scheme.hpp"
#include "quant/runtime.hpp"
#include "roadseg/roadseg_net.hpp"
#include "tensor/tensor.hpp"
#include "tune/dispatch.hpp"
#include "tune/solver.hpp"

namespace roadfusion::roadseg {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

// FNV-1a over the mask bytes: stable, dependency-free, order-sensitive.
uint64_t fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (const uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

// To regenerate after an intentional architecture / RNG-stream change:
// run this test and copy the hash printed in the failure message.
constexpr uint64_t kGoldenMaskHash = 0x680d27ae7ceb1800ull;

/// Thresholded predict mask with `solver` forced ("" = the shipped default
/// bindings: no perf DB, no forced solver).
std::vector<uint8_t> predict_mask_scheme(const std::string& solver,
                                         core::FusionScheme scheme,
                                         bool int8_mode) {
  tune::force_solver(solver);
  if (int8_mode) {
    // Empty scale table: every conv quantizes activations dynamically
    // from its own absmax — fully deterministic, no calibration input.
    quant::clear_scale_table();
    quant::set_enabled(true);
  }
  Rng rng(2022);
  RoadSegConfig config;
  config.scheme = scheme;
  config.stage_channels = {6, 8, 10, 12, 16};
  RoadSegNet net(config, rng);
  net.set_training(false);
  Rng scene_rng(7);
  const Tensor rgb = Tensor::uniform(Shape::chw(3, 32, 48), scene_rng);
  const Tensor depth = Tensor::uniform(Shape::chw(1, 32, 48), scene_rng);
  const Tensor probability = net.predict(rgb, depth);
  std::vector<uint8_t> mask;
  mask.reserve(static_cast<size_t>(probability.numel()));
  for (int64_t i = 0; i < probability.numel(); ++i) {
    mask.push_back(probability.at(i) >= 0.5f ? 1 : 0);
  }
  if (int8_mode) {
    quant::set_enabled(false);
  }
  tune::force_solver("");
  return mask;
}

std::vector<uint8_t> predict_mask(const std::string& solver) {
  RoadSegConfig defaults;
  return predict_mask_scheme(solver, defaults.scheme, /*int8_mode=*/false);
}

TEST(GoldenInference, MaskBitStableAgainstReferenceOracles) {
  const std::vector<uint8_t> shipped = predict_mask("");
  for (const char* oracle : {"reference", "tconv_reference"}) {
    SCOPED_TRACE(oracle);
    const std::vector<uint8_t> forced = predict_mask(oracle);
    ASSERT_EQ(shipped.size(), forced.size());
    EXPECT_EQ(shipped, forced)
        << "the forced reference oracle must reproduce the shipped mask";
  }
}

TEST(GoldenInference, MaskMatchesCheckedInChecksum) {
  const std::vector<uint8_t> shipped = predict_mask("");
  const uint64_t hash = fnv1a(shipped);
  EXPECT_EQ(hash, kGoldenMaskHash)
      << "mask hash changed: 0x" << std::hex << hash
      << " — if the architecture or RNG stream changed intentionally, "
         "update kGoldenMaskHash";
  EXPECT_EQ(fnv1a(predict_mask("reference")), kGoldenMaskHash);
}

TEST(GoldenInference, MaskBitStableUnderEveryRegisteredSolver) {
  // Forcing each fp32 solver globally (the ROADFUSION_SOLVER code path)
  // must leave the golden mask untouched — the guarantee that lets a perf
  // DB re-bind kernels per shape without changing served results. Solvers
  // that are inapplicable to some layer shape fall back per problem, which
  // is exactly what production dispatch does.
  for (const std::string& name : tune::solver_names()) {
    SCOPED_TRACE(name);
    const std::vector<uint8_t> mask = predict_mask(name);
    EXPECT_EQ(fnv1a(mask), kGoldenMaskHash)
        << "solver '" << name << "' changes the golden mask";
  }
}

// Second golden family (DESIGN.md §13): the int8 inference path with
// dynamic activation scales is fully deterministic — quantization uses
// round-to-nearest-even off each call's exact absmax — so its thresholded
// mask is pinned per fusion scheme, exactly like the fp32 hash above. A
// quantization-semantics change (scale math, rounding, epilogue order)
// trips this without touching the fp32 golden.
struct SchemeGolden {
  core::FusionScheme scheme;
  const char* name;
  uint64_t hash;
};

constexpr SchemeGolden kInt8GoldenMasks[] = {
    {core::FusionScheme::kBaseline, "baseline", 0xde1a68dd1bd7e0b8ull},
    {core::FusionScheme::kAllFilterU, "all_filter_u", 0x1fa357729af8e242ull},
    {core::FusionScheme::kAllFilterB, "all_filter_b", 0x32bdfeae410b80a5ull},
    {core::FusionScheme::kBaseSharing, "base_sharing", 0xefb78354e7fbe352ull},
    {core::FusionScheme::kWeightedSharing, "weighted_sharing",
     0xe8bd49d61328a6d9ull},
};

TEST(GoldenInference, MaskBitStableUnderCompiledPlan) {
  // The inference plan compiler (DESIGN.md §16) must serve the exact
  // golden mask: its blocked-layout schedule is bit-identical to the
  // graph path, so the pinned hash holds with the plan active too.
  Rng rng(2022);
  RoadSegConfig config;
  config.stage_channels = {6, 8, 10, 12, 16};
  RoadSegNet net(config, rng);
  net.set_training(false);
  net.prepare_inference();
  Rng scene_rng(7);
  const Tensor rgb = Tensor::uniform(Shape::chw(3, 32, 48), scene_rng);
  const Tensor depth = Tensor::uniform(Shape::chw(1, 32, 48), scene_rng);
  const Tensor probability = net.predict(rgb, depth);
  std::vector<uint8_t> mask;
  for (int64_t i = 0; i < probability.numel(); ++i) {
    mask.push_back(probability.at(i) >= 0.5f ? 1 : 0);
  }
  EXPECT_EQ(fnv1a(mask), kGoldenMaskHash)
      << "the compiled plan changes the golden mask";
}

TEST(GoldenInference, Int8MaskBitStableUnderForcedInt8Solvers) {
  // Every int8 GEMM accumulates in exact int32 with shared rounding, so
  // forcing any one must reproduce the per-scheme int8 golden hashes.
  // int8_avx2 only exists as an applicable choice on AVX2 hosts.
  std::vector<std::string> solvers = {"int8_reference", "int8_blocked"};
  if (common::active_tier() >= common::CpuTier::kAvx2) {
    solvers.push_back("int8_avx2");
  }
  for (const std::string& name : solvers) {
    for (const SchemeGolden& golden : kInt8GoldenMasks) {
      SCOPED_TRACE(name + "/" + golden.name);
      const std::vector<uint8_t> mask =
          predict_mask_scheme(name, golden.scheme, /*int8_mode=*/true);
      EXPECT_EQ(fnv1a(mask), golden.hash)
          << "solver '" << name << "' changes the int8 golden mask";
    }
  }
}

TEST(GoldenInference, Int8MaskMatchesCheckedInChecksumPerScheme) {
  for (const SchemeGolden& golden : kInt8GoldenMasks) {
    SCOPED_TRACE(golden.name);
    const uint64_t hash = fnv1a(
        predict_mask_scheme("", golden.scheme, /*int8_mode=*/true));
    EXPECT_EQ(hash, golden.hash)
        << "int8 mask hash for scheme '" << golden.name << "' changed: 0x"
        << std::hex << hash
        << " — if quantization semantics changed intentionally, update "
           "kInt8GoldenMasks";
  }
}

TEST(GoldenInference, Int8MaskDiffersFromFp32Golden) {
  // The int8 path must actually quantize: if its mask hash ever collapses
  // onto the fp32 golden for the default scheme AND every conv reports
  // fp32 semantics, the quantized solvers silently stopped binding.
  RoadSegConfig defaults;
  const std::vector<uint8_t> int8_mask =
      predict_mask_scheme("", defaults.scheme, /*int8_mode=*/true);
  // Same shape as the fp32 mask, still a nontrivial road segmentation.
  size_t road = 0;
  for (const uint8_t bit : int8_mask) {
    road += bit;
  }
  EXPECT_GT(road, 0u);
  EXPECT_LT(road, int8_mask.size());
}

TEST(GoldenInference, MaskIsNontrivial) {
  // Guards the golden hash against degenerate all-road / no-road masks,
  // which would make the solver comparisons vacuous.
  const std::vector<uint8_t> mask = predict_mask("");
  size_t road = 0;
  for (const uint8_t bit : mask) {
    road += bit;
  }
  EXPECT_GT(road, 0u);
  EXPECT_LT(road, mask.size());
}

// The shipped default (no perf DB, no forced solver) binds the blocked
// family wherever one applies: the fused pre-packed solvers where the
// caller holds packed weights, the blocked loops otherwise, and the
// reference oracle only for graph-path problems narrower than one register
// tile. Those bindings, the fp32 golden mask and the plan-vs-graph bitwise
// contract (DESIGN.md §16) must hold at every CPU dispatch tier.
std::string expected_default_solver(const tune::ConvProblem& p, bool packed) {
  const std::string prefix = p.transposed ? "tconv_" : "";
  if (packed &&
      autograd::kernels::prepack_viable(p.gemm_m(), p.gemm_k())) {
    return p.transposed ? "tconv_prepacked" : "blocked_prepacked";
  }
  if (p.gemm_m() >= autograd::kernels::kMicroTileRows) {
    return prefix + "blocked";
  }
  return prefix + "reference";
}

/// Logits of one predict in the plan's NCHW layout, where every conv runs
/// through the solver registry (ROADFUSION_PLAN=0 is read when the plan
/// is built); leaves the net back on its blocked layout.
Tensor nchw_layout_logits(RoadSegNet& net, const Tensor& rgb,
                          const Tensor& depth) {
  ::setenv("ROADFUSION_PLAN", "0", 1);
  net.prepare_inference();
  const Tensor logits = net.infer_logits(rgb, depth, 1.0f);
  ::unsetenv("ROADFUSION_PLAN");
  net.prepare_inference();
  return logits;
}

TEST(GoldenInference, ShippedDefaultBindsBlockedFamilyAtEveryTier) {
  tune::force_solver("");
  tune::clear_perf_db();
  const common::CpuTier saved = common::active_tier();
  std::vector<std::string> first_bindings;
  for (const common::CpuTier tier :
       {common::CpuTier::kScalar, common::CpuTier::kSse2,
        common::CpuTier::kAvx2}) {
    SCOPED_TRACE(common::tier_name(tier));
    common::set_active_tier(tier);

    // Bindings of every conv problem of the shipped config, recorded from
    // one NCHW-layout predict at the bench resolution.
    Rng rng(2022);
    RoadSegNet shipped(RoadSegConfig{}, rng);
    shipped.set_training(false);
    Rng scene_rng(7);
    const Tensor rgb = Tensor::uniform(Shape::nchw(1, 3, 32, 96), scene_rng);
    const Tensor depth =
        Tensor::uniform(Shape::nchw(1, 1, 32, 96), scene_rng);
    tune::clear_recorded_problems();
    tune::set_problem_recording(true);
    (void)nchw_layout_logits(shipped, rgb, depth);
    tune::set_problem_recording(false);
    const std::vector<tune::ConvProblem> problems =
        tune::recorded_problems();
    tune::clear_recorded_problems();
    ASSERT_FALSE(problems.empty());
    std::vector<std::string> bindings;
    for (const tune::ConvProblem& p : problems) {
      for (const bool packed : {true, false}) {
        const std::string solver = tune::bind(p, packed)->solver->name();
        EXPECT_EQ(solver, expected_default_solver(p, packed))
            << p.key() << (packed ? " (packed)" : " (graph path)");
        bindings.push_back(p.key() + (packed ? "+packed=" : "=") + solver);
      }
    }
    if (first_bindings.empty()) {
      first_bindings = bindings;
    } else {
      EXPECT_EQ(bindings, first_bindings)
          << "default bindings must not depend on the CPU tier";
    }

    EXPECT_EQ(fnv1a(predict_mask("")), kGoldenMaskHash);

    Rng golden_rng(2022);
    RoadSegConfig golden_config;
    golden_config.stage_channels = {6, 8, 10, 12, 16};
    RoadSegNet net(golden_config, golden_rng);
    net.set_training(false);
    net.prepare_inference();
    const Tensor planned = net.infer_logits(rgb, depth, 1.0f);
    const Tensor graph = nchw_layout_logits(net, rgb, depth);
    ASSERT_EQ(planned.shape(), graph.shape());
    EXPECT_EQ(std::memcmp(planned.raw(), graph.raw(),
                          static_cast<size_t>(planned.numel()) *
                              sizeof(float)),
              0)
        << "blocked layout differs from the NCHW layout";
  }
  common::set_active_tier(saved);
}

}  // namespace
}  // namespace roadfusion::roadseg
