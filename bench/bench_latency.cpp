// Inference latency per fusion scheme (supporting measurement).
//
// The paper makes two runtime claims this bench quantifies:
//  * the Feature Disparity loss is training-only, so it "does not affect
//    the inference latency" — shown by timing the same architecture
//    trained with and without the loss;
//  * Fusion-filters add inference work (Sec. IV-B), while Layer-sharing
//    does not change MACs — shown by the per-scheme latency table.
//
// It also quantifies the zero-allocation steady state (DESIGN.md §11,
// §16): the graph path (the autograd graph of `forward_fused` plus the
// graph sigmoid — per-call heap allocations) against the compiled plan in
// each serving mode — fused predict, RGB-only (fusion weight 0), stream
// hit (cached depth features) and int8 (quantized mode, dynamic scales,
// the plan's NCHW layout). Each row reports the median, p10 and p90 of
// per-trial mean latencies over interleaved trials, plus per-call heap
// allocations measured by the operator-new hooks from
// tests/alloc_hooks.cpp. Every row runs the shipped kernel selection (no
// forced solver, no perf DB), and the JSON records the host fingerprint,
// the kernel the fp32 rows' blocked plan runs for every conv
// (`fp32_plan_solver`) and the registry solver the plan's NCHW layout
// binds per fp32 conv (`nchw_layout_solvers`).
//
// Flags:
//   --smoke        seconds-fast mode: path comparison only, few repeats,
//                  an untrained (seeded) model — used by tools/run_tier1.sh
//   --json FILE    also write the machine-readable result (the committed
//                  BENCH_latency.json) to FILE
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "alloc_hooks.hpp"
#include "autograd/ops.hpp"
#include "autograd/variable.hpp"
#include "bench_common.hpp"
#include "common/cpu.hpp"
#include "quant/runtime.hpp"
#include "tensor/shape.hpp"
#include "tune/dispatch.hpp"
#include "tune/problem.hpp"

namespace {

using namespace roadfusion;
using Clock = std::chrono::steady_clock;

/// Mean per-image predict() latency in milliseconds.
double measure_latency_ms(roadseg::SegmentationModel& net,
                          const kitti::Sample& sample, int repeats) {
  net.set_training(false);
  // Warm-up (first call touches cold caches).
  (void)net.predict(sample.rgb, sample.depth);
  const auto start = Clock::now();
  for (int i = 0; i < repeats; ++i) {
    (void)net.predict(sample.rgb, sample.depth);
  }
  const auto stop = Clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count() /
         repeats;
}

/// The graph path: the autograd graph of `forward_fused`, then the graph
/// sigmoid — the semantic reference every plan row reproduces bitwise.
tensor::Tensor graph_predict(const roadseg::SegmentationModel& net,
                             const tensor::Tensor& rgb,
                             const tensor::Tensor& depth) {
  const tensor::Tensor rgb4 = rgb.reshaped(tensor::Shape::nchw(
      1, rgb.shape().dim(0), rgb.shape().dim(1), rgb.shape().dim(2)));
  const tensor::Tensor depth4 = depth.reshaped(tensor::Shape::nchw(
      1, depth.shape().dim(0), depth.shape().dim(1), depth.shape().dim(2)));
  const roadseg::ForwardResult result =
      net.forward_fused(autograd::Variable::constant(rgb4),
                        autograd::Variable::constant(depth4), 1.0f);
  return autograd::sigmoid(result.logits).value();
}

/// One row of the steady-state comparison: per-trial mean latencies and
/// the heap traffic of every timed call.
struct PathRow {
  std::string path;
  std::vector<double> trial_ms;
  uint64_t calls = 0;
  uint64_t allocations = 0;
  uint64_t bytes = 0;

  /// Quantile of the per-trial means (nearest rank).
  double quantile(double q) const {
    std::vector<double> sorted = trial_ms;
    std::sort(sorted.begin(), sorted.end());
    const size_t i = static_cast<size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(i, sorted.size() - 1)];
  }
  double allocs_per_call() const {
    return static_cast<double>(allocations) / static_cast<double>(calls);
  }
  double bytes_per_call() const {
    return static_cast<double>(bytes) / static_cast<double>(calls);
  }
};

/// One trial of a row: `setup`, two warm-up calls (the first after a mode
/// switch may rebuild caches), then `repeats` timed calls.
template <typename Setup, typename Fn>
void run_trial(PathRow& row, Setup&& setup, Fn&& call, int repeats) {
  setup();
  call();
  call();
  testhooks::reset_thread_alloc_counters();
  const auto start = Clock::now();
  for (int i = 0; i < repeats; ++i) {
    call();
  }
  const auto stop = Clock::now();
  const testhooks::AllocCounters counters = testhooks::thread_alloc_counters();
  row.trial_ms.push_back(
      std::chrono::duration<double, std::milli>(stop - start).count() /
      repeats);
  row.calls += static_cast<uint64_t>(repeats);
  row.allocations += counters.allocations;
  row.bytes += counters.bytes;
}

}  // namespace

int main(int argc, char** argv) {
  using bench::fmt;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_latency [--smoke] [--json FILE]\n");
      return 2;
    }
  }

  const bench::BenchSettings config = bench::settings();
  bench::print_header(
      "Inference latency per fusion scheme",
      "single-core per-image forward latency; FD loss is training-only");

  // -------------------------------------------------------------------
  // Steady-state comparison (DESIGN.md §11, §16): the graph path vs the
  // compiled plan per serving mode, with per-call heap-allocation counts.
  // Weight values do not affect latency, so a seeded untrained model
  // keeps this section deterministic and cache-independent.
  // -------------------------------------------------------------------
  const int trials = smoke ? 5 : 15;
  const int path_repeats = smoke ? 5 : 20;
  const int64_t height = config.test_data.image_height;
  const int64_t width = config.test_data.image_width;
  tensor::Rng scene_rng(7);
  const tensor::Tensor rgb =
      tensor::Tensor::uniform(tensor::Shape::chw(3, height, width), scene_rng);
  const tensor::Tensor depth =
      tensor::Tensor::uniform(tensor::Shape::chw(1, height, width), scene_rng);
  tensor::Rng model_rng(2022);
  roadseg::RoadSegNet net(config.net, model_rng);
  net.set_training(false);
  net.prepare_inference();
  roadseg::StreamFeatureCache cache;
  (void)net.predict_stream(rgb, depth, 1.0f, cache, false);

  const auto fp32 = [] { quant::set_enabled(false); };
  const auto int8 = [] { quant::set_enabled(true); };  // dynamic scales
  struct Mode {
    const char* path;
    std::function<void()> setup;
    std::function<void()> call;
  };
  const Mode modes[] = {
      {"graph", fp32, [&] { (void)graph_predict(net, rgb, depth); }},
      {"fused", fp32, [&] { (void)net.predict(rgb, depth); }},
      {"rgb_only", fp32, [&] { (void)net.predict_fused(rgb, depth, 0.0f); }},
      {"stream_hit", fp32,
       [&] { (void)net.predict_stream(rgb, depth, 1.0f, cache, true); }},
      {"int8", int8, [&] { (void)net.predict(rgb, depth); }},
  };
  std::vector<PathRow> rows;
  for (const Mode& mode : modes) {
    rows.push_back({mode.path, {}, 0, 0, 0});
  }
  // Interleaved: every trial visits every row, so host drift spreads
  // over all rows instead of biasing one.
  for (int t = 0; t < trials; ++t) {
    for (size_t m = 0; m < rows.size(); ++m) {
      run_trial(rows[m], modes[m].setup, modes[m].call, path_repeats);
    }
  }
  fp32();

  // Registry selections: record the conv problems of one graph forward
  // (every conv) and one fused predict (recording selects the plan's NCHW
  // layout, which adds the decoder's transposed convs), then ask the
  // dispatch layer what it binds for each. The fp32 rows' blocked layout
  // runs none of them: every conv there is the plan's own direct kernel.
  tune::clear_recorded_problems();
  tune::set_problem_recording(true);
  (void)graph_predict(net, rgb, depth);
  (void)net.predict(rgb, depth);
  tune::set_problem_recording(false);
  const std::vector<tune::ConvProblem> layer_problems =
      tune::recorded_problems();

  std::printf("\nSteady-state predict: graph path vs compiled plan per "
              "serving mode (%lldx%lld, %d trials x %d calls)\n",
              static_cast<long long>(height), static_cast<long long>(width),
              trials, path_repeats);
  bench::print_row({"path", "median(ms)", "p10(ms)", "p90(ms)",
                    "allocs/call", "KiB/call"},
                   12);
  for (const PathRow& row : rows) {
    bench::print_row({row.path, fmt(row.quantile(0.5), 3),
                      fmt(row.quantile(0.1), 3), fmt(row.quantile(0.9), 3),
                      fmt(row.allocs_per_call(), 1),
                      fmt(row.bytes_per_call() / 1024.0, 1)},
                     12);
  }
  bench::JsonWriter json;
  json.begin_object()
      .field("bench", std::string("latency"))
      .field("smoke", smoke)
      .field("trials", static_cast<int64_t>(trials))
      .field("repeats", static_cast<int64_t>(path_repeats))
      .field("image_height", static_cast<int64_t>(height))
      .field("image_width", static_cast<int64_t>(width));
  bench::host_fingerprint(json);
  json.begin_array("paths");
  for (const PathRow& row : rows) {
    json.begin_object()
        .field("path", row.path)
        .field("latency_ms_median", row.quantile(0.5), 4)
        .field("latency_ms_p10", row.quantile(0.1), 4)
        .field("latency_ms_p90", row.quantile(0.9), 4)
        .field("allocs_per_call", row.allocs_per_call(), 1)
        .field("bytes_per_call", row.bytes_per_call(), 1)
        .end_object();
  }
  json.end_array()
      .field("fp32_plan_solver",
             std::string(common::active_tier() >= common::CpuTier::kAvx2
                             ? "nchwc_direct_avx2"
                             : "nchwc_direct"))
      .begin_array("nchw_layout_solvers");
  for (const tune::ConvProblem& p : layer_problems) {
    json.begin_object()
        .field("layer", p.key())
        .field("solver", std::string(tune::bind(p, true)->solver->name()))
        .end_object();
  }
  // rows are (graph, fused, rgb_only, stream_hit, int8)
  const double graph_to_fused = rows[0].quantile(0.5) / rows[1].quantile(0.5);
  std::printf("compiled plan (fused) is %.2fx the graph path (medians)\n",
              graph_to_fused);
  json.end_array()
      .field("speedup_graph_to_fused", graph_to_fused, 3)
      .end_object();
  std::printf("%s\n", json.str().c_str());
  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "%s\n", json.str().c_str());
    std::fclose(out);
  }
  if (smoke) {
    // Smoke mode is a check, not just a report: fail if any plan row
    // regressed into allocating. (It also skips the training-heavy scheme
    // table below.)
    for (const PathRow& row : rows) {
      if (row.path != "graph" && row.allocs_per_call() != 0.0) {
        std::fprintf(stderr,
                     "FAIL: %s path allocates %.1f times per call "
                     "(expected 0)\n",
                     row.path.c_str(), row.allocs_per_call());
        return 1;
      }
    }
    std::printf("smoke check passed: every plan row allocation-free\n");
    return 0;
  }

  // -------------------------------------------------------------------
  // Per-scheme latency table (trained models).
  // -------------------------------------------------------------------
  kitti::RoadDataset test_set(config.test_data, kitti::Split::kTest);
  const kitti::Sample& sample = test_set.sample(0);
  const int repeats = 20;

  bench::print_row({"model", "latency(ms)", "MACs(M)"}, 18);
  double baseline_ms = 0.0;
  for (core::FusionScheme scheme : core::all_fusion_schemes()) {
    const float alpha =
        scheme == core::FusionScheme::kBaseline ? 0.0f : config.alpha_fd;
    roadseg::RoadSegNet trained = bench::trained_model(config, scheme, alpha);
    const double ms = measure_latency_ms(trained, sample, repeats);
    if (scheme == core::FusionScheme::kBaseline) {
      baseline_ms = ms;
    }
    bench::print_row(
        {core::to_string(scheme), fmt(ms, 3),
         fmt(trained.complexity(config.test_data.image_height,
                                config.test_data.image_width).macs /
                 1e6,
             3)},
        18);
  }

  // Same architecture, trained with vs without the FD loss: identical
  // inference graph, so latency must match within noise.
  roadseg::RoadSegNet plain =
      bench::trained_model(config, core::FusionScheme::kBaseline, 0.0f);
  roadseg::RoadSegNet with_loss =
      bench::trained_model(config, core::FusionScheme::kBaseline,
                           config.alpha_fd);
  const double plain_ms = measure_latency_ms(plain, sample, repeats);
  const double loss_ms = measure_latency_ms(with_loss, sample, repeats);
  std::printf(
      "\nFD-loss latency check (Baseline): trained without %.3f ms, "
      "with %.3f ms\n-> the loss changes training only; the inference "
      "graph is identical.\n",
      plain_ms, loss_ms);
  std::printf(
      "Expected shape: AllFilter latencies exceed the Baseline's (%.3f "
      "ms);\nsharing schemes match it.\n",
      baseline_ms);
  return 0;
}
