// Streaming throughput: temporally coherent reuse vs naive per-frame
// submit (DESIGN.md §15).
//
// Drives the same scenario stream through the front door twice:
//  * naive    — every frame regenerated and inferred from scratch (the
//               per-frame pipeline a non-streaming client would run);
//  * stream   — frame-to-frame reuse on: stale LiDAR scans between
//               refreshes, tiled depth preprocessing against the previous
//               scan, and the cross-frame depth-feature cache that skips
//               the depth encoder on unchanged-depth frames.
// Both runs must produce bitwise-identical outputs — the speedup is only
// worth reporting if the shortcut is invisible. Reported as frames/sec
// (and frames/sec-at-SLO when --slo-ms is set).
//
// Flags:
//   --smoke        seconds-fast CI mode: small model, few frames, and a
//                  hard gate: bitwise equality in every trial + median
//                  speedup over 5 interleaved trials >= 1.15x
//                  (report target is 1.2x) — used by tools/run_tier1.sh
//   --json FILE    write the machine-readable result (the committed
//                  BENCH_stream.json) to FILE
//   --frames N     frames per run (default 48; smoke 16)
//   --slo-ms MS    per-frame latency SLO for frames/sec-at-SLO
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "scenario/stream.hpp"
#include "scenario/suite.hpp"
#include "serve/front_door.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace roadfusion;
using Clock = std::chrono::steady_clock;

constexpr double kSmokeGateSpeedup = 1.15;  // CI gate (report target 1.2)
constexpr int kTrials = 9;  // interleaved naive/reuse pairs per run

struct RunResult {
  double wall_ms = 0.0;
  double frames_per_sec = 0.0;
  double frames_per_sec_at_slo = 0.0;
  scenario::StreamSessionStats stats;
  std::vector<tensor::Tensor> outputs;
};

RunResult run_stream(roadseg::RoadSegNet& net,
                     const scenario::StreamConfig& stream_config,
                     int frames, double slo_ms, bool reuse) {
  scenario::StreamConfig config = stream_config;
  config.frame_to_frame_reuse = reuse;

  serve::FrontDoorConfig door_config;
  door_config.shards = 1;
  serve::FrontDoor door(net, door_config);
  scenario::StreamGenerator generator(config);
  scenario::StreamSessionConfig session_config;
  session_config.scenario = reuse ? "bench-stream" : "bench-naive";
  session_config.slo_ms = slo_ms;
  session_config.use_feature_cache = reuse;
  scenario::StreamSession session(door, generator, session_config);

  const auto start = Clock::now();
  const std::vector<scenario::StreamFrameResult> results =
      session.run(frames);
  const auto stop = Clock::now();
  door.shutdown();

  RunResult run;
  run.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  run.frames_per_sec = 1000.0 * frames / run.wall_ms;
  run.stats = session.stats();
  const int within_slo = frames - static_cast<int>(run.stats.slo_misses);
  run.frames_per_sec_at_slo =
      slo_ms > 0.0 ? 1000.0 * within_slo / run.wall_ms : run.frames_per_sec;
  run.outputs.reserve(results.size());
  for (const scenario::StreamFrameResult& result : results) {
    run.outputs.push_back(result.output);
  }
  return run;
}

int count_bitwise_equal(const std::vector<tensor::Tensor>& a,
                        const std::vector<tensor::Tensor>& b) {
  int equal = 0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i].shape() == b[i].shape() &&
        std::memcmp(a[i].raw(), b[i].raw(),
                    static_cast<size_t>(a[i].numel()) * sizeof(float)) == 0) {
      ++equal;
    }
  }
  return equal;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int frames = 48;
  bool frames_set = false;
  double slo_ms = 0.0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
      frames = std::atoi(argv[++i]);
      frames_set = true;
    } else if (std::strcmp(argv[i], "--slo-ms") == 0 && i + 1 < argc) {
      slo_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_stream [--smoke] [--frames N] "
                   "[--slo-ms MS] [--json FILE]\n");
      return 2;
    }
  }
  if (smoke && !frames_set) {
    frames = 16;
  }

  bench::print_header(
      "Streaming throughput (DESIGN.md §15)",
      smoke ? "smoke: bitwise + speedup gate only; JSON below"
            : "naive per-frame submit vs frame-to-frame reuse");

  // Untrained but deterministically seeded: throughput and bitwise
  // equality do not depend on the weights being meaningful.
  roadseg::RoadSegConfig net_config;
  net_config.scheme = core::FusionScheme::kWeightedSharing;
  if (smoke) {
    net_config.stage_channels = {4, 6, 8, 10, 12};
  }
  tensor::Rng rng(2022);
  roadseg::RoadSegNet net(net_config, rng);
  net.set_training(false);

  scenario::StreamConfig stream_config;
  stream_config.corruptions = scenario::parse_corruptions("fog:0.5+night:0.4");
  stream_config.lidar_period = 3;

  // The speedup is the median of interleaved naive/reuse trial pairs: a
  // single pair is at the mercy of host noise (one-pair smoke runs of the
  // same build read 0.97-1.21x). Every trial must be bitwise-identical.
  RunResult naive;
  RunResult stream;
  std::vector<double> speedups;
  int equal = frames;
  for (int trial = 0; trial < kTrials; ++trial) {
    naive = run_stream(net, stream_config, frames, slo_ms, /*reuse=*/false);
    stream = run_stream(net, stream_config, frames, slo_ms, /*reuse=*/true);
    equal = std::min(equal, count_bitwise_equal(naive.outputs, stream.outputs));
    speedups.push_back(stream.frames_per_sec / naive.frames_per_sec);
  }
  std::vector<double> sorted = speedups;
  std::sort(sorted.begin(), sorted.end());
  const double speedup = sorted[sorted.size() / 2];

  bench::print_row({"mode", "frames/s", "fps@SLO", "wall ms", "cache h/m"});
  bench::print_row({"naive", bench::fmt(naive.frames_per_sec),
                    bench::fmt(naive.frames_per_sec_at_slo),
                    bench::fmt(naive.wall_ms),
                    std::to_string(naive.stats.cache_hits) + "/" +
                        std::to_string(naive.stats.cache_misses)});
  bench::print_row({"stream", bench::fmt(stream.frames_per_sec),
                    bench::fmt(stream.frames_per_sec_at_slo),
                    bench::fmt(stream.wall_ms),
                    std::to_string(stream.stats.cache_hits) + "/" +
                        std::to_string(stream.stats.cache_misses)});
  std::printf("speedup (median of %d trials): %.2fx  bitwise-identical: "
              "%d/%d frames in every trial\n",
              kTrials, speedup, equal, frames);

  bench::JsonWriter json;
  json.begin_object()
      .field("bench", std::string("stream"))
      .field("smoke", smoke)
      .field("frames", static_cast<int64_t>(frames))
      .field("lidar_period",
             static_cast<int64_t>(stream_config.lidar_period))
      .field("scenario", std::string("fog:0.5+night:0.4"))
      .field("slo_ms", slo_ms)
      .field("bitwise_identical_frames", static_cast<int64_t>(equal))
      .begin_object("naive")
      .field("frames_per_sec", naive.frames_per_sec)
      .field("frames_per_sec_at_slo", naive.frames_per_sec_at_slo)
      .field("mean_latency_ms",
             naive.stats.total_latency_ms / std::max(1, frames))
      .field("max_latency_ms", naive.stats.max_latency_ms)
      .end_object()
      .begin_object("stream")
      .field("frames_per_sec", stream.frames_per_sec)
      .field("frames_per_sec_at_slo", stream.frames_per_sec_at_slo)
      .field("mean_latency_ms",
             stream.stats.total_latency_ms / std::max(1, frames))
      .field("max_latency_ms", stream.stats.max_latency_ms)
      .field("cache_hits", static_cast<int64_t>(stream.stats.cache_hits))
      .field("cache_misses",
             static_cast<int64_t>(stream.stats.cache_misses))
      .end_object()
      .field("trials", static_cast<int64_t>(kTrials))
      .field("speedup", speedup)
      .begin_array("trial_speedups");
  for (const double x : speedups) {
    json.begin_object().field("speedup", x).end_object();
  }
  json.end_array().end_object();
  std::puts(json.str().c_str());
  if (!json_path.empty()) {
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      const std::string text = json.str();
      std::fwrite(text.data(), 1, text.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "bench_stream: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
  }

  if (equal != frames) {
    std::fprintf(stderr,
                 "FAIL: streaming output diverged from naive per-frame "
                 "inference (%d/%d bitwise-identical)\n",
                 equal, frames);
    return 1;
  }
  if (smoke && speedup < kSmokeGateSpeedup) {
    std::fprintf(stderr,
                 "FAIL: streaming speedup %.2fx below the %.2fx smoke "
                 "gate (report target 1.2x)\n",
                 speedup, kSmokeGateSpeedup);
    return 1;
  }
  return 0;
}
