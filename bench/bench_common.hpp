// Shared infrastructure for the experiment-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper. All
// benches draw their models from one shared checkpoint cache keyed by the
// full (architecture, dataset, training) configuration, so a model that
// several figures need is trained exactly once per suite run.
//
// Environment knobs:
//   ROADFUSION_BENCH_FULL=1   — full KITTI-sized splits and longer training
//   ROADFUSION_CACHE_DIR=dir  — checkpoint cache location (default
//                               "bench_cache"); set empty to always retrain
//   ROADFUSION_OUT_DIR=dir    — where qualitative outputs are written
//                               (default "bench_output")
#pragma once

#include <string>
#include <vector>

#include "eval/evaluator.hpp"
#include "kitti/dataset.hpp"
#include "roadseg/roadseg_net.hpp"
#include "train/checkpoint.hpp"
#include "train/trainer.hpp"

namespace roadfusion::bench {

using core::FusionScheme;

/// Resolved bench configuration (quick by default, full via env).
struct BenchSettings {
  kitti::DatasetConfig train_data;
  kitti::DatasetConfig test_data;
  train::TrainConfig train;
  roadseg::RoadSegConfig net;
  eval::EvalConfig eval;
  std::string cache_dir;
  std::string out_dir;
  bool full = false;
  /// Feature-Disparity-loss weight for the "proposed" models. The paper
  /// uses alpha = 0.3 with its OpenCV-Canny edge term; our raw-Sobel FD
  /// term carries larger magnitudes, so the equivalent weight is 0.1
  /// (suite default; override with ROADFUSION_ALPHA_PERCENT, e.g. 30).
  float alpha_fd = 0.1f;
};

/// Reads the settings from the environment.
BenchSettings settings();

/// Trains (or loads from cache) the given fusion scheme with the given
/// Feature-Disparity-loss weight on the bench training split.
roadseg::RoadSegNet trained_model(const BenchSettings& config,
                                  FusionScheme scheme, float alpha_fd);

/// Evaluates a model per category + overall on the bench test split.
eval::EvaluationResult evaluate_model(const BenchSettings& config,
                                      roadseg::RoadSegNet& net);

// ---------------------------------------------------------------------------
// Output formatting
// ---------------------------------------------------------------------------

/// Prints a bench header naming the paper artifact being regenerated.
void print_header(const std::string& artifact, const std::string& summary);

/// Prints one row of fixed-width cells.
void print_row(const std::vector<std::string>& cells, int width = 12);

/// Formats a double with the paper's two decimals.
std::string fmt(double value, int decimals = 2);

/// Minimal streaming JSON builder for machine-readable bench output
/// (bench_throughput and future serving benches). Usage:
///   JsonWriter json;
///   json.begin_object().field("threads", 4).begin_array("runs")
///       .begin_object().field("scenes_per_sec", 12.5).end_object()
///       .end_array().end_object();
///   std::puts(json.str().c_str());
class JsonWriter {
 public:
  JsonWriter& begin_object(const std::string& key = "");
  JsonWriter& end_object();
  JsonWriter& begin_array(const std::string& key = "");
  JsonWriter& end_array();
  JsonWriter& field(const std::string& key, double value, int decimals = 3);
  JsonWriter& field(const std::string& key, int64_t value);
  JsonWriter& field(const std::string& key, const std::string& value);
  JsonWriter& field(const std::string& key, bool value);

  /// The JSON text accumulated so far.
  std::string str() const;

 private:
  void prefix(const std::string& key);

  std::string out_;
  bool needs_comma_ = false;
};

/// Adds the host fingerprint a timing needs to be read against: CPU brand
/// string ("cpu_model"), `std::thread::hardware_concurrency()` and the
/// active CPU dispatch tier ("cpu_tier").
void host_fingerprint(JsonWriter& json);

}  // namespace roadfusion::bench
