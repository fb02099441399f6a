// rfbench: the repository benchmark driver (see perfbench/NOTES.md).
//
//   rfbench --workload drive|fleet|quantized --seed N --seconds S
//           --trace 0|1 --out DIR
//
// Every workload serves one seeded, untrained WeightedSharing RoadSegNet at
// 32x96 (stages 8-12-16-24-32) with the shipped defaults. Inputs and the
// fp32 autograd-graph reference outputs are made before timing starts;
// every fp32 output is compared bitwise against its reference. The last
// line of stdout is one JSON object with the raw measurements; run.py
// turns it (and, for --trace 1, the span dump written to DIR) into the
// benchmark's metrics.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "autograd/kernels.hpp"
#include "autograd/ops.hpp"
#include "autograd/variable.hpp"
#include "common/cpu.hpp"
#include "kitti/dataset.hpp"
#include "kitti/depth_preproc.hpp"
#include "kitti/lidar.hpp"
#include "kitti/scene.hpp"
#include "kitti/sensor_health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/plan.hpp"
#include "quant/runtime.hpp"
#include "roadseg/roadseg_net.hpp"
#include "scenario/corruption.hpp"
#include "scenario/stream.hpp"
#include "serve/errors.hpp"
#include "serve/front_door.hpp"
#include "spans.hpp"
#include "tensor/rng.hpp"
#include "tensor/workspace.hpp"
#include "tune/dispatch.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace rf = roadfusion;
using rf::tensor::Tensor;

// ---------------------------------------------------------------------------
// Fixed benchmark parameters (NOTES.md explains each choice)

constexpr int64_t kHeight = 32;
constexpr int64_t kWidth = 96;
/// Latency does not depend on weight values, so one fixed model seed
/// serves every workload seed.
constexpr uint64_t kModelSeed = 2022;
/// The timed phase runs as slices of this length, kSlicesPerVisit at a time
/// on each CPU, with one set-up repetition between visits (see
/// `run_slices`).
constexpr double kSliceSeconds = 0.5;
constexpr int kSlicesPerVisit = 2;

// drive: one vehicle, closed loop.
constexpr int kDriveScans = 40;           // pool = 120 frames
constexpr int kLidarPeriod = 3;
constexpr int kDropoutEpisodeScans = 2;   // one episode = 6 frames
constexpr int kDropoutEpisodes = 2;       // 4 of 40 scans = 10% of frames
constexpr float kFogSeverity = 0.3f;
constexpr float kDropoutSeverity = 1.0f;
constexpr int64_t kTileRows = 8;
constexpr double kDriveSloMs = 10.0;

// fleet / quantized: independent frames.
constexpr int kFramePool = 48;
constexpr int kShards = 2;
constexpr int kMaxBatch = 4;
constexpr int kFramesPerBurst = 4;
constexpr int kRigs = 8;
constexpr double kFleetSloMs = 25.0;
constexpr double kQuantizedSloMs = 10.0;
/// The pool's frames and the rigs line up again after this many bursts.
constexpr int64_t kFleetBurstCycle =
    std::lcm(int64_t{kFramePool / kFramesPerBurst}, int64_t{kRigs});

/// Independent seed streams per (workload seed, role, index).
uint64_t derive_seed(uint64_t seed, uint64_t role, uint64_t index = 0) {
  return rf::tensor::SplitMix64(seed * 0x9e3779b97f4a7c15ULL ^
                                (role << 32) ^ (index + 1))
      .next();
}

// ---------------------------------------------------------------------------
// Model, reference and comparison helpers

rf::roadseg::RoadSegConfig bench_net_config() {
  rf::roadseg::RoadSegConfig config;
  config.scheme = rf::core::FusionScheme::kWeightedSharing;
  config.stage_channels = {8, 12, 16, 24, 32};
  return config;
}

std::unique_ptr<rf::roadseg::RoadSegNet> build_model() {
  rf::tensor::Rng rng(kModelSeed);
  auto net = std::make_unique<rf::roadseg::RoadSegNet>(bench_net_config(), rng);
  net->set_training(false);
  return net;
}

/// The semantic reference: the autograd graph's forward_fused, then the
/// graph sigmoid — what every serving path must reproduce bitwise.
Tensor reference_probs(const rf::roadseg::RoadSegNet& net, const Tensor& rgb,
                       const Tensor& depth, float fusion_weight) {
  const rf::autograd::InferenceModeGuard no_grad;
  const auto& rs = rgb.shape();
  const auto& ds = depth.shape();
  const Tensor rgb4 = rgb.reshaped(
      rf::tensor::Shape::nchw(1, rs.dim(0), rs.dim(1), rs.dim(2)));
  const Tensor depth4 = depth.reshaped(
      rf::tensor::Shape::nchw(1, ds.dim(0), ds.dim(1), ds.dim(2)));
  const auto result = net.forward_fused(
      rf::autograd::Variable::constant(rgb4),
      rf::autograd::Variable::constant(depth4), fusion_weight);
  return rf::autograd::sigmoid(result.logits)
      .value()
      .reshaped(rf::tensor::Shape::chw(1, rs.dim(1), rs.dim(2)));
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Pixels whose thresholded road mask agrees with the reference.
int64_t mask_agreeing_pixels(const Tensor& out, const Tensor& ref) {
  int64_t agree = 0;
  const int64_t n = std::min(out.numel(), ref.numel());
  for (int64_t i = 0; i < n; ++i) {
    agree += (out.raw()[i] > 0.5f) == (ref.raw()[i] > 0.5f) ? 1 : 0;
  }
  return agree;
}

double seconds_between(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Process CPU time (every thread), in ms.
double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double counter_value(const std::string& name) {
  return static_cast<double>(
      rf::obs::MetricsRegistry::global().counter(name).value());
}

double arena_peak_mb() {
  return static_cast<double>(
             rf::tensor::Workspace::global_stats().peak_bytes) /
         (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Small JSON writer for the result line

class Json {
 public:
  Json& key(const std::string& k) {
    comma();
    out_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    comma();
    if (std::isfinite(v)) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.17g", v);
      out_ << buffer;
    } else {
      out_ << "null";
    }
    return *this;
  }
  Json& str(const std::string& v) {
    comma();
    out_ << '"';
    for (char c : v) {
      if (c == '"' || c == '\\') {
        out_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) >= 0x20) {
        out_ << c;
      }
    }
    out_ << '"';
    return *this;
  }
  Json& boolean(bool v) {
    comma();
    out_ << (v ? "true" : "false");
    return *this;
  }
  Json& open(char bracket) {
    comma();
    out_ << bracket;
    fresh_ = true;
    return *this;
  }
  Json& close(char bracket) {
    out_ << bracket;
    fresh_ = false;
    return *this;
  }
  Json& field(const std::string& k, double v) { return key(k).num(v); }
  std::string text() const { return out_.str(); }

 private:
  void comma() {
    if (!fresh_) {
      out_ << ',';
    }
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

// ---------------------------------------------------------------------------
// Results

/// Best-of-repeats timings. A run serves its input pool many times over,
/// and the order of the pool repeats, so every work item (a frame, or a
/// fleet burst, by its place in the cycle) is timed many times; each keeps
/// its fastest repeat. Other tenants of a shared host slow the whole
/// process for seconds at a time; the fastest repeat is the item's cost
/// when they did not.
struct BestOf {
  std::vector<double> frame_ms;     ///< per frame slot: call to mask
  std::vector<double> unit_ms;      ///< per unit slot: wall time
  std::vector<double> unit_cpu_ms;  ///< per unit slot: process CPU time

  static void keep_min(std::vector<double>& v, size_t slot, double x) {
    if (v.size() <= slot) {
      v.resize(slot + 1, std::numeric_limits<double>::infinity());
    }
    v[slot] = std::min(v[slot], x);
  }
  void note_frame(int64_t slot, double ms) {
    keep_min(frame_ms, static_cast<size_t>(slot), ms);
  }
  void note_unit(int64_t slot, double ms, double cpu_ms) {
    keep_min(unit_ms, static_cast<size_t>(slot), ms);
    keep_min(unit_cpu_ms, static_cast<size_t>(slot), cpu_ms);
  }
  void merge(const BestOf& other) {
    for (size_t i = 0; i < other.frame_ms.size(); ++i) {
      keep_min(frame_ms, i, other.frame_ms[i]);
    }
    for (size_t i = 0; i < other.unit_ms.size(); ++i) {
      keep_min(unit_ms, i, other.unit_ms[i]);
      keep_min(unit_cpu_ms, i, other.unit_cpu_ms[i]);
    }
  }
};

/// One timed phase's end-to-end tally.
struct Phase {
  double seconds = 0.0;  ///< wall time the phase measured
  std::vector<double> latency_ms;  ///< one per frame served
  int64_t sent = 0;
  int64_t served = 0;
  int64_t refused = 0;
  int64_t failed = 0;
  int64_t wrong = 0;     ///< served but not equal to the reference
  int64_t in_slo = 0;    ///< served correctly within the SLO
  int64_t fused = 0;     ///< served correctly with both sensors
  int64_t mask_agree = 0;
  int64_t mask_pixels = 0;
  /// Layer counters (deltas over the phase), reported by the traced run.
  std::map<std::string, double> layer;
  BestOf best;
};

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Adds one slice's tally to a phase. Layer counters are deltas and add
/// up, except the arena peak, which is a high-water mark.
void merge_phase(Phase& into, const Phase& slice) {
  into.best.merge(slice.best);
  into.seconds += slice.seconds;
  into.latency_ms.insert(into.latency_ms.end(), slice.latency_ms.begin(),
                         slice.latency_ms.end());
  into.sent += slice.sent;
  into.served += slice.served;
  into.refused += slice.refused;
  into.failed += slice.failed;
  into.wrong += slice.wrong;
  into.in_slo += slice.in_slo;
  into.fused += slice.fused;
  into.mask_agree += slice.mask_agree;
  into.mask_pixels += slice.mask_pixels;
  for (const auto& [k, v] : slice.layer) {
    double& total = into.layer[k];
    total = k == "arena_peak_mb" ? std::max(total, v) : total + v;
  }
}

void write_phase(Json& json, const std::string& name, const Phase& p) {
  json.key(name).open('{');
  json.field("seconds", p.seconds)
      .field("samples", static_cast<double>(p.latency_ms.size()))
      .field("p50_ms", percentile(p.latency_ms, 0.50))
      .field("p90_ms", percentile(p.latency_ms, 0.90))
      .field("p99_ms", percentile(p.latency_ms, 0.99))
      .field("sent", static_cast<double>(p.sent))
      .field("served", static_cast<double>(p.served))
      .field("refused", static_cast<double>(p.refused))
      .field("failed", static_cast<double>(p.failed))
      .field("wrong", static_cast<double>(p.wrong))
      .field("in_slo", static_cast<double>(p.in_slo))
      .field("fused", static_cast<double>(p.fused))
      .field("mask_agree", static_cast<double>(p.mask_agree))
      .field("mask_pixels", static_cast<double>(p.mask_pixels));
  for (const auto& [key, values] :
       {std::pair{"best_frame_ms", &p.best.frame_ms},
        std::pair{"best_unit_ms", &p.best.unit_ms},
        std::pair{"best_unit_cpu_ms", &p.best.unit_cpu_ms}}) {
    json.key(key).open('[');
    for (double v : *values) {
      json.num(v);
    }
    json.close(']');
  }
  json.key("layer").open('{');
  for (const auto& [k, v] : p.layer) {
    json.field(k, v);
  }
  json.close('}').close('}');
}

/// Counter snapshot for per-phase deltas.
struct Counters {
  double int8_convs = 0, prepack_hits = 0, prepack_misses = 0;
  double plan_declined = 0, batches = 0, batched_requests = 0;

  static Counters take() {
    Counters c;
    c.int8_convs = counter_value("roadfusion_int8_conv_total");
    c.prepack_hits = counter_value("roadfusion_prepack_hits");
    c.prepack_misses = counter_value("roadfusion_prepack_misses");
    c.plan_declined = counter_value("roadfusion_plan_declined_total");
    c.batches = counter_value("roadfusion_engine_batches_formed_total");
    c.batched_requests =
        counter_value("roadfusion_engine_batched_requests_total");
    return c;
  }
};

void add_counter_deltas(Phase& phase, const Counters& before) {
  const Counters after = Counters::take();
  const double int8 = after.int8_convs - before.int8_convs;
  const double convs = int8 + (after.prepack_hits - before.prepack_hits) +
                       (after.prepack_misses - before.prepack_misses);
  phase.layer["int8_convs"] = int8;
  phase.layer["graph_convs"] = convs;
  phase.layer["plan_declined"] = after.plan_declined - before.plan_declined;
  phase.layer["batches"] = after.batches - before.batches;
  phase.layer["batched_requests"] =
      after.batched_requests - before.batched_requests;
  phase.layer["arena_peak_mb"] = arena_peak_mb();
}

// ---------------------------------------------------------------------------
// drive: one vehicle, closed loop, one thread

struct DriveFrame {
  Tensor rgb;
  Tensor depth;
  int scan = 0;
  bool refresh = false;
  bool degraded = false;  ///< sensor health verdict computed at input time
  Tensor reference;       ///< graph output at fw 1 (or 0 when degraded)
};

struct DriveInputs {
  std::vector<DriveFrame> frames;
  std::vector<Tensor> sparse;     ///< per scan: fogged sparse range image
  std::vector<Tensor> dense_ref;  ///< per scan: preprocess_depth(sparse)
  rf::kitti::DepthPreprocConfig depth_config;
};

DriveInputs make_drive_inputs(uint64_t seed) {
  using rf::scenario::CorruptionKind;
  rf::scenario::StreamConfig clean;
  clean.corruptions = {{CorruptionKind::kFog, kFogSeverity}};
  clean.lidar_period = kLidarPeriod;
  clean.tile_rows = kTileRows;
  clean.scene_seed = derive_seed(seed, 1);
  clean.noise_seed = derive_seed(seed, 2);
  clean.corruption_seed = derive_seed(seed, 3);
  rf::scenario::StreamConfig dropped = clean;
  dropped.corruptions.push_back({CorruptionKind::kDropout, kDropoutSeverity});

  // Dropout episodes: whole scans (so every frame of a scan agrees on the
  // depth), placed by a seeded shuffle; exactly 10% of frames.
  const int episode_slots = kDriveScans / kDropoutEpisodeScans;
  std::vector<int> slots(static_cast<size_t>(episode_slots));
  for (int i = 0; i < episode_slots; ++i) {
    slots[static_cast<size_t>(i)] = i;
  }
  rf::tensor::Rng shuffle(derive_seed(seed, 4));
  for (int i = episode_slots - 1; i > 0; --i) {
    const int j = static_cast<int>(shuffle.next_u64() %
                                   static_cast<uint64_t>(i + 1));
    std::swap(slots[static_cast<size_t>(i)], slots[static_cast<size_t>(j)]);
  }
  std::vector<bool> dropout_scan(static_cast<size_t>(kDriveScans), false);
  for (int e = 0; e < kDropoutEpisodes; ++e) {
    for (int k = 0; k < kDropoutEpisodeScans; ++k) {
      dropout_scan[static_cast<size_t>(slots[static_cast<size_t>(e)] *
                                           kDropoutEpisodeScans +
                                       k)] = true;
    }
  }

  DriveInputs in;
  in.depth_config = clean.dataset.depth;
  rf::scenario::StreamGenerator gen_clean(clean);
  rf::scenario::StreamGenerator gen_dropped(dropped);
  for (int f = 0; f < kDriveScans * kLidarPeriod; ++f) {
    rf::scenario::StreamFrame a = gen_clean.next();
    rf::scenario::StreamFrame b = gen_dropped.next();
    const int scan = f / kLidarPeriod;
    rf::scenario::StreamFrame& pick =
        dropout_scan[static_cast<size_t>(scan)] ? b : a;
    DriveFrame frame;
    frame.rgb = std::move(pick.rgb);
    frame.depth = std::move(pick.depth);
    frame.scan = scan;
    frame.refresh = pick.depth_refreshed;
    in.frames.push_back(std::move(frame));
  }

  // The sparse scans the kitti layer densifies on refresh frames.
  const rf::kitti::Scene base = rf::kitti::Scene::generate(
      clean.category, clean.lighting, clean.scene_seed);
  const rf::scenario::CorruptionSpec fog{CorruptionKind::kFog, kFogSeverity};
  for (int s = 0; s < kDriveScans; ++s) {
    const rf::kitti::Scene scene =
        base.advanced(clean.advance_m * static_cast<double>(s * kLidarPeriod));
    rf::tensor::Rng rng(derive_seed(seed, 5, static_cast<uint64_t>(s)));
    const auto points = rf::kitti::scan(scene, clean.dataset.lidar, rng);
    Tensor sparse =
        rf::kitti::project_to_sparse_depth(points, gen_clean.camera());
    sparse = rf::scenario::corrupt_range(
        sparse, fog, derive_seed(seed, 6, static_cast<uint64_t>(s)),
        clean.dataset.lidar.max_range);
    in.dense_ref.push_back(
        rf::kitti::preprocess_depth(sparse, in.depth_config));
    in.sparse.push_back(std::move(sparse));
  }
  return in;
}

using Model = std::unique_ptr<rf::roadseg::RoadSegNet>;

/// Everything drive's `setup_s` pays for.
Model setup_drive(const DriveInputs& in) {
  Model net = build_model();
  net->prepare_inference();
  // Warm every path the loop takes: cache miss, cache hit, RGB-only.
  const DriveFrame& f = in.frames.front();
  rf::roadseg::StreamFeatureCache cache;
  (void)net->predict_stream(f.rgb, f.depth, 1.0f, cache, false);
  (void)net->predict_stream(f.rgb, f.depth, 1.0f, cache, true);
  (void)net->predict_fused(f.rgb, f.depth, 0.0f);
  return net;
}

struct DriveState {
  rf::roadseg::StreamFeatureCache cache;
  int cache_scan = -1;
  int64_t next_frame = 0;
  const Tensor* prev_sparse = nullptr;
  Tensor prev_dense;
};

Phase run_drive(const rf::roadseg::RoadSegNet& net, const DriveInputs& in,
                DriveState& st, double seconds, SpanLog& log) {
  Phase phase;
  const Counters counters = Counters::take();
  rf::kitti::TiledPreprocStats tiles;
  int64_t preproc_wrong = 0;
  const int64_t hits0 = st.cache.hits;
  const int64_t misses0 = st.cache.misses;
  const int64_t pool = static_cast<int64_t>(in.frames.size());
  const int64_t begin = now_ns();
  const int64_t stop = begin + static_cast<int64_t>(seconds * 1e9);
  int64_t t = begin;
  while (t < stop) {
    const int64_t id = st.next_frame++;
    const DriveFrame& f = in.frames[static_cast<size_t>(id % pool)];
    const double cpu_ms0 = process_cpu_ms();
    const int64_t t0 = now_ns();
    const int32_t frame_span = log.begin("frame", id, -1, t0);
    Tensor dense;
    int64_t t1 = t0;
    if (f.refresh) {
      rf::kitti::TiledPreprocStats call;
      dense = rf::kitti::preprocess_depth_tiled(
          in.sparse[static_cast<size_t>(f.scan)], *st.prev_sparse,
          st.prev_dense, in.depth_config, &call, kTileRows);
      t1 = now_ns();
      tiles.tiles_total += call.tiles_total;
      tiles.tiles_reused += call.tiles_reused;
      log.add("kitti.preprocess", id, frame_span, t0, t1);
    }
    const rf::kitti::SensorHealthReport health =
        rf::kitti::check_sensor_health(f.rgb, f.depth);
    const int64_t t2 = now_ns();
    log.add("kitti.health", id, frame_span, t1, t2);
    const bool healthy = health.status == rf::kitti::SensorStatus::kHealthy;
    const bool hit = healthy && !f.refresh && st.cache_scan == f.scan;
    const Tensor out =
        healthy ? net.predict_stream(f.rgb, f.depth, 1.0f, st.cache, hit)
                : net.predict_fused(f.rgb, f.depth, 0.0f);
    t = now_ns();
    log.add(!healthy ? "roadseg.rgb_only" : hit ? "roadseg.reuse"
                                                : "roadseg.full",
            id, frame_span, t2, t);
    log.end(frame_span, t);

    const double ms = static_cast<double>(t - t0) * 1e-6;
    phase.best.note_frame(id % pool, ms);
    phase.best.note_unit(id % pool, ms, process_cpu_ms() - cpu_ms0);
    const bool correct =
        healthy == !f.degraded && bitwise_equal(out, f.reference);
    ++phase.sent;
    ++phase.served;
    phase.latency_ms.push_back(ms);
    phase.mask_agree += mask_agreeing_pixels(out, f.reference);
    phase.mask_pixels += out.numel();
    if (!correct) {
      ++phase.wrong;
    } else {
      phase.in_slo += ms <= kDriveSloMs ? 1 : 0;
      phase.fused += healthy ? 1 : 0;
    }
    if (healthy && !hit) {
      st.cache_scan = f.scan;
    }
    if (f.refresh) {
      if (!bitwise_equal(dense, in.dense_ref[static_cast<size_t>(f.scan)])) {
        ++preproc_wrong;
      }
      st.prev_sparse = &in.sparse[static_cast<size_t>(f.scan)];
      st.prev_dense = std::move(dense);
    }
  }
  phase.seconds = seconds_between(begin, t);
  log.drain_library_spans();  // one slice's spans fit the rings
  phase.wrong += preproc_wrong;
  phase.layer["preproc_wrong"] = static_cast<double>(preproc_wrong);
  phase.layer["tiles_total"] = static_cast<double>(tiles.tiles_total);
  phase.layer["tiles_reused"] = static_cast<double>(tiles.tiles_reused);
  phase.layer["cache_hits"] = static_cast<double>(st.cache.hits - hits0);
  phase.layer["cache_misses"] = static_cast<double>(st.cache.misses - misses0);
  add_counter_deltas(phase, counters);
  return phase;
}

// ---------------------------------------------------------------------------
// fleet / quantized: independent frames

struct PoolFrame {
  Tensor rgb;
  Tensor depth;
  Tensor reference;           ///< graph output at fw 1
  Tensor reference_rgb_only;  ///< graph output at fw 0 (fleet only)
};

std::vector<PoolFrame> make_frame_pool(uint64_t seed) {
  rf::kitti::DatasetConfig config;
  config.image_height = kHeight;
  config.image_width = kWidth;
  config.seed = derive_seed(seed, 7);
  config.max_per_category = kFramePool / 3;
  const rf::kitti::RoadDataset dataset(config, rf::kitti::Split::kTest);
  std::vector<PoolFrame> pool;
  for (int64_t i = 0; i < dataset.size(); ++i) {
    const rf::kitti::Sample& s = dataset.sample(i);
    pool.push_back({s.rgb, s.depth, Tensor(), Tensor()});
  }
  return pool;
}

/// The CPUs the process may run on when it starts.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

/// Pins the calling thread, and every thread it starts from now on, to one
/// CPU. fleet keeps one burst in flight, so at most one of its threads
/// computes at a time; on one CPU its hand-offs (client to shard worker and
/// back) are context switches instead of wake-ups of idle vCPUs, which a
/// busy virtualized host delays by milliseconds.
void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::fprintf(stderr, "rfbench: could not pin to CPU %d\n", cpu);
  }
}

/// Everything fleet's `setup_s` pays for.
struct FleetServer {
  Model net;
  std::unique_ptr<rf::serve::FrontDoor> door;  // destroyed before `net`
};

rf::serve::ServeOptions rig_options(int rig) {
  rf::serve::ServeOptions options;
  options.tenant = "fleet";
  options.route_key = static_cast<uint64_t>(rig + 1);
  return options;
}

FleetServer setup_fleet(const std::vector<PoolFrame>& pool) {
  FleetServer server;
  server.net = build_model();
  server.net->prepare_inference();
  rf::serve::FrontDoorConfig config;
  config.shards = kShards;
  config.engine.threads = 1;
  config.engine.max_batch = kMaxBatch;
  server.door = std::make_unique<rf::serve::FrontDoor>(*server.net, config);
  // Warm-up: one burst per rig, so every shard serves full batches once.
  for (int rig = 0; rig < kRigs; ++rig) {
    std::vector<std::future<rf::runtime::InferenceResult>> burst;
    for (int k = 0; k < kFramesPerBurst; ++k) {
      const PoolFrame& f = pool[static_cast<size_t>(k)];
      burst.push_back(server.door->submit(f.rgb, f.depth, rig_options(rig)));
    }
    for (auto& future : burst) {
      (void)future.get();
    }
  }
  return server;
}

/// fleet's loop: the 8 rigs take turns sending a burst of kFramesPerBurst
/// frames that share the rig's route key, and the next burst goes out when
/// every frame of the previous one has resolved. With one burst in flight
/// all its frames ride one shard's batch, so reading the futures in order
/// stamps each frame when its batch resolves. Bursts are numbered over the
/// whole run, so the pool frames and the rig of a burst repeat every
/// kFleetBurstCycle bursts; that place in the cycle is its best-of slot.
Phase run_fleet(FleetServer& server, const std::vector<PoolFrame>& pool,
                int64_t& next_frame, double seconds, SpanLog& log) {
  Phase phase;
  const rf::serve::FrontDoorStats door0 = server.door->stats();
  const Counters counters = Counters::take();
  const int64_t n = static_cast<int64_t>(pool.size());
  const int64_t begin = now_ns();
  const int64_t stop = begin + static_cast<int64_t>(seconds * 1e9);
  int64_t t = begin;
  while (t < stop) {
    const int64_t burst = next_frame / kFramesPerBurst;
    const int64_t slot = burst % kFleetBurstCycle;
    struct Sent {
      std::future<rf::runtime::InferenceResult> future;
      int64_t id = 0;
      int64_t submit_ns = 0;
      int64_t submitted_ns = 0;
    };
    std::vector<Sent> sent;
    const rf::serve::ServeOptions options =
        rig_options(static_cast<int>(burst % kRigs));
    const double cpu_ms0 = process_cpu_ms();
    const int64_t t0 = now_ns();
    for (int k = 0; k < kFramesPerBurst; ++k) {
      Sent s;
      s.id = next_frame++;
      const PoolFrame& f = pool[static_cast<size_t>(s.id % n)];
      Tensor rgb = f.rgb;
      Tensor depth = f.depth;
      ++phase.sent;
      s.submit_ns = now_ns();
      try {
        s.future = server.door->submit(std::move(rgb), std::move(depth),
                                       options);
      } catch (const rf::serve::RetryAfterError&) {
        ++phase.refused;
        continue;
      }
      s.submitted_ns = now_ns();
      sent.push_back(std::move(s));
    }
    const int64_t all_submitted = now_ns();
    t = all_submitted;  // a burst the front door refused still ends
    int served = 0;
    for (Sent& s : sent) {
      try {
        const rf::runtime::InferenceResult result = s.future.get();
        t = now_ns();
        // A frame waits for its whole burst to be sent, then for its
        // answer; its own submit is one part of the first.
        const int32_t frame_span = log.add("frame", s.id, -1, t0, t);
        const int32_t burst_span = log.add("serve.send_burst", s.id,
                                           frame_span, t0, all_submitted);
        log.add("serve.submit", s.id, burst_span, s.submit_ns,
                s.submitted_ns);
        log.add("serve.await", s.id, frame_span, all_submitted, t);
        const PoolFrame& f = pool[static_cast<size_t>(s.id % n)];
        const Tensor& reference =
            result.degraded ? f.reference_rgb_only : f.reference;
        const double ms = static_cast<double>(t - t0) * 1e-6;
        phase.best.note_frame(slot * kFramesPerBurst + s.id % kFramesPerBurst,
                              ms);
        ++phase.served;
        ++served;
        phase.mask_agree += mask_agreeing_pixels(result.output, reference);
        phase.mask_pixels += result.output.numel();
        phase.latency_ms.push_back(ms);
        if (!bitwise_equal(result.output, reference)) {
          ++phase.wrong;
        } else {
          phase.in_slo += ms <= kFleetSloMs ? 1 : 0;
          phase.fused += result.degraded ? 0 : 1;
        }
      } catch (const std::exception&) {
        t = now_ns();
        ++phase.failed;
      }
    }
    if (served == kFramesPerBurst) {
      phase.best.note_unit(slot, static_cast<double>(t - t0) * 1e-6,
                           process_cpu_ms() - cpu_ms0);
    }
  }
  phase.seconds = seconds_between(begin, t);
  const rf::serve::FrontDoorStats door1 = server.door->stats();
  phase.layer["door_submitted"] =
      static_cast<double>(door1.submitted - door0.submitted);
  phase.layer["door_spills"] = static_cast<double>(door1.spills - door0.spills);
  phase.layer["door_forced_degraded"] =
      static_cast<double>(door1.forced_degraded - door0.forced_degraded);
  phase.layer["door_shed"] = static_cast<double>(door1.shed - door0.shed);
  add_counter_deltas(phase, counters);
  return phase;
}

/// Everything quantized's `setup_s` pays for.
Model setup_quantized(const std::vector<PoolFrame>& pool) {
  Model net = build_model();
  net->prepare_inference();
  (void)net->predict(pool.front().rgb, pool.front().depth);
  return net;
}

Phase run_quantized(const rf::roadseg::RoadSegNet& net,
                    const std::vector<PoolFrame>& pool, int64_t& next_frame,
                    double seconds, SpanLog& log) {
  Phase phase;
  const Counters counters = Counters::take();
  const int64_t n = static_cast<int64_t>(pool.size());
  const int64_t begin = now_ns();
  const int64_t stop = begin + static_cast<int64_t>(seconds * 1e9);
  int64_t t = begin;
  while (t < stop) {
    const int64_t id = next_frame++;
    const PoolFrame& f = pool[static_cast<size_t>(id % n)];
    const double cpu_ms0 = process_cpu_ms();
    const int64_t t0 = now_ns();
    const Tensor out = net.predict(f.rgb, f.depth);
    t = now_ns();
    const double cpu_ms = process_cpu_ms() - cpu_ms0;
    const int32_t frame_span = log.add("frame", id, -1, t0, t);
    log.add("roadseg.full", id, frame_span, t0, t);
    const double ms = static_cast<double>(t - t0) * 1e-6;
    phase.best.note_frame(id % n, ms);
    phase.best.note_unit(id % n, ms, cpu_ms);
    ++phase.sent;
    ++phase.served;
    phase.latency_ms.push_back(ms);
    phase.in_slo += ms <= kQuantizedSloMs ? 1 : 0;
    ++phase.fused;
    phase.mask_agree += mask_agreeing_pixels(out, f.reference);
    phase.mask_pixels += out.numel();
  }
  phase.seconds = seconds_between(begin, t);
  log.drain_library_spans();  // one slice's spans fit the rings
  add_counter_deltas(phase, counters);
  return phase;
}

// ---------------------------------------------------------------------------
// Host fingerprint

std::string cpu_model() {
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) {
    return "unknown";
  }
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

/// Conv problems that reached the solver registry during `run`, with the
/// solver each one is bound to.
std::vector<std::pair<std::string, std::string>> bound_solvers(
    const std::function<void()>& run) {
  rf::tune::clear_recorded_problems();
  rf::tune::set_problem_recording(true);
  run();
  rf::tune::set_problem_recording(false);
  std::vector<std::pair<std::string, std::string>> out;
  for (const rf::tune::ConvProblem& p : rf::tune::recorded_problems()) {
    const auto binding = rf::tune::bind(p, true);
    out.emplace_back(p.key(), binding->solver != nullptr
                                  ? binding->solver->name()
                                  : "legacy");
  }
  rf::tune::clear_recorded_problems();
  return out;
}

/// "layer -> solver" for the compiled plan's conv steps.
std::vector<std::pair<std::string, std::string>> plan_solvers(
    const rf::roadseg::RoadSegNet& net) {
  std::vector<std::pair<std::string, std::string>> out;
  std::istringstream lines(rf::plan::explain(net, 1, kHeight, kWidth));
  std::string line;
  while (std::getline(lines, line)) {
    const size_t s = line.find("solver=");
    if (s == std::string::npos) {
      continue;
    }
    const std::string solver =
        line.substr(s + 7, line.find(' ', s) - (s + 7));
    // Conv steps name their layer; stage0 and decoder steps name only
    // their step kind, the first word after "[j] ".
    const size_t l = line.find("layer=");
    const size_t k = line.find("] ") + 2;
    const std::string layer =
        l != std::string::npos
            ? line.substr(l + 6, line.find(' ', l) - (l + 6))
            : line.substr(k, line.find(' ', k) - k);
    out.emplace_back(layer, solver);
  }
  return out;
}

void write_fingerprint(
    Json& json,
    const std::vector<std::pair<std::string, std::string>>& graph_layers,
    const std::vector<std::pair<std::string, std::string>>& plan_layers) {
  json.key("host").open('{');
  json.key("cpu_model").str(cpu_model());
  json.field("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  json.key("cpu_tier").str(
      rf::common::tier_name(rf::common::active_tier()));
  json.key("kernel_backend").str(rf::autograd::kernels::backend_name());
  json.key("quant_enabled").boolean(rf::quant::enabled());
  json.key("layer_solvers").open('[');
  for (const auto& [layer, solver] : graph_layers) {
    json.open('{').key("layer").str(layer).key("solver").str(solver).close('}');
  }
  json.close(']');
  json.key("plan_solvers").open('[');
  for (const auto& [layer, solver] : plan_layers) {
    json.open('{').key("layer").str(layer).key("solver").str(solver).close('}');
  }
  json.close(']').close('}');
}

// ---------------------------------------------------------------------------
// Driver

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr,
               "rfbench: %s\nusage: rfbench --workload drive|fleet|quantized "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n",
               what.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage_error("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value == "1";
        if (value != "0" && value != "1") {
          usage_error("--trace takes 0 or 1");
        }
      } else if (flag == "--out") {
        o.out_dir = value;
      } else {
        usage_error("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload != "drive" && o.workload != "fleet" &&
      o.workload != "quantized") {
    usage_error("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) {
    usage_error("--seconds must be in (0, 600]");
  }
  return o;
}

/// The benchmark measures the shipped defaults only.
void refuse_overrides() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ROADFUSION_", 11) == 0) {
      const std::string var(*e, std::strcspn(*e, "="));
      std::fprintf(stderr,
                   "rfbench: %s is set; the benchmark measures the shipped "
                   "defaults, unset every ROADFUSION_* variable\n",
                   var.c_str());
      std::exit(2);
    }
  }
}

/// Runs `setup` once and returns the server, with its duration.
template <typename Setup>
auto timed_setup(Setup&& setup, double& seconds) {
  const int64_t t0 = now_ns();
  auto server = setup();
  seconds = seconds_between(t0, now_ns());
  return server;
}

/// The timed phase's tallies.
struct Measured {
  Phase untraced;  ///< every untraced slice
  Phase traced;    ///< every traced slice (--trace 1)
  std::vector<double> setup_s;  ///< one per set-up repetition
  double serving_rss_mb = 0.0;
};

/// Runs the timed phase as slices of about kSliceSeconds, on one CPU at a
/// time. `run_slice(seconds, log)` serves frames for one slice and returns
/// its tally. Peak memory is taken after the first visit: every input has
/// been served by then (the pools cycle in under a second), and the set-up
/// repetitions that follow would add a second model to it.
///
/// The host's other tenants slow one CPU, or all of them, for seconds at a
/// time. So the process moves to the next allowed CPU after every
/// kSlicesPerVisit slices: a neighbour that loads one CPU for a whole run
/// does not slow every repeat of a work item (see `BestOf`).
///
/// With tracing, half the slices are traced, in the order untraced,
/// traced, traced, untraced, and the library's obs spans are switched on
/// only in traced slices. Interleaving exposes both halves to the same
/// stretches and CPUs, and the mirrored order cancels a steady drift over
/// the run, so neither is mistaken for tracing overhead.
///
/// Before each move, `set_up_again()` runs one set-up repetition on the
/// next CPU, outside the slices' timing, and returns its duration for
/// `setup_s`. Spread over the run, like the repeats of each work item,
/// their fastest is the set-up's cost at a quiet moment.
template <typename RunSlice, typename SetUpAgain>
Measured run_slices(const Options& o, const std::vector<int>& cpus,
                    RunSlice&& run_slice, SetUpAgain&& set_up_again,
                    SpanLog& log) {
  const int visits = std::max(
      1, static_cast<int>(std::lround(
             o.seconds / (kSlicesPerVisit * kSliceSeconds))));
  const int slices = kSlicesPerVisit * visits;
  const double slice_s = o.seconds / static_cast<double>(slices);
  SpanLog off_log(false);
  if (o.trace) {
    rf::obs::reset_tracing();
    rf::obs::set_ring_capacity(size_t{1} << 17);
    log.reserve(size_t{1} << 16);
  }
  Measured m;
  for (int i = 0; i < slices; ++i) {
    const bool traced_slice = o.trace && (i % 4 == 1 || i % 4 == 2);
    rf::obs::set_tracing_enabled(traced_slice);
    Phase slice = run_slice(slice_s, traced_slice ? log : off_log);
    rf::obs::set_tracing_enabled(false);
    merge_phase(traced_slice ? m.traced : m.untraced, slice);
    if (i == kSlicesPerVisit - 1) {
      m.serving_rss_mb = peak_rss_mb();
    }
    if (i % kSlicesPerVisit == kSlicesPerVisit - 1) {
      if (!cpus.empty()) {
        pin_to_cpu(cpus[static_cast<size_t>(i / kSlicesPerVisit + 1) %
                        cpus.size()]);
      }
      m.setup_s.push_back(set_up_again());
    }
  }
  return m;
}

int run(const Options& o) {
  rf::plan::install_hooks();
  const std::vector<int> cpus = allowed_cpus();
  if (!cpus.empty()) {
    pin_to_cpu(cpus.front());
  }
  double first_setup_s = 0.0;
  std::vector<std::pair<std::string, std::string>> graph_layers;
  std::vector<std::pair<std::string, std::string>> plan_layers;
  Measured m;
  SpanLog log(o.trace);
  // One more set-up of a closed loop, torn down at once.
  const auto set_up_again = [](auto&& setup) {
    return [&setup] {
      double s = 0.0;
      (void)timed_setup(setup, s);
      return s;
    };
  };

  if (o.workload == "drive") {
    DriveInputs in = make_drive_inputs(o.seed);
    {
      const auto reference_net = build_model();
      for (DriveFrame& f : in.frames) {
        f.degraded = rf::kitti::check_sensor_health(f.rgb, f.depth).status !=
                     rf::kitti::SensorStatus::kHealthy;
        f.reference = reference_probs(*reference_net, f.rgb, f.depth,
                                      f.degraded ? 0.0f : 1.0f);
      }
    }
    const auto setup = [&] { return setup_drive(in); };
    const Model net = timed_setup(setup, first_setup_s);
    const DriveFrame& f0 = in.frames.front();
    graph_layers = bound_solvers([&] {
      rf::roadseg::StreamFeatureCache cache;
      (void)net->predict_stream(f0.rgb, f0.depth, 1.0f, cache, false);
      (void)net->predict_fused(f0.rgb, f0.depth, 0.0f);
    });
    plan_layers = plan_solvers(*net);
    DriveState st;
    st.prev_sparse = &in.sparse.back();
    st.prev_dense = in.dense_ref.back();
    m = run_slices(
        o, cpus,
        [&](double seconds, SpanLog& slice_log) {
          return run_drive(*net, in, st, seconds, slice_log);
        },
        set_up_again(setup), log);
  } else {
    std::vector<PoolFrame> pool = make_frame_pool(o.seed);
    {
      const auto reference_net = build_model();
      for (PoolFrame& f : pool) {
        f.reference = reference_probs(*reference_net, f.rgb, f.depth, 1.0f);
        if (o.workload == "fleet") {
          f.reference_rgb_only =
              reference_probs(*reference_net, f.rgb, f.depth, 0.0f);
        }
      }
    }
    int64_t next_frame = 0;
    if (o.workload == "fleet") {
      const auto setup = [&] { return setup_fleet(pool); };
      FleetServer server = timed_setup(setup, first_setup_s);
      graph_layers = bound_solvers([&] {
        (void)server.net->predict(pool.front().rgb, pool.front().depth);
      });
      plan_layers = plan_solvers(*server.net);
      // The shard workers keep the CPU of the thread that started them, so
      // each set-up repetition, made on the next CPU, replaces the server.
      const auto replace_server = [&] {
        double s = 0.0;
        FleetServer fresh = timed_setup(setup, s);
        server.door->shutdown();
        server.door.reset();
        server = std::move(fresh);
        // The old workers have stopped and the new ones have not traced.
        log.drain_library_spans();
        return s;
      };
      m = run_slices(
          o, cpus,
          [&](double seconds, SpanLog& slice_log) {
            return run_fleet(server, pool, next_frame, seconds, slice_log);
          },
          replace_server, log);
      server.door->shutdown();
    } else {
      rf::quant::set_enabled(true);  // no scale table: dynamic scales
      const auto setup = [&] { return setup_quantized(pool); };
      const Model net = timed_setup(setup, first_setup_s);
      graph_layers = bound_solvers([&] {
        (void)net->predict(pool.front().rgb, pool.front().depth);
      });
      plan_layers = plan_solvers(*net);
      m = run_slices(
          o, cpus,
          [&](double seconds, SpanLog& slice_log) {
            return run_quantized(*net, pool, next_frame, seconds, slice_log);
          },
          set_up_again(setup), log);
    }
  }
  // Every recording thread is idle now (fleet's workers have stopped).
  bool dump_ok = true;
  if (o.trace) {
    log.drain_library_spans();
    dump_ok = write_span_dump(o.out_dir, log);
  }

  Json json;
  json.open('{');
  json.key("workload").str(o.workload);
  json.field("seed", static_cast<double>(o.seed));
  json.key("trace").boolean(o.trace);
  json.key("setup_s").open('[');
  for (double s : m.setup_s) {
    json.num(s);
  }
  json.close(']');
  json.field("first_setup_s", first_setup_s);
  json.field("peak_rss_mb", m.serving_rss_mb);
  json.field("slo_ms", o.workload == "fleet"   ? kFleetSloMs
                       : o.workload == "drive" ? kDriveSloMs
                                               : kQuantizedSloMs);
  // Frame ids repeat their best-of slot with this period.
  json.field("frame_cycle",
             static_cast<double>(o.workload == "fleet"
                                     ? kFleetBurstCycle * kFramesPerBurst
                                 : o.workload == "drive"
                                     ? kDriveScans * kLidarPeriod
                                     : kFramePool));
  write_phase(json, "untraced", m.untraced);
  if (o.trace) {
    write_phase(json, "traced", m.traced);
    json.field("obs_dropped_events",
               static_cast<double>(log.library_dropped()));
    json.key("span_dump_ok").boolean(dump_ok);
  }
  write_fingerprint(json, graph_layers, plan_layers);
  json.close('}');
  std::printf("%s\n", json.text().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse_options(argc, argv);
  perfbench::refuse_overrides();
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rfbench: %s\n", e.what());
    return 1;
  }
}
