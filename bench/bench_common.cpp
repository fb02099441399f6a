#include "bench_common.hpp"

#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/cpu.hpp"
#include "common/env.hpp"
#include "common/logging.hpp"

namespace roadfusion::bench {

BenchSettings settings() {
  BenchSettings config;
  config.full = env_flag("ROADFUSION_BENCH_FULL");
  config.cache_dir = env_string("ROADFUSION_CACHE_DIR", "bench_cache");
  config.out_dir = env_string("ROADFUSION_OUT_DIR", "bench_output");

  // Dataset: quick mode caps each category; full mode uses the KITTI
  // split sizes (289 train / 290 test).
  config.train_data.max_per_category = config.full ? 0 : 30;
  config.test_data.max_per_category = config.full ? 0 : 25;

  config.train.epochs = config.full ? 12 : 8;
  config.train.batch_size = 4;
  // The paper's alpha = 0.3 was tuned for its OpenCV-Canny-based FD term;
  // our raw-Sobel FD term has larger magnitudes, so the equivalent weight
  // is smaller (see bench_ablation_alpha and EXPERIMENTS.md). Overridable
  // via ROADFUSION_ALPHA_PERCENT (e.g. =30 to run the paper's literal value).
  config.alpha_fd = static_cast<float>(
      env_int("ROADFUSION_ALPHA_PERCENT", 10)) / 100.0f;

  config.net.stage_channels = {8, 12, 16, 24, 32};
  return config;
}

roadseg::RoadSegNet trained_model(const BenchSettings& config,
                                  FusionScheme scheme, float alpha_fd) {
  kitti::RoadDataset train_set(config.train_data, kitti::Split::kTrain);
  roadseg::RoadSegConfig net_config = config.net;
  net_config.scheme = scheme;
  // All schemes share one init seed: the encoders consume identical draws
  // across architectures, so scheme comparisons are not confounded by
  // initialization luck (important at the quick-mode training scale).
  tensor::Rng rng(42);
  roadseg::RoadSegNet net(net_config, rng);
  train::TrainConfig train_config = config.train;
  train_config.alpha_fd = alpha_fd;
  train::train_or_load(net, train_set, train_config, config.cache_dir);
  return net;
}

eval::EvaluationResult evaluate_model(const BenchSettings& config,
                                      roadseg::RoadSegNet& net) {
  kitti::RoadDataset test_set(config.test_data, kitti::Split::kTest);
  return eval::evaluate(net, test_set, config.eval);
}

void print_header(const std::string& artifact, const std::string& summary) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", artifact.c_str());
  std::printf("%s\n", summary.c_str());
  std::printf("==============================================================\n");
}

void print_row(const std::vector<std::string>& cells, int width) {
  for (const std::string& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

std::string fmt(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

namespace {

/// RFC 8259 string escaping: quotes, backslashes, the common short
/// escapes, and every remaining control character as \u00XX.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char raw : text) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (c < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += raw;
        }
    }
  }
  return out;
}

}  // namespace

void JsonWriter::prefix(const std::string& key) {
  if (needs_comma_) {
    out_ += ",";
  }
  if (!key.empty()) {
    out_ += '"';
    out_ += json_escape(key);
    out_ += "\":";
  }
}

JsonWriter& JsonWriter::begin_object(const std::string& key) {
  prefix(key);
  out_ += "{";
  needs_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += "}";
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array(const std::string& key) {
  prefix(key);
  out_ += "[";
  needs_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += "]";
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& key, double value,
                              int decimals) {
  prefix(key);
  out_ += fmt(value, decimals);
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& key, int64_t value) {
  prefix(key);
  out_ += std::to_string(value);
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& key,
                              const std::string& value) {
  prefix(key);
  out_ += '"';
  out_ += json_escape(value);
  out_ += '"';
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& key, bool value) {
  prefix(key);
  out_ += value ? "true" : "false";
  needs_comma_ = true;
  return *this;
}

std::string JsonWriter::str() const { return out_; }

namespace {

/// CPUID brand string (leaves 0x80000002..4), "unknown" off x86.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) {
    return "unknown";
  }
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  const std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

}  // namespace

void host_fingerprint(JsonWriter& json) {
  json.field("cpu_model", cpu_model())
      .field("hardware_concurrency",
             static_cast<int64_t>(std::thread::hardware_concurrency()))
      .field("cpu_tier",
             std::string(common::tier_name(common::active_tier())));
}

}  // namespace roadfusion::bench
