// SegmentationModel: the common interface of every two-modality road
// segmentation network in this repository — the middle-fusion RoadSegNet
// (the paper's subject) and the early/late-fusion baselines from the
// paper's background section. The trainer and evaluator operate on this
// interface, so every fusion family can be trained and scored through one
// pipeline.
#pragma once

#include <utility>
#include <vector>

#include "nn/layers.hpp"

namespace roadfusion::roadseg {

/// Everything a forward pass produces.
struct ForwardResult {
  autograd::Variable logits;  ///< (N, 1, H, W) road logits
  /// Per-stage (rgb features, matched depth features) — the stacks summed
  /// at each fusion point. Empty for architectures without middle-fusion
  /// points (early / late fusion).
  std::vector<std::pair<autograd::Variable, autograd::Variable>> fusion_pairs;
  /// AWN per-sample weights (N, 1); defined only for WeightedSharing.
  autograd::Variable awn_weight;
};

/// Cross-frame depth-feature cache for streaming inference. A stream
/// session owns one cache per model; when the depth input is bitwise
/// unchanged from the frame that filled it (LiDAR refreshes slower than
/// the camera), `infer_logits_stream` skips the depth encoder and fuses
/// the cached matched features instead — bit-identical to the full pass.
/// For a RoadSegNet the cache holds the inference plan's persistent slots
/// (DESIGN.md §16): one tensor per stage, in the layout of the plan that
/// filled them. Tensors live on the heap (not a workspace arena), so the
/// cache survives across predict calls; refills reuse the existing
/// buffers when shapes match, keeping steady state zero-alloc.
struct StreamFeatureCache {
  bool valid = false;
  /// Per-stage matched depth features (raw d_i for the summation schemes,
  /// post-filter features for AllFilter_U, unscaled d_i at
  /// WeightedSharing's AWN stage).
  std::vector<tensor::Tensor> slots;
  int64_t hits = 0;
  int64_t misses = 0;

  void invalidate() { valid = false; }
};

/// Abstract two-input segmentation network.
class SegmentationModel : public nn::Module {
 public:
  /// Forward pass. rgb: (N, 3, H, W); depth: (N, C_d, H, W).
  virtual ForwardResult forward(const autograd::Variable& rgb,
                                const autograd::Variable& depth) const = 0;

  /// Forward pass with the depth contribution scaled by `fusion_weight`
  /// in [0, 1] — the serving-time analogue of the paper's AWN scalar
  /// fusion weight. Contract: fusion_weight == 1 is exactly `forward`;
  /// fusion_weight == 0 is the RGB-only degraded mode and MUST NOT read
  /// `depth`'s values (the caller may pass NaN-poisoned data from a dead
  /// sensor). The default neutralizes the depth input itself (zeros at
  /// weight 0, a scaled copy otherwise); networks with explicit fusion
  /// points override this to weight each point instead.
  virtual ForwardResult forward_fused(const autograd::Variable& rgb,
                                      const autograd::Variable& depth,
                                      float fusion_weight) const;

  /// MAC / parameter budget for the given input size.
  virtual nn::Complexity complexity(int64_t height, int64_t width) const = 0;

  /// True when this model implements the raw inference path
  /// (`infer_logits`) and is ready to serve it (eval mode). Models without
  /// a raw path keep the default `false` and `predict` runs the Variable
  /// graph.
  virtual bool supports_raw_inference() const { return false; }

  /// Raw no-graph logits (N, 1, H, W) for NCHW inputs, or (1, 1, H, W)
  /// for one CHW sample — the zero-allocation steady-state path
  /// (DESIGN.md §11, §16). Must be bit-identical to
  /// `forward_fused(...).logits`. Only called when
  /// `supports_raw_inference()` returns true.
  virtual tensor::Tensor infer_logits(const tensor::Tensor& rgb,
                                      const tensor::Tensor& depth,
                                      float fusion_weight) const;

  /// Streaming variant of `infer_logits`. When `depth_unchanged` is true
  /// and `cache` holds features for this geometry, the depth encoder is
  /// skipped and cached matched features are fused instead; otherwise the
  /// full pass runs and (where the scheme allows) repopulates the cache.
  /// Contract: the returned logits are bit-identical to
  /// `infer_logits(rgb, depth, fusion_weight)` in every case — reuse is
  /// purely a compute saving. The default ignores the cache.
  virtual tensor::Tensor infer_logits_stream(const tensor::Tensor& rgb,
                                             const tensor::Tensor& depth,
                                             float fusion_weight,
                                             StreamFeatureCache& cache,
                                             bool depth_unchanged) const;

  /// Convenience inference: accepts CHW or NCHW tensors and returns road
  /// probabilities of matching rank. Call set_training(false) first.
  tensor::Tensor predict(const tensor::Tensor& rgb,
                         const tensor::Tensor& depth) const;

  /// `predict` through `forward_fused`; fusion_weight = 0 serves RGB-only
  /// without reading depth values (safe for corrupt depth tensors).
  tensor::Tensor predict_fused(const tensor::Tensor& rgb,
                               const tensor::Tensor& depth,
                               float fusion_weight) const;

  /// `predict_fused` through `infer_logits_stream`: same CHW/NCHW
  /// handling and probabilities, but frame-to-frame depth features flow
  /// through `cache`. Falls back to the ordinary path (invalidating the
  /// cache) when the raw inference path is unavailable.
  tensor::Tensor predict_stream(const tensor::Tensor& rgb,
                                const tensor::Tensor& depth,
                                float fusion_weight,
                                StreamFeatureCache& cache,
                                bool depth_unchanged) const;
};

}  // namespace roadfusion::roadseg
