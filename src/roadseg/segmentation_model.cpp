#include "roadseg/segmentation_model.hpp"

#include <cmath>
#include <optional>

#include "autograd/ops.hpp"
#include "autograd/variable.hpp"
#include "common/check.hpp"
#include "tensor/workspace.hpp"

namespace roadfusion::roadseg {

ForwardResult SegmentationModel::forward_fused(const autograd::Variable& rgb,
                                               const autograd::Variable& depth,
                                               float fusion_weight) const {
  ROADFUSION_CHECK(fusion_weight >= 0.0f && fusion_weight <= 1.0f,
                   "fusion_weight must be in [0, 1], got " << fusion_weight);
  if (fusion_weight == 1.0f) {
    return forward(rgb, depth);
  }
  if (fusion_weight == 0.0f) {
    // Never touch the depth values: a zero tensor of the same geometry is
    // the NaN-safe neutral element for every fusion family (summation,
    // concatenation, decision averaging all see "no depth evidence").
    return forward(rgb, autograd::Variable::constant(
                            tensor::Tensor(depth.shape())));
  }
  return forward(rgb, autograd::scale(depth, fusion_weight));
}

tensor::Tensor SegmentationModel::infer_logits(const tensor::Tensor& rgb,
                                               const tensor::Tensor& depth,
                                               float fusion_weight) const {
  (void)rgb;
  (void)depth;
  (void)fusion_weight;
  ROADFUSION_CHECK(false,
                   "infer_logits called on a model without a raw inference "
                   "path (supports_raw_inference() is false)");
}

namespace {

/// The arena of raw-path predicts made without a caller-installed one.
/// One per thread, shared by every serving mode (predict, RGB-only,
/// stream): the first predict on a thread populates it, every later one
/// is allocation-free.
tensor::Workspace& thread_arena() {
  thread_local tensor::Workspace arena;
  return arena;
}

/// Raw-path predict: `infer` maps (rgb, depth), CHW or NCHW, to logits
/// inside the caller's workspace arena, or this thread's one.
template <typename InferFn>
tensor::Tensor raw_predict(const tensor::Tensor& rgb,
                           const tensor::Tensor& depth, InferFn&& infer) {
  const autograd::InferenceModeGuard no_grad;
  std::optional<tensor::WorkspaceScope> scope;
  if (tensor::Workspace::current() == nullptr) {
    scope.emplace(thread_arena());
  }
  tensor::Tensor out = infer(rgb, depth);
  // Sigmoid in place, with the numerically-stable two-branch formula of
  // autograd::sigmoid — bit-identical to the graph path.
  float* po = out.raw();
  const int64_t n = out.numel();
  for (int64_t i = 0; i < n; ++i) {
    const float v = po[i];
    po[i] = v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                      : std::exp(v) / (1.0f + std::exp(v));
  }
  if (rgb.shape().rank() == 3) {
    out = std::move(out).reshaped(
        tensor::Shape::chw(1, rgb.shape().dim(1), rgb.shape().dim(2)));
  }
  return out;
}

}  // namespace

tensor::Tensor SegmentationModel::predict(const tensor::Tensor& rgb,
                                          const tensor::Tensor& depth) const {
  return predict_fused(rgb, depth, 1.0f);
}

tensor::Tensor SegmentationModel::predict_fused(const tensor::Tensor& rgb,
                                                const tensor::Tensor& depth,
                                                float fusion_weight) const {
  if (supports_raw_inference()) {
    return raw_predict(rgb, depth, [&](const tensor::Tensor& r,
                                       const tensor::Tensor& d) {
      return infer_logits(r, d, fusion_weight);
    });
  }
  // Models without a raw path (and training-mode nets) run the graph;
  // with GradMode off it skips backward closures and the im2col cache.
  const autograd::InferenceModeGuard no_grad;
  const bool chw = rgb.shape().rank() == 3;
  ROADFUSION_CHECK(!chw || depth.shape().rank() == 3,
                   "predict: rgb is CHW but depth is " << depth.shape().str());
  const auto nchw = [chw](const tensor::Tensor& t) {
    return autograd::Variable::constant(
        chw ? t.reshaped(tensor::Shape::nchw(1, t.shape().dim(0),
                                             t.shape().dim(1),
                                             t.shape().dim(2)))
            : t);
  };
  const tensor::Tensor out =
      autograd::sigmoid(forward_fused(nchw(rgb), nchw(depth), fusion_weight)
                            .logits)
          .value();
  return chw ? out.reshaped(tensor::Shape::chw(1, rgb.shape().dim(1),
                                               rgb.shape().dim(2)))
             : out;
}

tensor::Tensor SegmentationModel::infer_logits_stream(
    const tensor::Tensor& rgb, const tensor::Tensor& depth,
    float fusion_weight, StreamFeatureCache& cache,
    bool depth_unchanged) const {
  (void)depth_unchanged;
  cache.invalidate();
  ++cache.misses;
  return infer_logits(rgb, depth, fusion_weight);
}

tensor::Tensor SegmentationModel::predict_stream(const tensor::Tensor& rgb,
                                                 const tensor::Tensor& depth,
                                                 float fusion_weight,
                                                 StreamFeatureCache& cache,
                                                 bool depth_unchanged) const {
  if (!supports_raw_inference()) {
    cache.invalidate();
    return predict_fused(rgb, depth, fusion_weight);
  }
  return raw_predict(rgb, depth, [&](const tensor::Tensor& r,
                                     const tensor::Tensor& d) {
    return infer_logits_stream(r, d, fusion_weight, cache, depth_unchanged);
  });
}

}  // namespace roadfusion::roadseg
