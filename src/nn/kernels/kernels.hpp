// Runtime-dispatched NN kernels: conv2d forward/backward, a batched GEMM
// (y = x W^T + b over a [batch x in] block of samples; batch 1 is the
// matrix-vector product Linear executes) with its backward, a fused
// bias+activation map and the Adam update. Call sites (Conv2d, Linear,
// Relu, rl::Mlp, nn::Adam, and through them the exit-graph evaluation path
// and the DDPG search) go through these entry points; the backend — scalar
// reference or AVX2 — is chosen per dispatch.hpp and every call except
// adam_update (no MACs) bumps the counters (counters.hpp) once.
//
// Numeric contract (docs/kernels.md): every backend is bitwise identical
// to the scalar reference, which in turn is bitwise identical to the
// historical per-layer, per-sample loops — so no output of the library
// depends on the host CPU or on the batch size. The AVX2 lanes carry
// independent outputs in the scalar accumulation order, and that TU is
// built without FMA contraction.
#ifndef IMX_NN_KERNELS_KERNELS_HPP
#define IMX_NN_KERNELS_KERNELS_HPP

#include <cstdint>

#include "nn/kernels/counters.hpp"
#include "nn/kernels/dispatch.hpp"

namespace imx::nn::kernels {

/// Geometry of a stride-1, square-kernel, zero-padded 2-D convolution
/// (the only convolution this project uses). Activations are CHW, weights
/// [out, in, k, k] — Tensor's layouts.
struct Conv2dGeom {
    int in_channels = 0;
    int out_channels = 0;
    int in_h = 0;
    int in_w = 0;
    int kernel = 0;
    int padding = 0;

    [[nodiscard]] int out_h() const { return in_h + 2 * padding - kernel + 1; }
    [[nodiscard]] int out_w() const { return in_w + 2 * padding - kernel + 1; }
    [[nodiscard]] std::int64_t macs() const {
        return static_cast<std::int64_t>(out_channels) * out_h() * out_w() *
               in_channels * kernel * kernel;
    }
};

/// Activation applied by bias_act.
enum class Act {
    kIdentity,
    kRelu,
};

/// output[oc,oy,ox] = bias[oc] + sum_{ic,ky,kx} weight[oc,ic,ky,kx] *
/// input[ic, oy+ky-p, ox+kx-p] (out-of-range taps read as zero).
/// `output` must hold out_channels*out_h*out_w floats; it is overwritten.
void conv2d_forward(const Conv2dGeom& geom, const float* input,
                    const float* weight, const float* bias, float* output);

/// Accumulates (+=) into grad_weight/grad_bias (the optimizer contract) and
/// overwrites grad_input. `input` is the forward activation.
void conv2d_backward(const Conv2dGeom& geom, const float* input,
                     const float* weight, const float* grad_output,
                     float* grad_input, float* grad_weight, float* grad_bias);

/// y[b,r] = bias[r] + sum_c weight[r,c] * x[b,c] for each of `batch`
/// row-major samples: x is [batch, in], y is [batch, out] (overwritten),
/// weight is [out, in]. Every element starts at its bias and adds the
/// products for c = 0..in-1, so the result does not depend on `batch`.
void gemm_batch(int batch, int out_features, int in_features,
                const float* weight, const float* x, const float* bias,
                float* y);

/// Backward of gemm_batch, each output computed only when its pointer is
/// non-null:
///   * grad_x[b,c] = sum_r g[b,r] * weight[r,c], r ascending (overwritten);
///   * grad_weight[r,c] += g[b,r] * x[b,c] and grad_bias[r] += g[b,r],
///     b ascending (grad_weight and grad_bias come as a pair).
/// A zero gradient g[b,r] (either sign) adds nothing to grad_x or
/// grad_weight — not even the NaN 0 * inf would make — but is still added
/// to grad_bias. Each sample's contribution equals gemm_backward's.
void gemm_batch_backward(int batch, int out_features, int in_features,
                         const float* weight, const float* x,
                         const float* grad_y, float* grad_x,
                         float* grad_weight, float* grad_bias);

/// The single-sample product Linear::forward executes: gemm_batch with
/// batch 1.
inline void gemm(int out_features, int in_features, const float* weight,
                 const float* x, const float* bias, float* y) {
    gemm_batch(1, out_features, in_features, weight, x, bias, y);
}

/// Single-sample backward with every output: gemm_batch_backward with
/// batch 1.
inline void gemm_backward(int out_features, int in_features,
                          const float* weight, const float* x,
                          const float* grad_y, float* grad_x,
                          float* grad_weight, float* grad_bias) {
    gemm_batch_backward(1, out_features, in_features, weight, x, grad_y,
                        grad_x, grad_weight, grad_bias);
}

/// y[i] = act(x[i] + bias); pass bias = 0 for a plain activation map.
/// In-place (y == x) is allowed.
void bias_act(std::int64_t n, const float* x, float bias, Act act, float* y);

/// Hyper-parameters of one Adam step; bias_correction{1,2} = 1 - beta^t.
struct AdamStep {
    float lr = 0.0F;
    float beta1 = 0.0F;
    float beta2 = 0.0F;
    float eps = 0.0F;
    float bias_correction1 = 1.0F;
    float bias_correction2 = 1.0F;
    float grad_scale = 1.0F;  ///< applied to every gradient first
};

/// One Adam update of n parameters, element-wise and in this order:
///   g = grad * grad_scale
///   m = beta1 * m + (1 - beta1) * g
///   v = beta2 * v + ((1 - beta2) * g) * g
///   p -= (lr * (m / bc1)) / (sqrt(v / bc2) + eps)
void adam_update(std::int64_t n, const AdamStep& step, float* param,
                 const float* grad, float* m, float* v);

namespace detail {
// Backend implementations (kernels_scalar.cpp / kernels_avx2.cpp). The
// avx2_* symbols always link; when the TU is built without AVX2 codegen
// they hard-fail via contracts (dispatch never routes there — see
// avx2_kernels_compiled()). conv2d_backward has only the scalar one.
void scalar_conv2d_forward(const Conv2dGeom& g, const float* in,
                           const float* w, const float* b, float* out);
void scalar_conv2d_backward(const Conv2dGeom& g, const float* in,
                            const float* w, const float* gout, float* gin,
                            float* gw, float* gb);
void scalar_gemm_batch(int batch, int out_f, int in_f, const float* w,
                       const float* x, const float* b, float* y);
void scalar_gemm_batch_backward(int batch, int out_f, int in_f,
                                const float* w, const float* x,
                                const float* gy, float* gx, float* gw,
                                float* gb);
void scalar_bias_act(std::int64_t n, const float* x, float bias, Act act,
                     float* y);
void scalar_adam_update(std::int64_t n, const AdamStep& s, float* p,
                        const float* g, float* m, float* v);

void avx2_conv2d_forward(const Conv2dGeom& g, const float* in, const float* w,
                         const float* b, float* out);
void avx2_gemm_batch(int batch, int out_f, int in_f, const float* w,
                     const float* x, const float* b, float* y);
void avx2_gemm_batch_backward(int batch, int out_f, int in_f, const float* w,
                              const float* x, const float* gy, float* gx,
                              float* gw, float* gb);
void avx2_bias_act(std::int64_t n, const float* x, float bias, Act act,
                   float* y);
void avx2_adam_update(std::int64_t n, const AdamStep& s, float* p,
                      const float* g, float* m, float* v);
}  // namespace detail

}  // namespace imx::nn::kernels

#endif  // IMX_NN_KERNELS_KERNELS_HPP
