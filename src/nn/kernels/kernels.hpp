// Runtime-dispatched NN kernels: conv2d forward/backward, GEMV-style GEMM
// (the single-sample matrix-vector product Linear executes), and a fused
// bias+activation map. Call sites (Conv2d, Linear, Relu, and through them
// the exit-graph evaluation path) go through these entry points; the
// backend — scalar reference or AVX2 — is chosen per dispatch.hpp and every
// call bumps the counters (counters.hpp).
//
// Numeric contract (docs/kernels.md): every backend is bitwise identical
// to the scalar reference, which in turn is bitwise identical to the
// historical per-layer loops — so no output of the library depends on the
// host CPU. The AVX2 lanes carry independent outputs in the scalar
// accumulation order, and that TU is built without FMA contraction.
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

/// y[r] = bias[r] + sum_c weight[r*in+c] * x[c] — the single-sample GEMM
/// (M=out, K=in, N=1) Linear::forward executes. `y` is overwritten.
void gemm(int out_features, int in_features, const float* weight,
          const float* x, const float* bias, float* y);

/// Backward of gemm: grad_weight[r,c] += g[r]*x[c], grad_bias[r] += g[r],
/// grad_x[c] = sum_r g[r]*weight[r,c]. `grad_x` is overwritten.
void gemm_backward(int out_features, int in_features, const float* weight,
                   const float* x, const float* grad_y, float* grad_x,
                   float* grad_weight, float* grad_bias);

/// y[i] = act(x[i] + bias); pass bias = 0 for a plain activation map.
/// In-place (y == x) is allowed.
void bias_act(std::int64_t n, const float* x, float bias, Act act, float* y);

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
void scalar_gemm(int out_f, int in_f, const float* w, const float* x,
                 const float* b, float* y);
void scalar_gemm_backward(int out_f, int in_f, const float* w, const float* x,
                          const float* gy, float* gx, float* gw, float* gb);
void scalar_bias_act(std::int64_t n, const float* x, float bias, Act act,
                     float* y);

void avx2_conv2d_forward(const Conv2dGeom& g, const float* in, const float* w,
                         const float* b, float* out);
void avx2_gemm(int out_f, int in_f, const float* w, const float* x,
               const float* b, float* y);
void avx2_gemm_backward(int out_f, int in_f, const float* w, const float* x,
                        const float* gy, float* gx, float* gw, float* gb);
void avx2_bias_act(std::int64_t n, const float* x, float bias, Act act,
                   float* y);
}  // namespace detail

}  // namespace imx::nn::kernels

#endif  // IMX_NN_KERNELS_KERNELS_HPP
