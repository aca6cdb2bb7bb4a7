// Layer interface: single-sample forward/backward with cached activations.
//
// The multi-exit CNN trains through it one sample at a time, accumulating
// gradients across per-sample backward calls; this matches the MCU
// deployment model (inference is always batch-1) and keeps every layer
// readable. The DDPG actor and critic (rl::Mlp) do not use it: they run a
// whole minibatch per call through the batched kernels.
#ifndef IMX_NN_LAYER_HPP
#define IMX_NN_LAYER_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace imx::nn {

/// Abstract differentiable layer.
class Layer {
public:
    virtual ~Layer() = default;
    Layer() = default;
    Layer(const Layer&) = delete;
    Layer& operator=(const Layer&) = delete;

    /// Compute the output for one sample; caches what backward() needs.
    virtual Tensor forward(const Tensor& input) = 0;

    /// Propagate the loss gradient; accumulates parameter gradients and
    /// returns the gradient w.r.t. the forward input. Must be called after
    /// forward() on the same sample.
    virtual Tensor backward(const Tensor& grad_output) = 0;

    /// Output shape for a given input shape (no computation).
    [[nodiscard]] virtual Shape output_shape(
        const Shape& input_shape) const = 0;

    /// Multiply-accumulate count for one sample of the given input shape.
    [[nodiscard]] virtual std::int64_t macs(const Shape& input_shape) const = 0;

    /// Trainable parameter count (weights + biases).
    [[nodiscard]] virtual std::int64_t param_count() const { return 0; }

    /// Trainable parameters / matching gradient buffers (empty by default).
    virtual std::vector<Tensor*> parameters() { return {}; }
    virtual std::vector<Tensor*> gradients() { return {}; }

    /// Reset accumulated gradients to zero.
    void zero_grad() {
        for (Tensor* g : gradients()) g->fill(0.0F);
    }

    [[nodiscard]] virtual std::string name() const = 0;

    /// Deep copy including weights (used to snapshot target networks and to
    /// fork compressed variants from a trained float model).
    [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace imx::nn

#endif  // IMX_NN_LAYER_HPP
