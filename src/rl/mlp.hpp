// Small fully-connected network used by the DDPG actor and critic: dense
// layers with ReLU between them and an optional output activation. It runs
// a whole minibatch per call through the batched kernels, over activation
// and gradient buffers it owns and reuses; a single sample is the batch-1
// case of the same path.
#ifndef IMX_RL_MLP_HPP
#define IMX_RL_MLP_HPP

#include <vector>

#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace imx::rl {

enum class OutputActivation { kNone, kSigmoid };

/// Which gradients Mlp::backward produces.
enum class Grads {
    kParams,  ///< accumulate parameter gradients only
    kInput,   ///< the input gradient only; parameter gradients untouched
    kBoth,
};

class Mlp {
public:
    /// dims = {in, hidden..., out}; hidden layers use ReLU.
    Mlp(const std::vector<int>& dims, OutputActivation out_act, util::Rng& rng);

    [[nodiscard]] int in_dim() const;
    [[nodiscard]] int out_dim() const;

    /// Forward pass over `batch` row-major samples, input [batch x in_dim()].
    /// Returns the [batch x out_dim()] output, owned by the Mlp and valid
    /// until the next forward(); keeps the activations backward() needs.
    const float* forward(int batch, const float* input);

    /// Backward through the last forward() batch from the [batch x
    /// out_dim()] loss gradient. Parameter gradients accumulate over the
    /// samples in order. Returns the [batch x in_dim()] input gradient (the
    /// DDPG actor update needs dQ/daction from the critic), valid until the
    /// next backward(), or nullptr for Grads::kParams.
    const float* backward(const float* grad_output, Grads grads);

    /// One sample: forward(1, ...) and backward(..., Grads::kBoth).
    nn::Tensor forward(const nn::Tensor& input);
    nn::Tensor backward(const nn::Tensor& grad_output);

    std::vector<nn::Tensor*> parameters();
    std::vector<nn::Tensor*> gradients();
    void zero_grad();

    /// Hard copy of another MLP's weights (target-network initialization).
    void copy_weights_from(Mlp& source);

    /// Polyak averaging:
    /// theta_target <- tau * theta + (1 - tau) * theta_target.
    void soft_update_from(Mlp& source, float tau);

private:
    struct Dense {
        nn::Tensor weight;  // [out, in]
        nn::Tensor bias;    // [out]
        nn::Tensor grad_weight;
        nn::Tensor grad_bias;

        [[nodiscard]] int in() const { return weight.dim(1); }
        [[nodiscard]] int out() const { return weight.dim(0); }
    };

    std::vector<Dense> layers_;
    OutputActivation out_act_;
    int batch_ = 0;
    /// acts_[0] is the input, acts_[i + 1] layer i's activated output.
    std::vector<std::vector<float>> acts_;
    std::vector<float> grad_out_;  ///< gradient w.r.t. a layer's output
    std::vector<float> grad_in_;   ///< ... and w.r.t. its input
};

}  // namespace imx::rl

#endif  // IMX_RL_MLP_HPP
