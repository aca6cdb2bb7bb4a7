#include "rl/mlp.hpp"

#include <cmath>
#include <utility>

#include "nn/kernels/kernels.hpp"
#include "util/contracts.hpp"

namespace imx::rl {

namespace {

/// Logistic sigmoid in the overflow-free form for each sign.
float sigmoid(float x) {
    return x >= 0.0F ? 1.0F / (1.0F + std::exp(-x))
                     : std::exp(x) / (1.0F + std::exp(x));
}

}  // namespace

Mlp::Mlp(const std::vector<int>& dims, OutputActivation out_act,
         util::Rng& rng)
    : out_act_(out_act) {
    IMX_EXPECTS(dims.size() >= 2);
    for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
        const int in = dims[i];
        const int out = dims[i + 1];
        IMX_EXPECTS(in > 0 && out > 0);
        Dense layer;
        layer.weight = nn::Tensor::kaiming_uniform({out, in}, in, rng);
        layer.bias = nn::Tensor::zeros({out});
        layer.grad_weight = nn::Tensor::zeros({out, in});
        layer.grad_bias = nn::Tensor::zeros({out});
        layers_.push_back(std::move(layer));
    }
    acts_.resize(layers_.size() + 1);
}

int Mlp::in_dim() const { return layers_.front().in(); }

int Mlp::out_dim() const { return layers_.back().out(); }

const float* Mlp::forward(int batch, const float* input) {
    IMX_EXPECTS(batch > 0);
    batch_ = batch;
    const auto rows = static_cast<std::size_t>(batch);
    acts_[0].assign(input,
                    input + rows * static_cast<std::size_t>(in_dim()));
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        Dense& layer = layers_[i];
        std::vector<float>& y = acts_[i + 1];
        y.resize(rows * static_cast<std::size_t>(layer.out()));
        nn::kernels::gemm_batch(batch, layer.out(), layer.in(),
                                layer.weight.data(), acts_[i].data(),
                                layer.bias.data(), y.data());
        const auto n = static_cast<std::int64_t>(y.size());
        if (i + 1 < layers_.size()) {
            nn::kernels::bias_act(n, y.data(), 0.0F, nn::kernels::Act::kRelu,
                                  y.data());
        } else if (out_act_ == OutputActivation::kSigmoid) {
            for (float& v : y) v = sigmoid(v);
        }
    }
    return acts_.back().data();
}

const float* Mlp::backward(const float* grad_output, Grads grads) {
    IMX_EXPECTS(batch_ > 0);
    const auto rows = static_cast<std::size_t>(batch_);
    const std::vector<float>& out = acts_.back();
    grad_out_.assign(grad_output, grad_output + out.size());
    if (out_act_ == OutputActivation::kSigmoid) {
        for (std::size_t j = 0; j < out.size(); ++j) {
            grad_out_[j] *= out[j] * (1.0F - out[j]);
        }
    }
    const bool params = grads != Grads::kInput;
    for (std::size_t i = layers_.size() - 1;; --i) {
        Dense& layer = layers_[i];
        const bool input_grad = i > 0 || grads != Grads::kParams;
        grad_in_.resize(rows * static_cast<std::size_t>(layer.in()));
        nn::kernels::gemm_batch_backward(
            batch_, layer.out(), layer.in(), layer.weight.data(),
            acts_[i].data(), grad_out_.data(),
            input_grad ? grad_in_.data() : nullptr,
            params ? layer.grad_weight.data() : nullptr,
            params ? layer.grad_bias.data() : nullptr);
        if (i == 0) return input_grad ? grad_in_.data() : nullptr;
        // ReLU between layers i-1 and i, masked by its stored output:
        // y > 0 exactly when the pre-activation was > 0 (NaN included).
        const std::vector<float>& y = acts_[i];
        for (std::size_t j = 0; j < y.size(); ++j) {
            grad_in_[j] = y[j] > 0.0F ? grad_in_[j] : 0.0F;
        }
        std::swap(grad_out_, grad_in_);
    }
}

nn::Tensor Mlp::forward(const nn::Tensor& input) {
    IMX_EXPECTS(input.numel() == in_dim());
    const float* y = forward(1, input.data());
    return nn::Tensor({out_dim()}, std::vector<float>(y, y + out_dim()));
}

nn::Tensor Mlp::backward(const nn::Tensor& grad_output) {
    IMX_EXPECTS(batch_ == 1 && grad_output.numel() == out_dim());
    const float* g = backward(grad_output.data(), Grads::kBoth);
    return nn::Tensor({in_dim()}, std::vector<float>(g, g + in_dim()));
}

std::vector<nn::Tensor*> Mlp::parameters() {
    std::vector<nn::Tensor*> out;
    for (Dense& layer : layers_) {
        out.push_back(&layer.weight);
        out.push_back(&layer.bias);
    }
    return out;
}

std::vector<nn::Tensor*> Mlp::gradients() {
    std::vector<nn::Tensor*> out;
    for (Dense& layer : layers_) {
        out.push_back(&layer.grad_weight);
        out.push_back(&layer.grad_bias);
    }
    return out;
}

void Mlp::zero_grad() {
    for (nn::Tensor* g : gradients()) g->fill(0.0F);
}

void Mlp::copy_weights_from(Mlp& source) {
    auto dst = parameters();
    auto src = source.parameters();
    IMX_EXPECTS(dst.size() == src.size());
    for (std::size_t i = 0; i < dst.size(); ++i) {
        IMX_EXPECTS(dst[i]->numel() == src[i]->numel());
        *dst[i] = *src[i];
    }
}

void Mlp::soft_update_from(Mlp& source, float tau) {
    IMX_EXPECTS(tau >= 0.0F && tau <= 1.0F);
    auto dst = parameters();
    auto src = source.parameters();
    IMX_EXPECTS(dst.size() == src.size());
    for (std::size_t i = 0; i < dst.size(); ++i) {
        IMX_EXPECTS(dst[i]->numel() == src[i]->numel());
        float* d = dst[i]->data();
        const float* s = src[i]->data();
        for (std::int64_t j = 0; j < dst[i]->numel(); ++j) {
            d[j] = tau * s[j] + (1.0F - tau) * d[j];
        }
    }
}

}  // namespace imx::rl
