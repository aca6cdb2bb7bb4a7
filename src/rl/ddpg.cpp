#include "rl/ddpg.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"
#include "util/math.hpp"

namespace imx::rl {

ReplayBuffer::ReplayBuffer(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {
    IMX_EXPECTS(capacity > 0);
    buffer_.reserve(capacity);
}

void ReplayBuffer::push(Transition t) {
    if (buffer_.size() < capacity_) {
        buffer_.push_back(std::move(t));
    } else {
        buffer_[next_] = std::move(t);
    }
    next_ = (next_ + 1) % capacity_;
}

std::vector<const Transition*> ReplayBuffer::sample(std::size_t count) {
    IMX_EXPECTS(!buffer_.empty());
    std::vector<const Transition*> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const auto idx = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(buffer_.size()) - 1));
        out.push_back(&buffer_[idx]);
    }
    return out;
}

OuNoise::OuNoise(std::size_t dims, double theta, double sigma,
                 std::uint64_t seed)
    : theta_(theta), sigma_(sigma), state_(dims, 0.0), rng_(seed) {
    IMX_EXPECTS(dims > 0);
    IMX_EXPECTS(theta >= 0.0 && sigma >= 0.0);
}

std::vector<double> OuNoise::sample() {
    for (double& x : state_) {
        x += theta_ * (0.0 - x) + sigma_ * rng_.normal();
    }
    return state_;
}

void OuNoise::reset() { std::fill(state_.begin(), state_.end(), 0.0); }

void OuNoise::scale_sigma(double factor) {
    IMX_EXPECTS(factor > 0.0);
    sigma_ *= factor;
}

namespace {

/// One `dim`-float member of each transition, stacked into a row-major
/// [transitions x dim] block.
std::vector<float> stack(const std::vector<const Transition*>& ts,
                         std::vector<float> Transition::*field,
                         std::size_t dim) {
    std::vector<float> out;
    out.reserve(ts.size() * dim);
    for (const Transition* t : ts) {
        const std::vector<float>& row = t->*field;
        IMX_EXPECTS(row.size() == dim);
        out.insert(out.end(), row.begin(), row.end());
    }
    return out;
}

/// Row-major [state | action] critic inputs from [rows x sdim] states and
/// [rows x adim] actions.
std::vector<float> critic_rows(const std::vector<float>& states,
                               std::size_t sdim, const float* actions,
                               std::size_t adim) {
    const std::size_t rows = states.size() / sdim;
    std::vector<float> out;
    out.reserve(rows * (sdim + adim));
    for (std::size_t b = 0; b < rows; ++b) {
        const auto s = states.begin() + static_cast<std::ptrdiff_t>(b * sdim);
        out.insert(out.end(), s, s + static_cast<std::ptrdiff_t>(sdim));
        out.insert(out.end(), actions + b * adim, actions + (b + 1) * adim);
    }
    return out;
}

std::vector<int> mlp_dims(int in, const std::vector<int>& hidden, int out) {
    std::vector<int> dims;
    dims.push_back(in);
    for (const int h : hidden) dims.push_back(h);
    dims.push_back(out);
    return dims;
}

}  // namespace

DdpgAgent::DdpgAgent(const DdpgConfig& config)
    : config_(config),
      rng_(config.seed),
      actor_(mlp_dims(config.state_dim, config.actor_hidden, config.action_dim),
             OutputActivation::kSigmoid, rng_),
      actor_target_(
          mlp_dims(config.state_dim, config.actor_hidden, config.action_dim),
          OutputActivation::kSigmoid, rng_),
      critic_(mlp_dims(config.state_dim + config.action_dim,
                       config.critic_hidden, 1),
              OutputActivation::kNone, rng_),
      critic_target_(mlp_dims(config.state_dim + config.action_dim,
                              config.critic_hidden, 1),
                     OutputActivation::kNone, rng_),
      actor_opt_(config.actor_lr),
      critic_opt_(config.critic_lr),
      replay_(config.replay_capacity, config.seed ^ 0x5555),
      noise_(static_cast<std::size_t>(config.action_dim), config.ou_theta,
             config.ou_sigma, config.seed ^ 0xaaaa) {
    IMX_EXPECTS(config.state_dim > 0 && config.action_dim > 0);
    IMX_EXPECTS(config.batch_size > 0);
    IMX_EXPECTS(config.gamma >= 0.0F && config.gamma < 1.0F);
    actor_target_.copy_weights_from(actor_);
    critic_target_.copy_weights_from(critic_);
}

std::vector<double> DdpgAgent::act(const std::vector<float>& state) {
    IMX_EXPECTS(static_cast<int>(state.size()) == config_.state_dim);
    const float* out = actor_.forward(1, state.data());
    return std::vector<double>(out, out + config_.action_dim);
}

std::vector<double> DdpgAgent::act_noisy(const std::vector<float>& state) {
    std::vector<double> action = act(state);
    const std::vector<double> noise = noise_.sample();
    for (std::size_t i = 0; i < action.size(); ++i) {
        action[i] = util::clamp(action[i] + noise[i], 0.0, 1.0);
    }
    return action;
}

void DdpgAgent::remember(Transition t) { replay_.push(std::move(t)); }

void DdpgAgent::train_step() {
    if (replay_.size() < config_.batch_size) return;
    const auto batch = replay_.sample(config_.batch_size);
    const int rows = static_cast<int>(batch.size());
    const float inv_batch = 1.0F / static_cast<float>(rows);
    const auto sdim = static_cast<std::size_t>(config_.state_dim);
    const auto adim = static_cast<std::size_t>(config_.action_dim);
    const std::vector<float> states = stack(batch, &Transition::state, sdim);

    // Critic regression toward y = r (+ gamma * Q_target(s', mu_target(s'))).
    std::vector<float> target;
    for (const Transition* t : batch) target.push_back(t->reward);
    if (config_.gamma > 0.0F) {
        std::vector<const Transition*> live;
        std::vector<std::size_t> live_rows;
        for (std::size_t b = 0; b < batch.size(); ++b) {
            if (batch[b]->terminal) continue;
            live.push_back(batch[b]);
            live_rows.push_back(b);
        }
        if (!live.empty()) {
            const int n = static_cast<int>(live.size());
            const std::vector<float> next =
                stack(live, &Transition::next_state, sdim);
            const std::vector<float> next_in = critic_rows(
                next, sdim, actor_target_.forward(n, next.data()), adim);
            const float* q_next = critic_target_.forward(n, next_in.data());
            for (std::size_t k = 0; k < live.size(); ++k) {
                target[live_rows[k]] += config_.gamma * q_next[k];
            }
        }
    }
    const std::vector<float> taken = stack(batch, &Transition::action, adim);
    critic_.zero_grad();
    const float* q = critic_.forward(
        rows, critic_rows(states, sdim, taken.data(), adim).data());
    std::vector<float> grad(batch.size());
    for (std::size_t b = 0; b < batch.size(); ++b) {
        grad[b] = 2.0F * (q[b] - target[b]);  // d/dq of (q - y)^2
    }
    critic_.backward(grad.data(), Grads::kParams);
    critic_opt_.step(critic_.parameters(), critic_.gradients(), inv_batch);

    // Actor ascent on Q(s, mu(s)) (Eq. 15 sampled policy gradient). dQ/da
    // is the updated critic's input gradient; its weight gradients are not
    // computed.
    actor_.zero_grad();
    const float* mu = actor_.forward(rows, states.data());
    critic_.forward(rows, critic_rows(states, sdim, mu, adim).data());
    std::fill(grad.begin(), grad.end(), -1.0F);  // maximize Q: descend on -Q
    const float* dq = critic_.backward(grad.data(), Grads::kInput);
    std::vector<float> grad_action(batch.size() * adim);
    for (std::size_t b = 0; b < batch.size(); ++b) {
        const float* dq_da = dq + b * (sdim + adim) + sdim;
        std::copy(dq_da, dq_da + adim, grad_action.begin() + b * adim);
    }
    actor_.backward(grad_action.data(), Grads::kParams);
    actor_opt_.step(actor_.parameters(), actor_.gradients(), inv_batch);

    actor_target_.soft_update_from(actor_, config_.tau);
    critic_target_.soft_update_from(critic_, config_.tau);
}

void DdpgAgent::end_episode() {
    noise_.reset();
    noise_.scale_sigma(config_.ou_sigma_decay);
}

std::vector<nn::Tensor*> DdpgAgent::parameters() {
    std::vector<nn::Tensor*> out;
    for (Mlp* net : {&actor_, &critic_, &actor_target_, &critic_target_}) {
        const std::vector<nn::Tensor*> p = net->parameters();
        out.insert(out.end(), p.begin(), p.end());
    }
    return out;
}

}  // namespace imx::rl
