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

nn::Tensor DdpgAgent::to_tensor(const std::vector<float>& v) const {
    return nn::Tensor({static_cast<int>(v.size())}, v);
}

nn::Tensor DdpgAgent::critic_input(const std::vector<float>& state,
                                   const std::vector<float>& action) const {
    std::vector<float> joined;
    joined.reserve(state.size() + action.size());
    joined.insert(joined.end(), state.begin(), state.end());
    joined.insert(joined.end(), action.begin(), action.end());
    // Size must be read before the move: argument evaluation order is
    // unspecified, so passing joined.size() and std::move(joined) in one
    // call would be a use-after-move hazard.
    const int size = static_cast<int>(joined.size());
    return nn::Tensor({size}, std::move(joined));
}

std::vector<double> DdpgAgent::act(const std::vector<float>& state) {
    IMX_EXPECTS(static_cast<int>(state.size()) == config_.state_dim);
    const nn::Tensor out = actor_.forward(to_tensor(state));
    std::vector<double> action(static_cast<std::size_t>(out.numel()));
    for (std::int64_t i = 0; i < out.numel(); ++i) {
        action[static_cast<std::size_t>(i)] = static_cast<double>(out[i]);
    }
    return action;
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
    const float inv_batch = 1.0F / static_cast<float>(batch.size());

    // Critic regression toward y = r (+ gamma * Q_target(s', mu_target(s'))).
    critic_.zero_grad();
    for (const Transition* t : batch) {
        float y = t->reward;
        if (config_.gamma > 0.0F && !t->terminal) {
            const nn::Tensor next_action =
                actor_target_.forward(to_tensor(t->next_state));
            std::vector<float> na(next_action.storage());
            const nn::Tensor q_next =
                critic_target_.forward(critic_input(t->next_state, na));
            y += config_.gamma * q_next[0];
        }
        const nn::Tensor q = critic_.forward(critic_input(t->state, t->action));
        nn::Tensor grad({1});
        grad[0] = 2.0F * (q[0] - y);  // d/dq of (q - y)^2
        critic_.backward(grad);
    }
    critic_opt_.step(critic_.parameters(), critic_.gradients(), inv_batch);

    // Actor ascent on Q(s, mu(s)) (Eq. 15 sampled policy gradient).
    actor_.zero_grad();
    for (const Transition* t : batch) {
        const nn::Tensor action = actor_.forward(to_tensor(t->state));
        std::vector<float> av(action.storage());
        critic_.zero_grad();  // scratch use of critic for dQ/da only
        critic_.forward(critic_input(t->state, av));
        nn::Tensor grad_q({1});
        grad_q[0] = -1.0F;  // maximize Q -> descend on -Q
        const nn::Tensor grad_input = critic_.backward(grad_q);
        nn::Tensor grad_action({config_.action_dim});
        for (int i = 0; i < config_.action_dim; ++i) {
            grad_action[i] = grad_input[config_.state_dim + i];
        }
        actor_.backward(grad_action);
    }
    critic_.zero_grad();  // discard the dQ/da scratch gradients
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
