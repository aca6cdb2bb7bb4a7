#include "core/search.hpp"

#include <algorithm>
#include <cmath>

#include "compress/policy.hpp"
#include "util/contracts.hpp"
#include "util/helper_thread.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace imx::core {

PolicyEvaluator::PolicyEvaluator(const compress::NetworkDesc& desc,
                                 const AccuracyModel& accuracy,
                                 const StaticTraceEvaluator& trace_eval,
                                 const compress::Constraints& constraints,
                                 bool trace_aware)
    : desc_(&desc),
      accuracy_(&accuracy),
      trace_eval_(&trace_eval),
      constraints_(constraints),
      trace_aware_(trace_aware) {}

PolicyEvaluator::Score PolicyEvaluator::score(
    const compress::Policy& policy) const {
    Score s;
    s.total_macs = static_cast<double>(compress::total_macs(*desc_, policy));
    s.bytes = compress::model_bytes(*desc_, policy);
    s.flops_ok = s.total_macs <= constraints_.f_target_macs;
    s.size_ok = s.bytes <= constraints_.s_target_bytes;

    const std::vector<double> acc = accuracy_->exit_accuracy(policy);
    if (trace_aware_) {
        const TraceEvalResult r =
            trace_eval_->evaluate(compress::per_exit_macs(*desc_, policy), acc);
        s.racc = r.avg_accuracy_all;
    } else {
        double mean = 0.0;
        for (const double a : acc) mean += a / 100.0;
        s.racc = mean / static_cast<double>(acc.size());
    }
    return s;
}

CompressionSearch::CompressionSearch(const PolicyEvaluator& evaluator,
                                     SearchConfig config)
    : evaluator_(&evaluator), config_(config) {
    IMX_EXPECTS(config.episodes > 0);
    IMX_EXPECTS(config.warmup_episodes >= 0);
}

std::vector<float> CompressionSearch::observation(
    int layer, const compress::Policy& partial, double flop_reduced,
    double size_reduced) const {
    const compress::NetworkDesc& desc = evaluator_->network();
    const auto num_layers = static_cast<double>(desc.num_layers());
    const auto li = static_cast<std::size_t>(layer);

    const compress::Policy uniform8 =
        compress::Policy::uniform(desc.num_layers(), 1.0, 8, 8);
    const double total_macs =
        static_cast<double>(compress::total_macs(desc, uniform8));
    const double total_bytes = compress::model_bytes(desc, uniform8);

    double flop_remaining = 0.0;
    double size_remaining = 0.0;
    for (std::size_t l = li; l < desc.num_layers(); ++l) {
        flop_remaining += static_cast<double>(desc.layers[l].base_macs);
        size_remaining += static_cast<double>(desc.layers[l].weight_params);
    }

    double max_count = 1.0;
    double max_weight = 1.0;
    for (const auto& ld : desc.layers) {
        max_count = std::max(
            max_count,
            static_cast<double>(std::max(ld.in_count, ld.out_count)));
        max_weight =
            std::max(max_weight, static_cast<double>(ld.weight_params));
    }

    const compress::LayerPolicy prev =
        layer == 0 ? compress::LayerPolicy{1.0, 8, 8} : partial[li - 1];
    const compress::LayerDesc& ld = desc.layers[li];

    // Eq. 9: (l, a_{l-1}, bw_{l-1}, ba_{l-1}, flop_reduced, flop_remain,
    //         s_reduced, s_remain, iconv, cin, cout, sweight), all in [0,1].
    return {
        static_cast<float>(static_cast<double>(layer) / num_layers),
        static_cast<float>(prev.preserve_ratio),
        static_cast<float>(prev.weight_bits / 8.0),
        static_cast<float>(prev.activation_bits / 8.0),
        static_cast<float>(flop_reduced / total_macs),
        static_cast<float>(static_cast<double>(desc.layers[li].base_macs +
                                               flop_remaining) /
                           total_macs),
        static_cast<float>(size_reduced / std::max(total_bytes, 1.0)),
        static_cast<float>(size_remaining / max_weight /
                           static_cast<double>(desc.num_layers())),
        ld.kind == compress::LayerKind::kConv ? 1.0F : 0.0F,
        static_cast<float>(static_cast<double>(ld.in_count) / max_count),
        static_cast<float>(static_cast<double>(ld.out_count) / max_count),
        static_cast<float>(static_cast<double>(ld.weight_params) / max_weight),
    };
}

namespace {

double map_action_to_alpha(double action) {
    return compress::snap_preserve_ratio(compress::kMinPreserve +
                                         action * (compress::kMaxPreserve -
                                                   compress::kMinPreserve));
}

void track_best(const PolicyEvaluator::Score& s, const compress::Policy& policy,
                SearchResult& result) {
    if (s.feasible() && s.racc > result.best_reward) {
        result.best_reward = s.racc;
        result.best_policy = policy;
        result.found_feasible = true;
    }
}

}  // namespace

SearchResult CompressionSearch::run_ddpg() {
    const compress::NetworkDesc& desc = evaluator_->network();
    const int num_layers = static_cast<int>(desc.num_layers());
    constexpr int kStateDim = 12;

    rl::DdpgConfig prune_cfg;
    prune_cfg.state_dim = kStateDim;
    prune_cfg.action_dim = 1;
    prune_cfg.seed = config_.seed;
    rl::DdpgConfig quant_cfg;
    quant_cfg.state_dim = kStateDim;
    quant_cfg.action_dim = 2;  // weight bits, activation bits
    quant_cfg.seed = config_.seed ^ 0x7777;

    rl::DdpgAgent prune_agent(prune_cfg);
    rl::DdpgAgent quant_agent(quant_cfg);
    util::Rng warmup_rng(config_.seed ^ 0x1111);
    // Trains the two agents on two threads. The agents share no state (each
    // owns its Rng, replay buffer, networks and Adam moments), so the result
    // is the same as training them in turn. Declared after them: its
    // destructor joins before they are destroyed.
    util::HelperThread lanes;

    SearchResult result;
    result.best_policy =
        compress::Policy::uniform(desc.num_layers(), 1.0, 8, 8);

    // Moving-average reward baselines (AMC-style centering): with a single
    // episode-level reward broadcast to every layer transition, centering is
    // what gives the critic a usable action gradient.
    double prune_baseline = 0.0;
    double quant_baseline = 0.0;
    bool baseline_init = false;
    constexpr double kBaselineAlpha = 0.05;

    for (int episode = 0; episode < config_.episodes; ++episode) {
        compress::Policy policy =
            compress::Policy::uniform(desc.num_layers(), 1.0, 8, 8);
        std::vector<std::vector<float>> states;
        std::vector<std::vector<float>> prune_actions;
        std::vector<std::vector<float>> quant_actions;

        double flop_reduced = 0.0;
        double size_reduced = 0.0;
        const bool warmup = episode < config_.warmup_episodes;

        for (int l = 0; l < num_layers; ++l) {
            const std::vector<float> obs =
                observation(l, policy, flop_reduced, size_reduced);
            std::vector<double> ap;
            std::vector<double> aq;
            if (warmup) {
                // push_back instead of initializer-list assign: keeps the RNG
                // draw order identical and sidesteps a GCC 12 -Wnonnull false
                // positive on vector assignment at -O3.
                ap.push_back(warmup_rng.uniform());
                aq.push_back(warmup_rng.uniform());
                aq.push_back(warmup_rng.uniform());
            } else {
                ap = prune_agent.act_noisy(obs);
                aq = quant_agent.act_noisy(obs);
            }
            const auto li = static_cast<std::size_t>(l);
            policy[li].preserve_ratio = map_action_to_alpha(ap[0]);
            policy[li].weight_bits = compress::map_action_to_bits(
                aq[0], compress::kMinBits, compress::kMaxBits);
            policy[li].activation_bits = compress::map_action_to_bits(
                aq[1], compress::kMinBits, compress::kMaxBits);

            states.push_back(obs);
            prune_actions.push_back({static_cast<float>(ap[0])});
            quant_actions.push_back(
                {static_cast<float>(aq[0]), static_cast<float>(aq[1])});

            // Bookkeeping for the next observation.
            flop_reduced +=
                static_cast<double>(desc.layers[li].base_macs) -
                static_cast<double>(compress::layer_macs(desc, policy, l));
            size_reduced += static_cast<double>(desc.layers[li].weight_params) -
                            compress::layer_bytes(desc, policy, l);
        }

        const PolicyEvaluator::Score s = evaluator_->score(policy);
        ++result.evaluations;
        track_best(s, policy, result);

        // Eq. 11 / Eq. 12 rewards (shared-episode-reward DDPG, AMC-style).
        const double r_prune =
            s.flops_ok ? config_.lambda1 * s.racc : -config_.lambda1;
        const double r_quant =
            s.size_ok ? config_.lambda2 * s.racc : -config_.lambda2;
        result.episode_reward.push_back(s.feasible() ? s.racc : -1.0);

        if (!baseline_init) {
            prune_baseline = r_prune;
            quant_baseline = r_quant;
            baseline_init = true;
        } else {
            prune_baseline += kBaselineAlpha * (r_prune - prune_baseline);
            quant_baseline += kBaselineAlpha * (r_quant - quant_baseline);
        }

        for (int l = 0; l < num_layers; ++l) {
            const auto li = static_cast<std::size_t>(l);
            const bool terminal = l + 1 == num_layers;
            const std::vector<float>& next =
                terminal ? states[li] : states[li + 1];
            prune_agent.remember({states[li], prune_actions[li],
                                  static_cast<float>(r_prune - prune_baseline),
                                  next, terminal});
            quant_agent.remember({states[li], quant_actions[li],
                                  static_cast<float>(r_quant - quant_baseline),
                                  next, terminal});
        }
        if (!warmup) {
            lanes.run_both(config_.train_steps_per_episode,
                           [&prune_agent] { prune_agent.train_step(); },
                           [&quant_agent] { quant_agent.train_step(); });
        }
        prune_agent.end_episode();
        quant_agent.end_episode();
    }
    return result;
}

SearchResult CompressionSearch::run_random() {
    const compress::NetworkDesc& desc = evaluator_->network();
    util::Rng rng(config_.seed ^ 0xabcdef);
    SearchResult result;
    result.best_policy =
        compress::Policy::uniform(desc.num_layers(), 1.0, 8, 8);

    for (int episode = 0; episode < config_.episodes; ++episode) {
        compress::Policy policy =
            compress::Policy::uniform(desc.num_layers(), 1.0, 8, 8);
        for (auto& lp : policy.layers) {
            lp.preserve_ratio = map_action_to_alpha(rng.uniform());
            lp.weight_bits = static_cast<int>(
                rng.uniform_int(compress::kMinBits, compress::kMaxBits));
            lp.activation_bits = static_cast<int>(
                rng.uniform_int(compress::kMinBits, compress::kMaxBits));
        }
        const PolicyEvaluator::Score s = evaluator_->score(policy);
        ++result.evaluations;
        track_best(s, policy, result);
        result.episode_reward.push_back(s.feasible() ? s.racc : -1.0);
    }
    return result;
}

SearchResult CompressionSearch::run_annealing() {
    return anneal_from(compress::make_uniform_for_targets(
                           evaluator_->network(), evaluator_->constraints()),
                       config_.episodes, 0.05, config_.seed ^ 0xfedcba);
}

SearchResult CompressionSearch::run_ddpg_refined() {
    SearchResult ddpg = run_ddpg();
    const compress::Policy start =
        ddpg.found_feasible
            ? ddpg.best_policy
            : compress::make_uniform_for_targets(evaluator_->network(),
                                                 evaluator_->constraints());
    SearchResult refined = anneal_from(start, config_.episodes / 2, 0.01,
                                       config_.seed ^ 0x5ef1e);
    refined.evaluations += ddpg.evaluations;
    refined.episode_reward.insert(refined.episode_reward.begin(),
                                  ddpg.episode_reward.begin(),
                                  ddpg.episode_reward.end());
    if (ddpg.found_feasible && ddpg.best_reward > refined.best_reward) {
        refined.best_policy = ddpg.best_policy;
        refined.best_reward = ddpg.best_reward;
        refined.found_feasible = true;
    }
    return refined;
}

SearchResult CompressionSearch::anneal_from(const compress::Policy& start,
                                            int episodes,
                                            double initial_temperature,
                                            std::uint64_t seed) const {
    util::Rng rng(seed);

    // Penalized objective: infeasible candidates pay for their violation so
    // annealing can cross the boundary but settles inside it.
    auto objective = [this](const PolicyEvaluator::Score& s) {
        double obj = s.racc;
        if (!s.flops_ok) {
            obj -= 1.0 + s.total_macs / evaluator_->constraints().f_target_macs;
        }
        if (!s.size_ok) {
            obj -= 1.0 + s.bytes / evaluator_->constraints().s_target_bytes;
        }
        return obj;
    };

    compress::Policy current = start;
    PolicyEvaluator::Score current_score = evaluator_->score(current);

    SearchResult result;
    result.best_policy = current;
    result.evaluations = 1;
    track_best(current_score, current, result);

    double temperature = initial_temperature;
    const double cooling =
        std::pow(1e-3 / std::max(temperature, 1e-3),
                 1.0 / std::max(1, episodes - 1));

    for (int episode = 0; episode < episodes; ++episode) {
        compress::Policy candidate = current;
        // Mutate 1-3 random layers.
        const auto mutations = rng.uniform_int(1, 3);
        for (std::int64_t m = 0; m < mutations; ++m) {
            auto& lp = candidate.layers[static_cast<std::size_t>(
                rng.uniform_int(
                    0, static_cast<std::int64_t>(candidate.size()) - 1))];
            switch (rng.uniform_int(0, 2)) {
                case 0:
                    lp.preserve_ratio = compress::snap_preserve_ratio(
                        lp.preserve_ratio +
                        (rng.bernoulli(0.5) ? 1 : -1) *
                            compress::kPreserveStep *
                            static_cast<double>(rng.uniform_int(1, 3)));
                    break;
                case 1:
                    lp.weight_bits = util::clamp(
                        lp.weight_bits +
                            static_cast<int>(rng.uniform_int(-2, 2)),
                        compress::kMinBits, compress::kMaxBits);
                    break;
                default:
                    lp.activation_bits = util::clamp(
                        lp.activation_bits +
                            static_cast<int>(rng.uniform_int(-2, 2)),
                        compress::kMinBits, compress::kMaxBits);
            }
        }
        const PolicyEvaluator::Score s = evaluator_->score(candidate);
        ++result.evaluations;
        track_best(s, candidate, result);
        result.episode_reward.push_back(s.feasible() ? s.racc : -1.0);

        const double delta = objective(s) - objective(current_score);
        if (delta >= 0.0 || rng.uniform() < std::exp(delta / temperature)) {
            current = candidate;
            current_score = s;
        }
        temperature *= cooling;
    }
    return result;
}

}  // namespace imx::core
