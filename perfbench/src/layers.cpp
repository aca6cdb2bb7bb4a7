#include "layers.hpp"

#include <memory>
#include <string>

#include "compress/policy.hpp"
#include "core/accuracy_model.hpp"
#include "core/experiment_setup.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/oracle_model.hpp"
#include "core/search.hpp"
#include "core/trace_eval.hpp"
#include "exp/experiment.hpp"
#include "nn/kernels/kernels.hpp"
#include "rl/ddpg.hpp"
#include "rl/mlp.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/policies/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/workspace.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace imx;

constexpr int kBatches = 5;

/// Keeps measured results observable so the calls cannot be elided.
volatile double g_sink = 0.0;

/// Median over kBatches batches of the per-call time of `fn`, in seconds.
template <class Fn>
double per_call_s(int calls, Fn&& fn) {
    std::vector<double> samples;
    for (int b = 0; b < kBatches; ++b) {
        const Clock::time_point t0 = Clock::now();
        for (int c = 0; c < calls; ++c) fn();
        samples.push_back(seconds_between(t0, Clock::now()) / calls);
    }
    return median(samples);
}

void add(std::vector<Metric>& out, std::string name, double value,
         std::string unit, std::size_t samples = kBatches) {
    out.push_back({std::move(name), value, std::move(unit), samples});
}

void measure_score(const core::ExperimentSetup& setup, std::vector<Metric>& out) {
    const core::AccuracyModel oracle(
        setup.network, {core::kPaperFullPrecisionAcc.begin(),
                        core::kPaperFullPrecisionAcc.end()});
    const core::StaticTraceEvaluator trace_eval(
        setup.trace, setup.events, core::paper_storage_config(),
        core::kEnergyPerMMacMj);
    const core::PolicyEvaluator evaluator(setup.network, oracle, trace_eval,
                                          core::paper_constraints(), true);
    // Distinct random policies, as the search proposes them: repeated ones
    // would only measure the accuracy model's memo.
    constexpr int kCalls = 400;
    util::Rng rng(11);
    std::vector<compress::Policy> policies;
    for (int i = 0; i < kBatches * kCalls; ++i) {
        compress::Policy p =
            compress::Policy::uniform(setup.network.num_layers(), 1.0, 8, 8);
        for (compress::LayerPolicy& layer : p.layers) {
            layer.preserve_ratio = compress::snap_preserve_ratio(
                rng.uniform(compress::kMinPreserve, compress::kMaxPreserve));
            layer.weight_bits = compress::map_action_to_bits(
                rng.uniform(), compress::kMinBits, compress::kMaxBits);
            layer.activation_bits = compress::map_action_to_bits(
                rng.uniform(), compress::kMinBits, compress::kMaxBits);
        }
        policies.push_back(std::move(p));
    }
    std::size_t next = 0;
    add(out, "core.score_us", 1e6 * per_call_s(kCalls, [&] {
            g_sink = g_sink + evaluator.score(policies[next++]).racc;
        }),
        "us");
}

std::vector<float> random_vector(util::Rng& rng, int n) {
    std::vector<float> v(static_cast<std::size_t>(n));
    for (float& x : v) x = static_cast<float>(rng.uniform());
    return v;
}

/// A search-shaped agent (state 12, 64x64 hidden, batch 64) with a full
/// replay buffer.
std::unique_ptr<rl::DdpgAgent> full_agent(int action_dim, util::Rng& rng) {
    rl::DdpgConfig config;
    config.state_dim = 12;
    config.action_dim = action_dim;
    auto agent = std::make_unique<rl::DdpgAgent>(config);
    for (std::size_t i = 0; i < config.replay_capacity; ++i) {
        agent->remember({random_vector(rng, 12), random_vector(rng, action_dim),
                        static_cast<float>(rng.uniform(-1.0, 1.0)),
                        random_vector(rng, 12), false});
    }
    return agent;
}

void measure_rl(std::vector<Metric>& out) {
    util::Rng rng(13);
    const auto prune = full_agent(1, rng);
    const auto quant = full_agent(2, rng);
    // The search alternates the two agents; report the mean of their calls.
    const double prune_step = per_call_s(10, [&] { prune->train_step(); });
    const double quant_step = per_call_s(10, [&] { quant->train_step(); });
    add(out, "rl.train_step_us", 1e6 * 0.5 * (prune_step + quant_step), "us");

    const std::vector<float> state = random_vector(rng, 12);
    add(out, "rl.act_us", 1e6 * per_call_s(2000, [&] {
            g_sink = g_sink + quant->act(state)[0];
        }),
        "us");

    // The critic shape train_step drives per sample: state + 2 actions in.
    rl::Mlp critic({14, 64, 64, 1}, rl::OutputActivation::kNone, rng);
    const nn::Tensor input({14}, random_vector(rng, 14));
    add(out, "rl.mlp_forward_us", 1e6 * per_call_s(2000, [&] {
            g_sink = g_sink + critic.forward(input)[0];
        }),
        "us");
    (void)critic.forward(input);
    const nn::Tensor grad({1}, std::vector<float>{1.0F});
    add(out, "rl.mlp_backward_us", 1e6 * per_call_s(2000, [&] {
            g_sink = g_sink + critic.backward(grad)[0];
        }),
        "us");
}

void measure_kernels(std::vector<Metric>& out) {
    namespace k = nn::kernels;
    constexpr int kDim = 64;
    util::Rng rng(17);
    const std::vector<float> w = random_vector(rng, kDim * kDim);
    const std::vector<float> x = random_vector(rng, kDim);
    const std::vector<float> b = random_vector(rng, kDim);
    const std::vector<float> gy = random_vector(rng, kDim);
    std::vector<float> y(kDim);
    std::vector<float> gx(kDim);
    std::vector<float> gw(kDim * kDim);
    std::vector<float> gb(kDim);
    const bool avx2 = k::avx2_kernels_compiled() && k::cpu_supports_avx2();
    for (const k::Backend backend : {k::Backend::kScalar, k::Backend::kAvx2}) {
        const std::string suffix = k::to_string(backend);
        if (backend == k::Backend::kAvx2 && !avx2) {
            // Not measurable on this host; 0 marks the gap.
            for (const char* name : {"gemm_ns", "gemm_backward_ns", "bias_act_ns"}) {
                add(out, std::string("kernels.") + name + "." + suffix, 0.0, "ns", 0);
            }
            continue;
        }
        k::force_backend(backend);
        add(out, "kernels.gemm_ns." + suffix, 1e9 * per_call_s(4000, [&] {
                k::gemm(kDim, kDim, w.data(), x.data(), b.data(), y.data());
                g_sink = g_sink + y[0];
            }),
            "ns");
        add(out, "kernels.gemm_backward_ns." + suffix, 1e9 * per_call_s(2000, [&] {
                k::gemm_backward(kDim, kDim, w.data(), x.data(), gy.data(),
                                 gx.data(), gw.data(), gb.data());
                g_sink = g_sink + gx[0];
            }),
            "ns");
        add(out, "kernels.bias_act_ns." + suffix, 1e9 * per_call_s(50000, [&] {
                k::bias_act(kDim, x.data(), 0.0F, k::Act::kRelu, y.data());
                g_sink = g_sink + y[0];
            }),
            "ns");
    }
    k::clear_backend_override();
}

void measure_sim(const core::ExperimentSetup& setup, std::vector<Metric>& out) {
    core::OracleInferenceModel model(setup.network, setup.deployed_policy,
                                     setup.exit_accuracy);
    sim::PolicyContext context;
    context.num_exits = setup.network.num_exits;
    sim::Simulator simulator = setup.make_multi_exit_simulator();
    sim::ScenarioWorkspace workspace;
    sim::SimResult result;
    const auto run_s = [&](sim::ExitPolicy& policy) {
        return per_call_s(4, [&] {
            simulator.run_into(setup.events, model, policy, result, &workspace);
            g_sink = g_sink + result.total_harvested_mj;
        });
    };
    const auto greedy = sim::make_policy("greedy", context);
    const double greedy_s = run_s(*greedy);
    add(out, "sim.run_us", 1e6 * greedy_s, "us");
    add(out, "sim.ns_per_event",
        1e9 * greedy_s / static_cast<double>(setup.events.size()), "ns");
    // A fresh Q-learning policy is in training mode: every run updates it.
    const auto learner = sim::make_policy("qlearning", context);
    add(out, "sim.qlearning_run_us", 1e6 * run_s(*learner), "us");

    for (const char* source : {"uniform", "mmpp"}) {
        std::uint64_t seed = 0;
        add(out, std::string("sim.arrivals_us.") + source,
            1e6 * per_call_s(100, [&] {
                g_sink = g_sink + sim::generate_arrivals(
                                      source,
                                      {static_cast<int>(setup.events.size()),
                                       setup.trace.duration(), ++seed})
                                      .size();
            }),
            "us");
    }
}

void measure_energy(std::vector<Metric>& out) {
    // The harvesting environments of the sweep's harvester-ablation grid.
    for (const exp::TraceEntry& trace :
         exp::make_experiment("harvester-ablation").spec.traces) {
        const std::string source = trace.config.trace_source;
        add(out, "energy.setup_trace_s." + source, per_call_s(3, [&] {
                g_sink = g_sink + core::make_paper_setup(trace.config)
                                      .trace.duration();
            }),
            "s");
    }
}

}  // namespace

std::vector<Metric> measure_layers() {
    std::vector<Metric> out;
    const core::ExperimentSetup setup = core::make_paper_setup();
    measure_score(setup, out);
    measure_rl(out);
    measure_kernels(out);
    measure_sim(setup, out);
    measure_energy(out);
    return out;
}

}  // namespace perfbench
