// Compression-search tests: evaluator scoring, DDPG/random/annealing search
// behaviour under the paper constraints.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "core/accuracy_model.hpp"
#include "core/experiment_setup.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/search.hpp"
#include "core/trace_eval.hpp"

namespace {

using namespace imx;

struct SearchFixture : public ::testing::Test {
    SearchFixture()
        : setup(core::make_paper_setup()),
          oracle(setup.network, {core::kPaperFullPrecisionAcc.begin(),
                                 core::kPaperFullPrecisionAcc.end()}),
          trace_eval(setup.trace, setup.events, core::paper_storage_config(),
                     core::kEnergyPerMMacMj),
          evaluator(setup.network, oracle, trace_eval,
                    core::paper_constraints(), true) {}

    core::ExperimentSetup setup;
    core::AccuracyModel oracle;
    core::StaticTraceEvaluator trace_eval;
    core::PolicyEvaluator evaluator;
};

TEST_F(SearchFixture, ScoreFlagsConstraintViolations) {
    const auto full = evaluator.score(
        compress::Policy::full_precision(setup.network.num_layers()));
    EXPECT_FALSE(full.flops_ok);  // 1.92M > 1.15M
    EXPECT_FALSE(full.size_ok);   // 547 KB > 16 KB
    EXPECT_FALSE(full.feasible());

    const auto ref = evaluator.score(core::reference_nonuniform_policy());
    EXPECT_TRUE(ref.feasible());
    EXPECT_GT(ref.racc, 0.2);
    EXPECT_LT(ref.racc, 1.0);
}

TEST_F(SearchFixture, TraceAwareRewardDiffersFromPlainMean) {
    const core::PolicyEvaluator plain(setup.network, oracle, trace_eval,
                                      core::paper_constraints(), false);
    const auto policy = core::reference_nonuniform_policy();
    const double aware = evaluator.score(policy).racc;
    const double mean = plain.score(policy).racc;
    // Plain mean ignores missed events, so it reads higher.
    EXPECT_GT(mean, aware);
}

TEST_F(SearchFixture, RandomSearchFindsFeasiblePolicies) {
    core::SearchConfig cfg;
    cfg.episodes = 60;
    cfg.seed = 11;
    core::CompressionSearch search(evaluator, cfg);
    const auto r = search.run_random();
    EXPECT_TRUE(r.found_feasible);
    EXPECT_EQ(r.evaluations, 60);
    EXPECT_EQ(r.episode_reward.size(), 60u);
    EXPECT_TRUE(compress::satisfies(setup.network, r.best_policy,
                                    core::paper_constraints()));
}

TEST_F(SearchFixture, AnnealingImprovesOnUniformStart) {
    core::SearchConfig cfg;
    cfg.episodes = 150;
    cfg.seed = 13;
    core::CompressionSearch search(evaluator, cfg);
    const double uniform_racc =
        evaluator.score(core::uniform_baseline_policy()).racc;
    const auto r = search.run_annealing();
    EXPECT_TRUE(r.found_feasible);
    EXPECT_GT(r.best_reward, uniform_racc);
}

TEST_F(SearchFixture, DdpgFindsFeasibleAndBeatsItsWarmup) {
    core::SearchConfig cfg;
    cfg.episodes = 80;
    cfg.warmup_episodes = 16;
    cfg.seed = 17;
    core::CompressionSearch search(evaluator, cfg);
    const auto r = search.run_ddpg();
    EXPECT_TRUE(r.found_feasible);
    EXPECT_TRUE(compress::satisfies(setup.network, r.best_policy,
                                    core::paper_constraints()));
    EXPECT_EQ(static_cast<int>(r.episode_reward.size()), 80);
}

TEST_F(SearchFixture, RefinedDdpgAtLeastMatchesDdpg) {
    core::SearchConfig cfg;
    cfg.episodes = 60;
    cfg.warmup_episodes = 16;
    cfg.seed = 19;
    core::CompressionSearch search(evaluator, cfg);
    const auto raw = search.run_ddpg();
    const auto refined = search.run_ddpg_refined();
    EXPECT_GE(refined.best_reward, raw.best_reward - 1e-9);
    EXPECT_TRUE(refined.found_feasible);
}

TEST_F(SearchFixture, SearchedPoliciesStayOnTheGrid) {
    core::SearchConfig cfg;
    cfg.episodes = 40;
    cfg.seed = 23;
    core::CompressionSearch search(evaluator, cfg);
    for (const auto& result :
         {search.run_random(), search.run_annealing()}) {
        for (const auto& lp : result.best_policy.layers) {
            // alpha on the 0.05 grid.
            const double steps = lp.preserve_ratio / compress::kPreserveStep;
            EXPECT_NEAR(steps, std::round(steps), 1e-6);
            EXPECT_GE(lp.weight_bits, compress::kMinBits);
            EXPECT_LE(lp.weight_bits, compress::kMaxBits);
            EXPECT_GE(lp.activation_bits, compress::kMinBits);
            EXPECT_LE(lp.activation_bits, compress::kMaxBits);
        }
    }
}

TEST_F(SearchFixture, DeterministicForFixedSeed) {
    core::SearchConfig cfg;
    cfg.episodes = 30;
    cfg.seed = 29;
    core::CompressionSearch a(evaluator, cfg);
    core::CompressionSearch b(evaluator, cfg);
    const auto ra = a.run_random();
    const auto rb = b.run_random();
    EXPECT_EQ(ra.best_reward, rb.best_reward);
    for (std::size_t l = 0; l < ra.best_policy.size(); ++l) {
        EXPECT_EQ(ra.best_policy[l].preserve_ratio,
                  rb.best_policy[l].preserve_ratio);
        EXPECT_EQ(ra.best_policy[l].weight_bits, rb.best_policy[l].weight_bits);
    }
}

/// FNV-1a over the bits of every episode reward and the best policy: two
/// searches hash equal only if they are bitwise identical.
std::uint64_t search_hash(const core::SearchResult& r) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const void* data, std::size_t size) {
        const auto* bytes = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            h = (h ^ bytes[i]) * 0x100000001b3ULL;
        }
    };
    for (const double reward : r.episode_reward) {
        mix(&reward, sizeof reward);
    }
    for (const auto& lp : r.best_policy.layers) {
        mix(&lp.preserve_ratio, sizeof lp.preserve_ratio);
        mix(&lp.weight_bits, sizeof lp.weight_bits);
        mix(&lp.activation_bits, sizeof lp.activation_bits);
    }
    mix(&r.best_reward, sizeof r.best_reward);
    return h;
}

/// 40 episodes with 32 of warm-up: 8 episodes train both agents, 12 steps
/// each, so the trained actors drive the last episodes' actions.
core::SearchConfig trained_ddpg_config(std::uint64_t seed) {
    core::SearchConfig cfg;
    cfg.episodes = 40;
    cfg.warmup_episodes = 32;
    cfg.seed = seed;
    return cfg;
}

TEST_F(SearchFixture, DdpgDeterministicForFixedSeedPastWarmup) {
    core::CompressionSearch a(evaluator, trained_ddpg_config(29));
    core::CompressionSearch b(evaluator, trained_ddpg_config(29));
    const auto ra = a.run_ddpg();
    const auto rb = b.run_ddpg();
    EXPECT_EQ(ra.episode_reward.size(), 40U);
    EXPECT_EQ(search_hash(ra), search_hash(rb));
    // Pinned from the search that trained both agents in turn on one
    // thread: training them on two threads must not move a bit.
    EXPECT_EQ(search_hash(ra), 0x3f39e8ccf07e3a57ULL);
}

/// The search-par shape: two searches at once, each training its agents on
/// two threads, share the evaluator, the allocator and the kernel counters.
TEST_F(SearchFixture, ConcurrentDdpgSearchesMatchSerialRuns) {
    const std::uint64_t seeds[2] = {31, 37};
    std::uint64_t serial[2] = {};
    for (int i = 0; i < 2; ++i) {
        core::CompressionSearch search(evaluator,
                                       trained_ddpg_config(seeds[i]));
        serial[i] = search_hash(search.run_ddpg());
    }
    EXPECT_NE(serial[0], serial[1]);
    std::uint64_t concurrent[2] = {};
    std::thread threads[2];
    for (int i = 0; i < 2; ++i) {
        threads[i] = std::thread([&, i] {
            core::CompressionSearch search(evaluator,
                                           trained_ddpg_config(seeds[i]));
            concurrent[i] = search_hash(search.run_ddpg());
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(concurrent[0], serial[0]);
    EXPECT_EQ(concurrent[1], serial[1]);
}

}  // namespace
