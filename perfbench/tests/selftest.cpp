// Self-tests of the benchmark's own checks: a corrupted or throwing
// scenario counts as failed, a percentile with fewer than 10 samples
// beyond it is not reported, and repetitions with different digests are
// flagged. Run with `ctest --test-dir <build dir>`; exits nonzero on failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "checks.hpp"
#include "exp/experiment.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace exp = imx::exp;

int g_failures = 0;

void expect(bool condition, const char* what) {
    if (!condition) {
        std::fprintf(stderr, "FAILED: %s\n", what);
        ++g_failures;
    }
}

/// One real full-scale simulator outcome: the first scenario of fig5.
exp::ScenarioOutcome real_sim_outcome(int& events) {
    exp::SweepCli cli;
    cli.threads = 1;
    const auto specs = exp::build_experiment_scenarios(
        exp::make_experiment("fig5-iepmj"), cli);
    exp::ScenarioOutcome outcome = specs.front().run(exp::ScenarioContext{});
    events = outcome.sim->total_events();
    return outcome;
}

void test_sweep_checks() {
    int events = 0;
    const exp::ScenarioOutcome good = real_sim_outcome(events);
    std::string why;
    expect(check_sweep_outcome(good, events, why), "a real outcome passes");
    expect(!check_sweep_outcome(good, events + 1, why),
           "a wrong event count fails");

    exp::ScenarioOutcome lost = good;
    lost.metrics["missed"] -= 1.0;
    expect(!check_sweep_outcome(lost, events, why),
           "a lost request fails conservation");

    exp::ScenarioOutcome nan = good;
    nan.metrics["iepmj"] = std::nan("");
    expect(!check_sweep_outcome(nan, events, why), "a NaN metric fails");

    exp::ScenarioOutcome bare = good;
    bare.sim.reset();
    expect(!check_sweep_outcome(bare, events, why), "a missing SimResult fails");
}

void test_search_checks() {
    exp::ScenarioOutcome good;
    good.metrics = {{"best_racc", 0.47}, {"evaluations", 451}, {"feasible", 1}};
    std::string why;
    expect(check_search_outcome(good, 451, why), "a valid search passes");
    exp::ScenarioOutcome short_run = good;
    short_run.metrics["evaluations"] = 450;
    expect(!check_search_outcome(short_run, 451, why),
           "a wrong evaluation count fails");
    exp::ScenarioOutcome infeasible = good;
    infeasible.metrics["feasible"] = 0;
    expect(!check_search_outcome(infeasible, 451, why), "infeasible fails");
    exp::ScenarioOutcome out_of_range = good;
    out_of_range.metrics["best_racc"] = 1.5;
    expect(!check_search_outcome(out_of_range, 451, why),
           "best_racc > 1 fails");
}

void test_corrupted_scenarios_count_as_failed() {
    int events = 0;
    const exp::ScenarioOutcome good = real_sim_outcome(events);
    std::vector<exp::ScenarioSpec> specs(3);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].id = "selftest#" + std::to_string(i);
        specs[i].group = specs[i].id;
    }
    specs[0].run = [good](const exp::ScenarioContext&) { return good; };
    specs[1].run = [good](const exp::ScenarioContext&) {
        exp::ScenarioOutcome corrupted = good;
        corrupted.metrics["processed"] += 1.0;
        return corrupted;
    };
    specs[2].run = [](const exp::ScenarioContext&) -> exp::ScenarioOutcome {
        throw std::runtime_error("boom");
    };
    Plan plan;
    plan.kind = Kind::kSweep;
    plan.threads = 2;  // wrappers record from two workers at once
    plan.grids.push_back(make_grid("selftest", std::move(specs)));
    RepOptions options;
    options.csv_path = "perfbench-selftest-" + std::to_string(getpid()) + ".csv";
    const RepResult rep = run_rep(plan, options);
    std::remove(options.csv_path.c_str());
    expect(rep.attempted == 3, "three scenarios attempted");
    expect(rep.failed == 2, "the corrupted and the throwing scenario fail");
}

void test_percentiles() {
    std::vector<double> samples;
    for (int i = 1; i <= 19; ++i) samples.push_back(i);
    expect(!tail_percentile(samples, 0.5), "p50 of 19 samples is withheld");
    samples.push_back(20);
    const auto p50 = tail_percentile(samples, 0.5);
    expect(p50 && *p50 == 10.0, "p50 of 20 samples is the 10th");

    std::vector<double> many;
    for (int i = 1; i <= 999; ++i) many.push_back(i);
    expect(!tail_percentile(many, 0.99), "p99 of 999 samples is withheld");
    many.push_back(1000);
    const auto p99 = tail_percentile(many, 0.99);
    expect(p99 && *p99 == 990.0, "p99 of 1000 samples is the 990th");
    expect(!tail_percentile({}, 0.5), "no samples, no percentile");
}

void test_digests() {
    DigestLog same;
    same.add(7);
    same.add(7);
    expect(same.consistent(), "equal digests are consistent");
    DigestLog different;
    different.add(7);
    different.add(8);
    expect(!different.consistent(), "different digests are flagged");
    expect(fnv1a("a") != fnv1a("b"), "digest separates inputs");
}

void test_result_json() {
    const std::string json =
        result_json(true, 3, 0, {{"wall_s", 1.5, "s", 3}});
    expect(json == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                   "\"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": "
                   "\"s\"}}}",
           "result line format");
}

}  // namespace

int main() {
    test_sweep_checks();
    test_search_checks();
    test_corrupted_scenarios_count_as_failed();
    test_percentiles();
    test_digests();
    test_result_json();
    if (g_failures == 0) std::printf("perfbench self-test: all checks passed\n");
    return g_failures == 0 ? 0 : 1;
}
