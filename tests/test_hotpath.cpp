// Bitwise-equality suite for the simulator hot-path overhaul (`ctest -L
// hotpath`). Four pillars:
//
//  1. Unit contracts of the new utility layer: util::Arena (aligned bump
//     allocation, capacity-retaining reset), util::Registry<T> (the one
//     registry template behind every named axis, with the shared
//     unknown-name diagnostic), util::ParamReader (typed getters,
//     unknown-key rejection).
//  2. Scheduling invariance with the workspace pool: thread count and a
//     3-way shard/journal/merge split leave the aggregate byte-identical.
//  3. Profiler neutrality: profiling hooks are off-by-default pointer
//     tests; a profiled run produces bitwise-identical outcomes while
//     accumulating per-phase counters, and batched stepping feeds run() and
//     run_into() the exact same values with or without a workspace.
//  4. A pinned matrix of direct Simulator runs (both execution modes, with
//     and without a queue, recovery and a deadline) whose result hashes
//     were captured from the step-at-a-time harvest loop, covering every
//     way a batched drain can end.
//
// (tests/test_kernels_dispatch.cpp also hashes every --quick aggregate CSV
// against goldens captured from the single-step-dispatch implementation.)
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "baselines/baseline_models.hpp"
#include "energy/power_trace.hpp"
#include "exp/aggregate.hpp"
#include "exp/cli.hpp"
#include "exp/experiment.hpp"
#include "exp/journal.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "sim/policies/greedy.hpp"
#include "sim/profiler.hpp"
#include "sim/simulator.hpp"
#include "sim/workspace.hpp"
#include "util/arena.hpp"
#include "util/param_reader.hpp"
#include "util/registry.hpp"
#include "util/rng.hpp"

namespace {

using namespace imx;

// --- util::Arena -----------------------------------------------------------

TEST(Arena, BumpAllocationIsAlignedAndCounted) {
    util::Arena arena(256);
    void* a = arena.allocate(10, 8);
    void* b = arena.allocate(1, 64);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 8, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
    EXPECT_GE(arena.bytes_used(), 11u);
    // Zero-byte requests still return a usable, aligned, non-null pointer.
    EXPECT_NE(arena.allocate(0), nullptr);
}

TEST(Arena, ResetKeepsCapacityAndRecyclesBlocks) {
    util::Arena arena(256);
    int* first = arena.allocate_array<int>(8);
    first[0] = 41;
    const std::size_t reserved = arena.bytes_reserved();
    EXPECT_GT(reserved, 0u);
    arena.reset();
    EXPECT_EQ(arena.bytes_used(), 0u);
    EXPECT_EQ(arena.bytes_reserved(), reserved);
    // Same block, same cursor: the steady state re-hands the same memory.
    int* again = arena.allocate_array<int>(8);
    EXPECT_EQ(first, again);
}

TEST(Arena, OversizedRequestGetsItsOwnBlock) {
    util::Arena arena(64);
    char* big = arena.allocate_array<char>(1000);
    ASSERT_NE(big, nullptr);
    big[999] = 'x';  // must be writable end to end
    EXPECT_GE(arena.bytes_reserved(), 1000u);
    // Smaller allocations still work afterwards.
    EXPECT_NE(arena.allocate(16), nullptr);
}

TEST(Arena, ScopeResetsOnExit) {
    util::Arena arena;
    {
        util::Arena::Scope scope(arena);
        (void)arena.allocate(128);
        EXPECT_GT(arena.bytes_used(), 0u);
    }
    EXPECT_EQ(arena.bytes_used(), 0u);
}

// --- util::Registry --------------------------------------------------------

TEST(RegistryTemplate, AddGetContainsAndSortedNames) {
    util::Registry<int> registry("widget");
    registry.add("zeta", 1);
    registry.add("alpha", 2);
    registry.add("mid", 3);
    EXPECT_TRUE(registry.contains("mid"));
    EXPECT_FALSE(registry.contains("nope"));
    EXPECT_EQ(registry.get("alpha"), 2);
    registry.add("alpha", 9);  // replace
    EXPECT_EQ(registry.get("alpha"), 9);
    const std::vector<std::string> names = registry.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "mid");
    EXPECT_EQ(names[2], "zeta");
}

TEST(RegistryTemplate, UnknownNameDiagnosticListsEveryRegisteredName) {
    util::Registry<int> registry("exit policy");
    registry.add("greedy", 1);
    registry.add("qlearning", 2);
    try {
        (void)registry.get("greedo");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        // Byte-identical to the historical hand-rolled registries.
        EXPECT_STREQ(e.what(),
                     "unknown exit policy 'greedo' "
                     "(registered: greedy, qlearning)");
    }
}

TEST(RegistryTemplate, ReadProjectsAndRowsDescribe) {
    struct Entry {
        int factory;
        std::string description;
    };
    util::Registry<Entry> registry("thing");
    registry.add("b", {2, "second"});
    registry.add("a", {1, "first"});
    EXPECT_EQ(registry.read("a", [](const Entry& e) { return e.factory; }), 1);
    const auto rows =
        registry.rows([](const Entry& e) { return e.description; });
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].first, "a");
    EXPECT_EQ(rows[0].second, "first");
    EXPECT_EQ(rows[1].second, "second");
}

// --- util::ParamReader -----------------------------------------------------

TEST(ParamReader, TypedGettersParseAndFallBack) {
    const util::ParamReader::Params params = {
        {"rate", "2.5"}, {"duty", "0.25"}, {"label", "x"}};
    util::ParamReader reader("trace source", "demo", params);
    EXPECT_EQ(reader.positive("rate", 1.0), 2.5);
    EXPECT_EQ(reader.fraction("duty", 0.5), 0.25);
    EXPECT_EQ(reader.number("absent", -3.0), -3.0);
    EXPECT_EQ(reader.text("label", "y"), "x");
    EXPECT_EQ(reader.text("missing", "fallback"), "fallback");
    reader.done();  // every provided key was consumed
}

TEST(ParamReader, DoneRejectsUnconsumedKeysWithAcceptList) {
    const util::ParamReader::Params params = {{"typo_key", "1"}};
    util::ParamReader reader("arrival source", "bursty", params);
    (void)reader.positive("burst_min", 1.0);
    (void)reader.positive("burst_max", 4.0);
    try {
        reader.done();
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(),
                     "arrival source 'bursty': unknown parameter 'typo_key' "
                     "(accepts: burst_max, burst_min)");
    }
}

TEST(ParamReader, RejectsMalformedAndOutOfRangeNumbers) {
    const util::ParamReader::Params params = {
        {"rate", "fast"}, {"duty", "1.5"}, {"count", "-2"}};
    util::ParamReader bad_number("trace source", "s", params);
    EXPECT_THROW((void)bad_number.number("rate", 0.0), std::invalid_argument);
    util::ParamReader bad_fraction("trace source", "s", params);
    EXPECT_THROW((void)bad_fraction.fraction("duty", 0.0),
                 std::invalid_argument);
    util::ParamReader bad_positive("trace source", "s", params);
    EXPECT_THROW((void)bad_positive.positive("count", 1.0),
                 std::invalid_argument);
    util::ParamReader missing("trace source", "s", params);
    EXPECT_THROW((void)missing.required_text("name"), std::invalid_argument);
}

// --- sim::Profiler ---------------------------------------------------------

// The off path must stay free: hooks are noexcept pointer tests, and the
// scoped timer carries no state beyond the pointer, the phase tag and the
// (conditionally read) start time.
static_assert(noexcept(std::declval<sim::Profiler&>().add(
                  sim::Profiler::Phase::kHarvest, 1, 1)),
              "profiler hooks must not be able to throw");
static_assert(noexcept(std::declval<sim::Profiler&>().count_run()),
              "profiler hooks must not be able to throw");
static_assert(noexcept(sim::ScopedPhase(nullptr,
                                        sim::Profiler::Phase::kHarvest)),
              "the profiler-off constructor must not be able to throw");
static_assert(sizeof(sim::ScopedPhase) <=
                  sizeof(void*) + sizeof(int) +
                      sizeof(std::chrono::steady_clock::time_point) +
                      alignof(std::chrono::steady_clock::time_point),
              "ScopedPhase must stay a trivial stack token");

TEST(Profiler, AccumulatesMergesAndRenders) {
    sim::Profiler a;
    a.add(sim::Profiler::Phase::kHarvest, 10, 500);
    a.add(sim::Profiler::Phase::kPolicy, 2, 100);
    a.count_run();
    a.count_scenario();
    sim::Profiler b;
    b.add(sim::Profiler::Phase::kHarvest, 5, 250);
    b.count_run();
    a.merge(b);
    EXPECT_EQ(a.stats(sim::Profiler::Phase::kHarvest).calls, 15u);
    EXPECT_EQ(a.stats(sim::Profiler::Phase::kHarvest).ns, 750u);
    EXPECT_EQ(a.stats(sim::Profiler::Phase::kPolicy).calls, 2u);
    EXPECT_EQ(a.runs(), 2u);
    EXPECT_EQ(a.scenarios(), 1u);
    EXPECT_EQ(a.total_ns(), 850u);
    for (const char* name :
         {"harvest", "queue", "policy", "inference", "commit"}) {
        EXPECT_NE(a.table().find(name), std::string::npos) << name;
        EXPECT_NE(a.json().find(name), std::string::npos) << name;
    }
}

TEST(Profiler, ScopedPhaseRecordsOnlyWhenAttached) {
    sim::Profiler profiler;
    { sim::ScopedPhase off(nullptr, sim::Profiler::Phase::kQueue); }
    EXPECT_EQ(profiler.stats(sim::Profiler::Phase::kQueue).calls, 0u);
    { sim::ScopedPhase on(&profiler, sim::Profiler::Phase::kQueue); }
    EXPECT_EQ(profiler.stats(sim::Profiler::Phase::kQueue).calls, 1u);
}

// --- workspace / profiler transparency over the sweep engine ---------------

void expect_metrics_bitwise(const exp::MetricMap& a, const exp::MetricMap& b) {
    ASSERT_EQ(a.size(), b.size());
    auto ia = a.begin();
    auto ib = b.begin();
    for (; ia != a.end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first);
        // Bitwise, not tolerance: 0.0 == -0.0 would slip through ==.
        EXPECT_EQ(std::memcmp(&ia->second, &ib->second, sizeof(double)), 0)
            << ia->first << ": " << ia->second << " vs " << ib->second;
    }
}

void expect_sim_bitwise(const sim::SimResult& a, const sim::SimResult& b) {
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const sim::EventRecord& ra = a.records[i];
        const sim::EventRecord& rb = b.records[i];
        EXPECT_EQ(ra.event_id, rb.event_id);
        EXPECT_EQ(ra.arrival_time_s, rb.arrival_time_s);
        EXPECT_EQ(ra.processed, rb.processed);
        EXPECT_EQ(ra.correct, rb.correct);
        EXPECT_EQ(ra.exit_taken, rb.exit_taken);
        EXPECT_EQ(ra.hops, rb.hops);
        EXPECT_EQ(ra.completion_time_s, rb.completion_time_s);
        EXPECT_EQ(ra.inference_start_s, rb.inference_start_s);
        EXPECT_EQ(ra.energy_spent_mj, rb.energy_spent_mj);
        EXPECT_EQ(ra.macs, rb.macs);
    }
    EXPECT_EQ(a.total_harvested_mj, b.total_harvested_mj);
    EXPECT_EQ(a.duration_s, b.duration_s);
    EXPECT_EQ(a.deadline_s, b.deadline_s);
    EXPECT_EQ(a.deaths, b.deaths);
    EXPECT_EQ(a.recovery_energy_mj, b.recovery_energy_mj);
    EXPECT_EQ(a.wasted_macs, b.wasted_macs);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.in_flight, b.in_flight);
}

void expect_outcomes_bitwise(const std::vector<exp::ScenarioOutcome>& a,
                             const std::vector<exp::ScenarioOutcome>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        expect_metrics_bitwise(a[i].metrics, b[i].metrics);
        ASSERT_EQ(a[i].sim.has_value(), b[i].sim.has_value());
        if (a[i].sim.has_value()) expect_sim_bitwise(*a[i].sim, *b[i].sim);
    }
}

std::vector<exp::ScenarioSpec> quick_specs(const std::string& name) {
    exp::SweepCli cli;
    cli.quick = true;
    cli.replicas = 1;
    cli.replicas_given = true;
    cli.threads = 1;
    return exp::build_experiment_scenarios(exp::make_experiment(name), cli);
}

std::string aggregate_csv_bytes(const std::vector<exp::ScenarioSpec>& specs,
                                const std::vector<exp::ScenarioOutcome>& o,
                                const std::string& tag) {
    const std::string path = testing::TempDir() + "imx_hotpath_" + tag + ".csv";
    exp::write_aggregate_csv(path, exp::aggregate(specs, o));
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::remove(path.c_str());
    return buf.str();
}

TEST(WorkspaceEquality, ThreadCountIsInvariantWithWorkspacePool) {
    const auto specs = quick_specs("harvester-ablation");
    const auto one = exp::run_sweep(specs, exp::RunnerConfig{1});
    const auto three = exp::run_sweep(specs, exp::RunnerConfig{3});
    expect_outcomes_bitwise(one, three);
}

TEST(WorkspaceEquality, ThreeShardJournalMergeMatchesUnsharded) {
    const auto specs = quick_specs("harvester-ablation");
    exp::JournalHeader header;
    header.experiment = "harvester-ablation";
    header.total_specs = specs.size();
    header.quick = true;
    header.replicas = 1;

    const auto unsharded =
        exp::run_shard(specs, header, exp::RunnerConfig{2}, "", false);

    std::vector<std::string> journals;
    for (int i = 0; i < 3; ++i) {
        exp::JournalHeader shard_header = header;
        shard_header.shard = {i, 3};
        const std::string path = testing::TempDir() + "imx_hotpath_shard" +
                                 std::to_string(i) + ".jsonl";
        (void)exp::run_shard(specs, shard_header, exp::RunnerConfig{2}, path,
                             false);
        journals.push_back(path);
    }
    const auto merged = exp::merge_journal_outcomes(header, specs, journals);
    for (const std::string& path : journals) std::remove(path.c_str());

    // Journals carry scalar metrics only, so compare through the aggregate
    // CSV — the exact artifact the merge contract promises byte-equal.
    EXPECT_EQ(
        aggregate_csv_bytes(specs, unsharded.outcomes, "unsharded"),
        aggregate_csv_bytes(specs, merged, "merged"));
}

TEST(ProfilerEquality, ProfiledSweepIsBitwiseIdenticalAndCounts) {
    const auto specs = quick_specs("harvester-ablation");
    const auto plain = exp::run_sweep(specs, exp::RunnerConfig{1});
    sim::Profiler profiler;
    exp::RunnerConfig config;
    config.threads = 1;
    config.profiler = &profiler;
    const auto profiled = exp::run_sweep(specs, config);
    expect_outcomes_bitwise(plain, profiled);
    EXPECT_EQ(profiler.scenarios(), specs.size());
    EXPECT_GE(profiler.runs(), profiler.scenarios());
    EXPECT_GT(profiler.total_ns(), 0u);
    EXPECT_GT(profiler.stats(sim::Profiler::Phase::kHarvest).calls, 0u);
}

// --- direct Simulator equivalences -----------------------------------------

TEST(BatchedStepping, RunVariantsAgreeBitwiseWithAndWithoutWorkspace) {
    // A trace with dark stretches exercises both batched drains (idle
    // harvest-only and executing multi-exit) and the early trailing break.
    std::vector<double> samples(20, 0.0);
    samples.insert(samples.end(), 100, 0.4);
    samples.insert(samples.end(), 30, 0.0);
    const energy::PowerTrace trace(1.0, std::move(samples));

    sim::SimConfig cfg;
    cfg.mode = sim::ExecutionMode::kMultiExit;
    cfg.dt_s = 1.0;
    cfg.storage.capacity_mj = 8.0;
    cfg.storage.initial_mj = 1.0;
    cfg.queue_capacity = 4;
    const std::vector<sim::Event> events = {
        {0, 2.0}, {1, 3.0}, {2, 40.0}, {3, 90.0}};

    sim::GreedyAffordablePolicy policy_a;
    sim::Simulator simulator(trace, cfg);
    baselines::FixedBaselineModel model = baselines::make_lenet_cifar();
    const sim::SimResult base = simulator.run(events, model, policy_a);

    // run() with a workspace: arena-backed queue ring, same values.
    sim::ScenarioWorkspace workspace;
    sim::GreedyAffordablePolicy policy_b;
    baselines::FixedBaselineModel model_b = baselines::make_lenet_cifar();
    const sim::SimResult with_ws =
        simulator.run(events, model_b, policy_b, &workspace);
    expect_sim_bitwise(base, with_ws);
    EXPECT_GT(workspace.arena.bytes_reserved(), 0u);

    // run_into() reusing a result buffer (twice, to exercise reuse).
    sim::SimResult reused;
    sim::GreedyAffordablePolicy policy_c;
    baselines::FixedBaselineModel model_c = baselines::make_lenet_cifar();
    simulator.run_into(events, model_c, policy_c, reused, &workspace);
    sim::GreedyAffordablePolicy policy_d;
    baselines::FixedBaselineModel model_d = baselines::make_lenet_cifar();
    simulator.run_into(events, model_d, policy_d, reused, &workspace);
    expect_sim_bitwise(base, reused);
}

// --- pinned simulator matrix -----------------------------------------------
//
// Direct Simulator runs over every execution path the batched drains touch,
// hashed and compared against values captured from the step-at-a-time
// harvest loop. The trace has dark stretches (one longer than the 30 s
// deadline and a dark tail), and the buffer starts far below the deepest
// exit's cost, so committed jobs wait many steps for their start energy.
// The arrivals land inside those waits (queued with a queue, missed
// without), a wait outlives the deadline in the dark stretch, most waits end
// on a step whose harvest makes the start affordable, and the last arrival
// is still waiting when the trace ends.

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

template <typename T>
std::uint64_t mix(std::uint64_t h, T value) {
    return fnv1a(h, &value, sizeof(value));
}

std::uint64_t sim_hash(const sim::SimResult& r) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const sim::EventRecord& e : r.records) {
        h = mix(h, e.event_id);
        h = mix(h, e.arrival_time_s);
        h = mix(h, e.processed);
        h = mix(h, e.correct);
        h = mix(h, e.exit_taken);
        h = mix(h, e.hops);
        h = mix(h, e.completion_time_s);
        h = mix(h, e.inference_start_s);
        h = mix(h, e.energy_spent_mj);
        h = mix(h, e.macs);
    }
    h = mix(h, r.total_harvested_mj);
    h = mix(h, r.duration_s);
    h = mix(h, r.deadline_s);
    h = mix(h, r.deaths);
    h = mix(h, r.recovery_energy_mj);
    h = mix(h, r.wasted_macs);
    h = mix(h, r.dropped);
    h = mix(h, r.in_flight);
    return h;
}

/// Three exits of 0.2 / 0.6 / 1.5 MMAC (0.3 / 0.9 / 2.25 mJ), each advance
/// split into two checkpoint units; one exit of 1.5 MMAC for the
/// checkpointed runtime. Outcomes are a fixed hash of (event, exit).
class PinModel final : public sim::InferenceModel {
public:
    explicit PinModel(int exits) : exits_(exits) {}
    [[nodiscard]] int num_exits() const override { return exits_; }
    [[nodiscard]] std::int64_t exit_macs(int exit) const override {
        return exits_ == 1 ? 1500000 : kMacs[exit];
    }
    [[nodiscard]] std::int64_t incremental_macs(int from_exit,
                                                int to_exit) const override {
        return exit_macs(to_exit) - (from_exit < 0 ? 0 : exit_macs(from_exit));
    }
    [[nodiscard]] std::vector<std::int64_t> segment_macs(
        int from_exit, int to_exit) const override {
        const std::int64_t total = incremental_macs(from_exit, to_exit);
        return {total / 2, total - total / 2};
    }
    [[nodiscard]] sim::ExitOutcome evaluate(int event_id, int exit) override {
        std::uint64_t state = static_cast<std::uint64_t>(event_id) * 7 +
                              static_cast<std::uint64_t>(exit);
        const std::uint64_t h = util::splitmix64(state);
        sim::ExitOutcome out;
        out.correct = h % 100 < static_cast<std::uint64_t>(50 + 15 * exit);
        out.confidence = static_cast<double>((h >> 8) % 1000) / 1000.0;
        return out;
    }
    [[nodiscard]] double model_bytes() const override { return 1000.0; }

private:
    static constexpr std::int64_t kMacs[3] = {200000, 600000, 1500000};
    int exits_;
};

/// Commits to a fixed rotation of exits, mostly the deepest, and hops on
/// low confidence.
class PinPolicy final : public sim::ExitPolicy {
public:
    int select_exit(const sim::EnergyState& /*state*/,
                    const sim::InferenceModel& model) override {
        static constexpr int kPlan[5] = {2, 1, 2, 0, 2};
        return std::min(kPlan[calls_++ % 5], model.num_exits() - 1);
    }
    bool continue_inference(const sim::EnergyState& /*state*/,
                            const sim::InferenceModel& /*model*/,
                            int /*current_exit*/, double confidence) override {
        return confidence < 0.5;
    }

private:
    int calls_ = 0;
};

energy::PowerTrace pin_trace() {
    std::vector<double> samples;
    const auto stretch = [&](int steps, double mw) {
        samples.insert(samples.end(), static_cast<std::size_t>(steps), mw);
    };
    stretch(25, 0.0);
    stretch(55, 0.35);
    stretch(50, 0.0);
    stretch(70, 0.6);
    stretch(30, 0.05);
    stretch(100, 0.3);
    stretch(70, 0.0);
    return energy::PowerTrace(1.0, std::move(samples));
}

std::vector<sim::Event> pin_events() {
    const double times[] = {2.5,   5.0,   21.0,  23.5,  24.0,  40.0,
                            41.2,  60.0,  79.0,  85.0,  90.0,  100.0,
                            121.0, 125.0, 140.0, 141.0, 142.5, 160.0,
                            200.5, 205.0, 215.0, 231.0, 232.0, 250.0,
                            270.0, 300.0, 320.0, 335.0, 350.0, 390.0};
    std::vector<sim::Event> events;
    for (const double t : times) {
        events.push_back({static_cast<int>(events.size()), t});
    }
    return events;
}

struct PinCase {
    sim::ExecutionMode mode;
    int queue;
    bool recovery;
    double deadline_s;
    std::uint64_t expected;
};

TEST(SimulatorPin, MatrixMatchesHashesOfTheStepAtATimeLoop) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr auto kMulti = sim::ExecutionMode::kMultiExit;
    constexpr auto kCkpt = sim::ExecutionMode::kCheckpointed;
    const PinCase cases[] = {
        {kMulti, 0, false, kInf, 0x04ef8c4f809155b7ULL},
        {kMulti, 0, false, 30.0, 0x2546ced546274a7dULL},
        {kMulti, 0, true, kInf, 0x6c4b2cfdbc8b8e28ULL},
        {kMulti, 0, true, 30.0, 0x3558d3393d9c1273ULL},
        {kMulti, 4, false, kInf, 0x41561b4dc0ce7a27ULL},
        {kMulti, 4, false, 30.0, 0x2945894c085f0639ULL},
        {kMulti, 4, true, kInf, 0x5b9038af5334b544ULL},
        {kMulti, 4, true, 30.0, 0x36c6599ac300f7a6ULL},
        {kCkpt, 0, false, kInf, 0x003d9203558bf697ULL},
        {kCkpt, 0, false, 30.0, 0x87bf20baa7a2dffcULL},
        {kCkpt, 4, false, kInf, 0x10eb6d17684b6f95ULL},
        {kCkpt, 4, false, 30.0, 0xd0acd04d98d39400ULL},
    };
    const energy::PowerTrace trace = pin_trace();
    const std::vector<sim::Event> events = pin_events();
    for (const PinCase& c : cases) {
        sim::SimConfig cfg;
        cfg.mode = c.mode;
        cfg.storage.capacity_mj = 3.0;
        cfg.storage.initial_mj = 0.2;
        cfg.storage.leakage_mw = 0.002;
        cfg.queue_capacity = c.queue;
        cfg.deadline_s = c.deadline_s;
        cfg.recovery.enabled = c.recovery;
        cfg.recovery.strategy = "checkpoint";
        cfg.recovery.active_power_mw = 0.03;
        SCOPED_TRACE(testing::Message()
                     << "mode " << static_cast<int>(c.mode) << " queue "
                     << c.queue << " recovery " << c.recovery << " deadline "
                     << c.deadline_s);
        const int exits = c.mode == kMulti ? 3 : 1;
        sim::Simulator simulator(trace, cfg);
        PinModel model(exits);
        PinPolicy policy;
        const sim::SimResult plain = simulator.run(events, model, policy);
        EXPECT_EQ(sim_hash(plain), c.expected);

        // The profiled run and a reused result buffer see the same values.
        sim::Profiler profiler;
        sim::ScenarioWorkspace workspace;
        workspace.profiler = &profiler;
        PinModel model_b(exits);
        PinPolicy policy_b;
        sim::SimResult profiled;
        simulator.run_into(events, model_b, policy_b, profiled, &workspace);
        EXPECT_EQ(sim_hash(profiled), sim_hash(plain));
        EXPECT_GT(profiler.stats(sim::Profiler::Phase::kHarvest).calls, 0u);
    }
}

}  // namespace
