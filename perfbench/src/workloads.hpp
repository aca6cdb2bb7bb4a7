// The benchmark's workloads, built and run through the library's public
// sweep API: make_experiment / build_experiment_scenarios /
// make_search_scenario -> run_sweep -> aggregate.
//
//   search      fig4-compression-policy at full scale, 1 scenario, 1 worker
//   search-par  the same search as 2 replicas on 2 workers
//   sweep       5 simulator grids at full scale, kSweepReplicas replicas,
//               1 worker
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exp/scenario.hpp"
#include "trace.hpp"

namespace imx::sim {
class Profiler;
}  // namespace imx::sim

namespace perfbench {

/// Full-scale search: 300 DDPG episodes plus a 150-episode annealing
/// refinement, which makes 451 policy evaluations.
inline constexpr int kSearchEpisodes = 300;
inline constexpr int kSearchEvaluations = 451;
/// Seed replicas per sweep grid: ~100 scenarios per replica in total.
inline constexpr int kSweepReplicas = 20;

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Host timing of one wrapped ScenarioSpec::run call.
struct ScenarioRecord {
    Clock::time_point start;
    Clock::time_point end;
    std::thread::id worker;
    /// The scenario threw; `error` holds the message.
    bool threw = false;
    std::string error;
};

/// One registered grid of a workload. Each spec's run function is wrapped
/// to fill records[i] (written only by the worker running spec i).
struct Grid {
    std::string name;
    std::vector<imx::exp::ScenarioSpec> specs;
    std::shared_ptr<std::vector<ScenarioRecord>> records;
};

/// Wrap every spec's run function so it records its host time and worker,
/// and turns an exception into a recorded failure (an empty outcome)
/// instead of aborting the sweep.
Grid make_grid(std::string name, std::vector<imx::exp::ScenarioSpec> specs);

enum class Kind { kSearch, kSweep };

struct Plan {
    std::string workload;
    Kind kind = Kind::kSweep;
    int threads = 1;
    std::vector<Grid> grids;
    [[nodiscard]] std::size_t scenarios() const;
};

/// The set-up the `setup_s` metric times: grid expansion plus
/// make_paper_setup (trace synthesis and event generation). The workload
/// seed maps to SweepCli::base_seed (kDefaultBaseSeed + seed) and, for the
/// searches, to SearchConfig::seed (2020 + seed); seed 0 reproduces Fig. 4
/// and the golden grids.
/// With train_agents = false the searches skip every DdpgAgent::train_step
/// (SearchConfig::train_steps_per_episode = 0) and otherwise do the same
/// work: the control that measures the training share.
/// \throws std::invalid_argument for an unknown workload name.
Plan build_plan(const std::string& workload, std::uint64_t seed,
                bool train_agents = true);

/// The sweep digest at seed 0, kept here as the reference the sweep
/// workload must reproduce; nullopt where no reference applies.
std::optional<std::uint64_t> reference_digest(const std::string& workload,
                                              std::uint64_t seed);

struct RepOptions {
    /// Attached as RunnerConfig::profiler when non-null.
    imx::sim::Profiler* profiler = nullptr;
    /// Receives run_sweep / scenario / aggregate spans when non-null.
    Tracer* tracer = nullptr;
    std::size_t trace_parent = kNoParent;
    /// Scratch file the aggregate CSV is written to for the digest.
    std::string csv_path;
};

/// One pass over every grid of a plan.
struct RepResult {
    double wall_s = 0.0;       ///< run_sweep + aggregate
    double cpu_s = 0.0;        ///< process CPU time over the same interval
    double aggregate_s = 0.0;  ///< aggregate() alone
    double busy_s = 0.0;       ///< sum of scenario spans
    /// Worker time inside run_sweep outside any scenario, before a worker's
    /// first and after its last scenario (or the whole sweep for a worker
    /// that ran none).
    double worker_idle_s = 0.0;
    /// The rest of workers x run_sweep wall that is neither a scenario nor
    /// idle: dispatch and in-order delivery between scenarios.
    double runner_overhead_s = 0.0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;  ///< "<scenario id>: <reason>"
    std::vector<double> scenario_s;     ///< per-scenario host time
    std::uint64_t digest = 0;           ///< over every grid's aggregate CSV
    double racc = 0.0;         ///< best_racc of the first search scenario
    double evaluations = 0.0;  ///< summed over search scenarios
};

RepResult run_rep(const Plan& plan, const RepOptions& options);

/// Simulator::run calls one pass of the plan makes: training episodes + 1
/// for scenarios whose exit policy learns, 1 for the rest, 0 for searches.
std::size_t count_sim_runs(const Plan& plan);

/// DdpgAgent::train_step calls one pass of the plan makes: two agents x
/// train_steps_per_episode x (episodes - warmup) per search scenario.
std::size_t count_train_steps(const Plan& plan);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
