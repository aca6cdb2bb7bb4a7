#include "workloads.hpp"

#include <algorithm>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "checks.hpp"
#include "core/experiment_setup.hpp"
#include "core/search.hpp"
#include "exp/aggregate.hpp"
#include "exp/experiment.hpp"
#include "exp/paper_scenarios.hpp"
#include "exp/runner.hpp"
#include "sim/policies/qlearning.hpp"
#include "sim/policies/registry.hpp"

namespace perfbench {

namespace exp = imx::exp;

namespace {

/// The simulator grids of the sweep workload, run one after another.
const std::vector<std::string>& sweep_grids() {
    static const std::vector<std::string> names = {
        "harvester-ablation", "traffic-ablation", "recovery-ablation",
        "ablation-storage-deadline", "fig5-iepmj"};
    return names;
}

/// Digest of the sweep workload's aggregate CSVs at seed 0 with
/// kSweepReplicas replicas. Simulated statistics do not depend on the
/// kernel backend or thread count, so this holds on every host; print the
/// current value with `perfbench --workload sweep --seconds 1`.
constexpr std::uint64_t kSweepReferenceDigest = 0x8025768827ee2255ULL;

double cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

Grid make_grid(std::string name, std::vector<exp::ScenarioSpec> specs) {
    Grid grid;
    grid.name = std::move(name);
    grid.records = std::make_shared<std::vector<ScenarioRecord>>(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].run = [inner = std::move(specs[i].run),
                        records = grid.records,
                        i](const exp::ScenarioContext& ctx) {
            ScenarioRecord& record = (*records)[i];
            record = ScenarioRecord{};
            record.worker = std::this_thread::get_id();
            record.start = Clock::now();
            exp::ScenarioOutcome outcome;
            try {
                outcome = inner(ctx);
            } catch (const std::exception& e) {
                record.threw = true;
                record.error = e.what();
            } catch (...) {
                record.threw = true;
                record.error = "unknown exception";
            }
            record.end = Clock::now();
            return outcome;
        };
    }
    grid.specs = std::move(specs);
    return grid;
}

namespace {

Plan search_plan(const std::string& workload, int replicas,
                 std::uint64_t seed, bool train_agents) {
    Plan plan;
    plan.workload = workload;
    plan.kind = Kind::kSearch;
    plan.threads = replicas;
    const auto setup = std::make_shared<const imx::core::ExperimentSetup>(
        imx::core::make_paper_setup(exp::sweep_setup_config(exp::SweepCli{})));
    imx::core::SearchConfig config;
    config.episodes = kSearchEpisodes;
    config.seed += seed;
    if (!train_agents) config.train_steps_per_episode = 0;
    std::vector<exp::ScenarioSpec> specs;
    for (int replica = 0; replica < replicas; ++replica) {
        specs.push_back(exp::make_search_scenario(
            setup, exp::SearchAlgo::kDdpgRefined, "ddpg-refined", config,
            replica, exp::kDefaultBaseSeed + seed));
    }
    plan.grids.push_back(make_grid("fig4-compression-policy", std::move(specs)));
    return plan;
}

Plan sweep_plan(std::uint64_t seed) {
    Plan plan;
    plan.workload = "sweep";
    plan.kind = Kind::kSweep;
    plan.threads = 1;
    exp::SweepCli cli;
    cli.replicas = kSweepReplicas;
    cli.replicas_given = true;
    cli.base_seed = exp::kDefaultBaseSeed + seed;
    cli.base_seed_given = true;
    cli.threads = plan.threads;
    for (const std::string& name : sweep_grids()) {
        plan.grids.push_back(make_grid(
            name, exp::build_experiment_scenarios(exp::make_experiment(name),
                                                  cli)));
    }
    return plan;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/// Split workers x [begin, end) into scenario time, idle time and the rest.
void account_workers(const std::vector<ScenarioRecord>& records, int threads,
                     Clock::time_point begin, Clock::time_point end,
                     RepResult& rep) {
    struct Worker {
        Clock::time_point first;
        Clock::time_point last;
        double busy = 0.0;
    };
    std::map<std::thread::id, Worker> workers;
    for (const ScenarioRecord& r : records) {
        auto [it, fresh] = workers.try_emplace(r.worker, Worker{r.start, r.end});
        Worker& w = it->second;
        if (!fresh) {
            if (r.start < w.first) w.first = r.start;
            if (r.end > w.last) w.last = r.end;
        }
        w.busy += seconds_between(r.start, r.end);
    }
    const double window = seconds_between(begin, end);
    double busy = 0.0;
    double idle = 0.0;
    for (const auto& [id, w] : workers) {
        busy += w.busy;
        idle += seconds_between(begin, w.first) + seconds_between(w.last, end);
    }
    const auto unseen = threads - static_cast<int>(workers.size());
    if (unseen > 0) idle += unseen * window;
    rep.busy_s += busy;
    rep.worker_idle_s += idle;
    // Non-negative by construction; the clamp only drops rounding residue.
    rep.runner_overhead_s += std::max(0.0, threads * window - busy - idle);
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"search", "search-par",
                                                   "sweep"};
    return names;
}

std::size_t Plan::scenarios() const {
    std::size_t n = 0;
    for (const Grid& grid : grids) n += grid.specs.size();
    return n;
}

Plan build_plan(const std::string& workload, std::uint64_t seed,
                bool train_agents) {
    if (workload == "search") return search_plan(workload, 1, seed, train_agents);
    if (workload == "search-par") {
        return search_plan(workload, 2, seed, train_agents);
    }
    if (workload == "sweep") return sweep_plan(seed);
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (search, search-par, sweep)");
}

std::optional<std::uint64_t> reference_digest(const std::string& workload,
                                              std::uint64_t seed) {
    if (workload == "sweep" && seed == 0) return kSweepReferenceDigest;
    return std::nullopt;
}

RepResult run_rep(const Plan& plan, const RepOptions& options) {
    RepResult rep;
    const int expected_events = imx::core::SetupConfig{}.event_count;
    std::uint64_t digest = fnv1a("");
    bool first_search = true;
    for (const Grid& grid : plan.grids) {
        exp::RunnerConfig runner;
        runner.threads = plan.threads;
        runner.profiler = options.profiler;

        const double cpu0 = cpu_seconds();
        const Clock::time_point t0 = Clock::now();
        std::vector<exp::ScenarioOutcome> outcomes;
        try {
            outcomes = exp::run_sweep(grid.specs, runner);
        } catch (const std::exception& e) {
            // Scenario exceptions are caught by the wrappers, so only the
            // runner itself can get here: the whole grid failed.
            rep.attempted += grid.specs.size();
            rep.failed += grid.specs.size();
            rep.failures.push_back(grid.name + ": " + e.what());
            continue;
        }
        const Clock::time_point t1 = Clock::now();
        const auto groups = exp::aggregate(grid.specs, outcomes);
        const Clock::time_point t2 = Clock::now();
        rep.cpu_s += cpu_seconds() - cpu0;
        rep.wall_s += seconds_between(t0, t2);
        rep.aggregate_s += seconds_between(t1, t2);

        const std::vector<ScenarioRecord>& records = *grid.records;
        account_workers(records, plan.threads, t0, t1, rep);
        for (std::size_t i = 0; i < grid.specs.size(); ++i) {
            ++rep.attempted;
            rep.scenario_s.push_back(
                seconds_between(records[i].start, records[i].end));
            std::string why;
            bool ok = !records[i].threw;
            if (!ok) {
                why = "threw: " + records[i].error;
            } else if (plan.kind == Kind::kSweep) {
                ok = check_sweep_outcome(outcomes[i], expected_events, why);
            } else {
                ok = check_search_outcome(outcomes[i], kSearchEvaluations, why);
                const auto& m = outcomes[i].metrics;
                if (m.count("evaluations") != 0) rep.evaluations += m.at("evaluations");
                if (first_search && m.count("best_racc") != 0) {
                    rep.racc = m.at("best_racc");
                    first_search = false;
                }
            }
            if (!ok) {
                ++rep.failed;
                rep.failures.push_back(grid.specs[i].id + ": " + why);
            }
        }

        exp::write_aggregate_csv(options.csv_path, groups);
        digest = fnv1a(grid.name + "\n" + read_file(options.csv_path), digest);

        if (options.tracer != nullptr) {
            Tracer& tracer = *options.tracer;
            const std::size_t sweep = tracer.add("exp.run_sweep " + grid.name,
                                                 options.trace_parent, t0, t1);
            for (std::size_t i = 0; i < grid.specs.size(); ++i) {
                tracer.add("scenario " + grid.specs[i].id, sweep,
                           records[i].start, records[i].end, records[i].worker);
            }
            tracer.add("exp.aggregate " + grid.name, options.trace_parent, t1,
                       t2);
        }
    }
    rep.digest = digest;
    return rep;
}

std::size_t count_sim_runs(const Plan& plan) {
    if (plan.kind != Kind::kSweep) return 0;
    std::map<std::string, bool> learns;  // policy name -> trains first
    const auto policy_learns = [&](const std::string& name) {
        const auto it = learns.find(name);
        if (it != learns.end()) return it->second;
        const auto policy = imx::sim::make_policy(name);
        const bool result =
            dynamic_cast<imx::sim::QLearningExitPolicy*>(policy.get()) != nullptr;
        learns.emplace(name, result);
        return result;
    };
    std::size_t runs = 0;
    for (const Grid& grid : plan.grids) {
        const exp::ExperimentSpec spec = exp::make_experiment(grid.name).spec;
        for (const exp::ScenarioSpec& scenario : grid.specs) {
            ++runs;
            const auto system = scenario.dims.find("system");
            const exp::SystemEntry* entry = nullptr;
            for (const exp::SystemEntry& s : spec.systems) {
                if (system != scenario.dims.end() && s.label == system->second) {
                    entry = &s;
                }
            }
            if (entry == nullptr) continue;
            const exp::SystemKind kind = exp::parse_system_kind(entry->kind);
            if (kind != exp::SystemKind::kOursQLearning &&
                kind != exp::SystemKind::kOursStatic &&
                kind != exp::SystemKind::kOursPolicy) {
                continue;  // checkpointed baselines never train
            }
            const auto patched = scenario.dims.find("policy");
            std::string policy = patched != scenario.dims.end()
                                     ? patched->second
                                     : entry->policy;
            if (policy.empty()) {
                policy = kind == exp::SystemKind::kOursQLearning ? "qlearning"
                                                                 : "greedy";
            }
            if (policy_learns(policy)) {
                runs += static_cast<std::size_t>(entry->train_episodes);
            }
        }
    }
    return runs;
}

std::size_t count_train_steps(const Plan& plan) {
    if (plan.kind != Kind::kSearch) return 0;
    const imx::core::SearchConfig config;
    const auto per_search = static_cast<std::size_t>(
        2 * config.train_steps_per_episode *
        (kSearchEpisodes - config.warmup_episodes));
    return per_search * plan.scenarios();
}

}  // namespace perfbench
