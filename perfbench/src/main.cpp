// In-process benchmark binary. One invocation measures one workload:
//
//   perfbench --workload search|search-par|sweep [--seed N]
//                    [--seconds N] [--trace 0|1] [--commit SHA]
//                    [--scratch-dir DIR]
//
// --trace 0 (the default) times untraced repetitions of the workload for
// --seconds (at least kMinReps of them) and reports the end-to-end metrics.
// --trace 1 runs the workload untraced, traced, under forced scalar kernels
// and with the simulator profiler attached, then drives each layer's public
// functions, and reports the per-layer metrics. Either way the last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "checks.hpp"
#include "layers.hpp"
#include "nn/kernels/kernels.hpp"
#include "sim/profiler.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace kernels = imx::nn::kernels;

/// Medians need a few repetitions even when --seconds is short.
constexpr int kMinReps = 3;
/// One set-up takes only milliseconds while the host's speed drifts over
/// seconds, so set-up is timed in windows of kSetupWindow builds spread over
/// the run (before the first and after every repetition) and the median of
/// all builds is reported.
constexpr int kSetupWindow = 7;

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 10;
    bool trace = false;
    std::string commit = "unknown";
    std::string scratch_dir = ".";
};

[[noreturn]] void usage(const std::string& error) {
    std::fprintf(stderr,
                 "error: %s\nusage: perfbench --workload "
                 "search|search-par|sweep [--seed N] [--seconds N] "
                 "[--trace 0|1] [--commit SHA] [--scratch-dir DIR]\n",
                 error.c_str());
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                o.workload = value;
            } else if (flag == "--seed") {
                o.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                o.seconds = std::stoi(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                o.trace = value == "1";
            } else if (flag == "--commit") {
                o.commit = value;
            } else if (flag == "--scratch-dir") {
                o.scratch_dir = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    bool known = false;
    for (const std::string& name : workload_names()) known |= name == o.workload;
    if (!known) usage("unknown workload '" + o.workload + "'");
    if (o.seconds < 1) usage("--seconds must be >= 1");
    return o;
}

void print_manifest(const Options& o, int threads) {
    std::printf(
        "manifest: {\"commit\": \"%s\", \"compiler\": \"%s\", \"build_type\": "
        "\"%s\", \"kernel_backend\": \"%s\", \"worker_threads\": %d, "
        "\"host_cores\": %u, \"workload\": \"%s\", \"seed\": %llu, "
        "\"seconds\": %d, \"trace\": %d}\n",
        o.commit.c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
        kernels::to_string(kernels::active_backend()), threads,
        std::thread::hardware_concurrency(), o.workload.c_str(),
        static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Builds the plan kSetupWindow times, appending each build's wall time to
/// `samples`, and returns the last build.
Plan setup_window(const Options& o, std::vector<double>& samples) {
    for (int i = 1;; ++i) {
        const Clock::time_point t0 = Clock::now();
        Plan plan = build_plan(o.workload, o.seed);
        samples.push_back(seconds_between(t0, Clock::now()));
        if (i == kSetupWindow) return plan;
    }
}

/// Tallies repetitions: failures, digest agreement and the first few
/// failure reasons.
struct Verdict {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    DigestLog digests;
    std::vector<std::string> reasons;

    void add(const RepResult& rep, bool digest_must_match = true) {
        attempted += rep.attempted;
        failed += rep.failed;
        if (digest_must_match) digests.add(rep.digest);
        for (const std::string& r : rep.failures) {
            if (reasons.size() < 10) reasons.push_back(r);
        }
    }

    /// Prints the digest lines and returns whether every check held.
    bool report(const Options& o) const {
        for (const std::string& r : reasons) {
            std::fprintf(stderr, "failed: %s\n", r.c_str());
        }
        bool ok = failed == 0;
        if (!digests.consistent()) {
            std::printf("check: repetitions produced different aggregate digests\n");
            ok = false;
        }
        const auto reference = reference_digest(o.workload, o.seed);
        if (digests.empty()) return ok;
        std::string note = " (no reference for this workload and seed)";
        if (reference) {
            const bool match = digests.first() == *reference;
            note = match ? " (matches the reference)"
                         : " (MISMATCH: reference " + hex64(*reference) + ")";
            ok = ok && match;
        }
        std::printf("aggregate digest: %s%s\n", hex64(digests.first()).c_str(),
                    note.c_str());
        return ok;
    }
};

void print_metrics(const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics) {
        std::printf("  %-34s %14.6g %-6s (%zu sample%s)\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples,
                    m.samples == 1 ? "" : "s");
    }
}

std::vector<Metric> run_untraced(const Options& o, const Plan& plan,
                                 std::vector<double>& setup_samples,
                                 Verdict& verdict) {
    RepOptions rep_options;
    rep_options.csv_path = o.scratch_dir + "/aggregate-" +
                           std::to_string(getpid()) + ".csv";
    std::vector<double> wall;
    std::vector<double> cpu;
    std::vector<double> rate;
    std::vector<double> scenario_s;
    double racc = 0.0;
    const Clock::time_point begin = Clock::now();
    while (static_cast<int>(wall.size()) < kMinReps ||
           seconds_between(begin, Clock::now()) < o.seconds) {
        RepResult rep = run_rep(plan, rep_options);
        verdict.add(rep);
        wall.push_back(rep.wall_s);
        cpu.push_back(rep.cpu_s);
        rate.push_back(static_cast<double>(rep.attempted) / rep.wall_s);
        scenario_s.insert(scenario_s.end(), rep.scenario_s.begin(),
                          rep.scenario_s.end());
        racc = rep.racc;
        setup_window(o, setup_samples);
    }
    std::remove(rep_options.csv_path.c_str());

    std::printf("wall_s per repetition:");
    for (const double w : wall) std::printf(" %.4f", w);
    std::printf("\n");
    if (plan.kind == Kind::kSearch) {
        std::printf("search: best_racc %.4f (not gated)\n", racc);
    }
    // Per-scenario percentiles only where >= 10 samples lie beyond them.
    for (const auto& [label, q] : {std::pair<const char*, double>{"p50", 0.5},
                                   {"p99", 0.99}}) {
        const auto value = tail_percentile(scenario_s, q);
        if (value) {
            std::printf("scenario_%s_s: %.6g s (%zu samples)\n", label, *value,
                        scenario_s.size());
        } else {
            std::printf("scenario_%s_s: not reported (%zu samples, fewer than "
                        "%zu beyond it)\n",
                        label, scenario_s.size(), kMinTailSamples);
        }
    }
    return {
        {"wall_s", median(wall), "s", wall.size()},
        {"setup_s", median(setup_samples), "s", setup_samples.size()},
        {"cpu_s", median(cpu), "s", cpu.size()},
        {"peak_rss_mb", peak_rss_mb(), "MB", 1},
        {"scenarios_per_s", median(rate), "1/s", rate.size()},
    };
}

std::vector<Metric> run_traced(const Options& o, const Plan& plan,
                               const std::vector<double>& setup_samples,
                               Verdict& verdict) {
    RepOptions untraced;
    untraced.csv_path = o.scratch_dir + "/aggregate-" +
                        std::to_string(getpid()) + ".csv";

    // One repetition warms the allocator and per-process caches. Then each
    // variant runs twice, in mirrored order (plain, traced, scalar,
    // profiled, then back), so a linear drift in host speed cancels out of
    // the wall-time ratios.
    verdict.add(run_rep(plan, untraced));
    enum Variant { kPlain, kTraced, kScalar, kProfiled };
    double wall[4] = {};
    RepResult plain;  // first plain repetition: busy time for train_share
    RepResult rep;    // first traced repetition: the per-layer numbers
    kernels::KernelCounters before;
    kernels::KernelCounters after;
    Tracer tracer;
    for (const Variant variant : {kPlain, kTraced, kScalar, kProfiled,
                                  kProfiled, kScalar, kTraced, kPlain}) {
        const bool first = wall[variant] == 0.0;
        RepOptions options = untraced;
        Tracer discarded;
        imx::sim::Profiler profiler;
        if (variant == kTraced) {
            options.tracer = first ? &tracer : &discarded;
            options.trace_parent =
                options.tracer->open("rep " + o.workload, kNoParent);
        } else if (variant == kScalar) {
            kernels::force_backend(kernels::Backend::kScalar);
        } else if (variant == kProfiled) {
            options.profiler = &profiler;
        }
        const kernels::KernelCounters start = kernels::counters_snapshot();
        RepResult result = run_rep(plan, options);
        const kernels::KernelCounters end = kernels::counters_snapshot();
        if (variant == kTraced) options.tracer->close(options.trace_parent);
        if (variant == kScalar) kernels::clear_backend_override();
        // Forced scalar kernels legitimately move the search result (the
        // AVX2 gemm is only ULP-bounded), so that digest is not compared.
        verdict.add(result, variant != kScalar || plan.kind == Kind::kSweep);
        wall[variant] += result.wall_s;
        if (first && variant == kPlain) plain = std::move(result);
        if (first && variant == kTraced) {
            rep = std::move(result);
            before = start;
            after = end;
        }
    }

    // Training share, measured rather than modelled: the same searches with
    // every train_step skipped. Not part of the workload, so not checked.
    double train_share = 0.0;
    if (plan.kind == Kind::kSearch) {
        const Plan control = build_plan(o.workload, o.seed, false);
        train_share = 1.0 - run_rep(control, untraced).busy_s / plain.busy_s;
    }
    std::remove(untraced.csv_path.c_str());

    const std::vector<Metric> layers = measure_layers();
    const auto copy = [&](const std::string& name) {
        for (const Metric& m : layers) {
            if (m.name == name) return m;
        }
        throw std::out_of_range("no layer metric " + name);
    };
    const auto layer = [&](const std::string& name) { return copy(name).value; };

    const double busy = rep.busy_s;
    const auto share = [&](double seconds) {
        return busy > 0.0 ? seconds / busy : 0.0;
    };
    const double score_calls = rep.evaluations;
    const auto train_steps = static_cast<double>(count_train_steps(plan));
    const auto sim_runs = static_cast<double>(count_sim_runs(plan));
    const double gemm_macs =
        static_cast<double>(after.gemm_macs - before.gemm_macs);
    // gemm_backward counts 2 MACs per weight, so a forward+backward pair at
    // the 64-wide shape counts 3 x 64 x 64.
    const std::string backend = kernels::to_string(kernels::active_backend());
    const double ns_per_counted_mac =
        (layer("kernels.gemm_ns." + backend) +
         layer("kernels.gemm_backward_ns." + backend)) /
        (3.0 * 64.0 * 64.0);

    const auto count = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(b - a);
    };
    std::vector<Metric> out = {
        {"exp.build_s", median(setup_samples), "s", setup_samples.size()},
        {"exp.runner_overhead_s", rep.runner_overhead_s, "s", 1},
        {"exp.worker_idle_s", rep.worker_idle_s, "s", 1},
        {"exp.aggregate_s", rep.aggregate_s, "s", 1},
        {"core.score_calls", score_calls, "count", 1},
        copy("core.score_us"),
        {"core.score_share", share(score_calls * 1e-6 * layer("core.score_us")),
         "ratio", 1},
        {"rl.train_step_calls", train_steps, "count", 1},
        copy("rl.train_step_us"),
        copy("rl.act_us"),
        copy("rl.mlp_forward_us"),
        copy("rl.mlp_backward_us"),
        {"rl.train_share", train_share, "ratio", 1},
        {"kernels.gemm_calls", count(before.gemm_calls, after.gemm_calls),
         "count", 1},
        {"kernels.gemm_macs", gemm_macs, "count", 1},
        {"kernels.bias_act_calls",
         count(before.bias_act_calls, after.bias_act_calls), "count", 1},
        {"kernels.conv2d_forward_calls",
         count(before.conv2d_forward_calls, after.conv2d_forward_calls),
         "count", 1},
    };
    for (const Metric& m : layers) {
        if (m.name.rfind("kernels.", 0) == 0) out.push_back(m);
    }
    out.push_back({"kernels.gemm_share",
                   share(gemm_macs * 1e-9 * ns_per_counted_mac), "ratio", 1});
    out.push_back({"kernels.avx2_speedup", wall[kScalar] / wall[kPlain], "x", 2});
    for (const char* name : {"sim.run_us", "sim.ns_per_event",
                             "sim.qlearning_run_us"}) {
        out.push_back(copy(name));
    }
    out.push_back({"sim.runs_per_scenario",
                   sim_runs / static_cast<double>(plan.scenarios()), "count", 1});
    out.push_back({"sim.run_share", share(sim_runs * 1e-6 * layer("sim.run_us")),
                   "ratio", 1});
    for (const Metric& m : layers) {
        if (m.name.rfind("sim.arrivals_us.", 0) == 0) out.push_back(m);
    }
    out.push_back({"sim.profiler_overhead_x", wall[kProfiled] / wall[kPlain],
                   "x", 2});
    for (const Metric& m : layers) {
        if (m.name.rfind("energy.", 0) == 0) out.push_back(m);
    }
    out.push_back({"trace.overhead_x", wall[kTraced] / wall[kPlain], "x", 2});

    const std::string trace_path =
        o.scratch_dir + "/trace-" + o.workload + ".json";
    tracer.write_chrome_trace(trace_path);
    std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                trace_path.c_str());
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const Options options = parse(argc, argv);
    try {
        std::vector<double> setup_samples;
        const Plan plan = setup_window(options, setup_samples);
        print_manifest(options, plan.threads);
        Verdict verdict;
        std::vector<Metric> metrics =
            options.trace ? run_traced(options, plan, setup_samples, verdict)
                          : run_untraced(options, plan, setup_samples, verdict);
        bool correct = verdict.report(options);
        print_metrics(metrics);
        for (Metric& m : metrics) {
            if (!std::isfinite(m.value)) {
                std::printf("check: metric %s is not finite\n", m.name.c_str());
                correct = false;
                m.value = 0.0;  // keep the result line valid JSON
            }
        }
        std::printf("%s\n", result_json(correct, verdict.attempted,
                                        verdict.failed, metrics)
                                .c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
