// Statistics, digests and output checks shared by the benchmark binary and
// its self-test. Nothing here times anything; it decides what a run may
// report and whether its outputs are right.
#ifndef PERFBENCH_CHECKS_HPP
#define PERFBENCH_CHECKS_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it.
inline constexpr std::size_t kMinTailSamples = 10;

/// Median (mean of the middle pair for an even count).
/// \pre !samples.empty()
double median(std::vector<double> samples);

/// Nearest-rank q-quantile (q in (0,1)), or nullopt when fewer than
/// kMinTailSamples samples lie beyond it — e.g. a p99 needs >= 1000 samples
/// and a p50 >= 20.
std::optional<double> tail_percentile(std::vector<double> samples, double q);

/// 64-bit FNV-1a, chainable through `seed`.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);

std::string hex64(std::uint64_t value);

/// The aggregate-CSV digest of every repetition of one invocation; they
/// must all agree.
class DigestLog {
public:
    void add(std::uint64_t digest) { digests_.push_back(digest); }
    [[nodiscard]] bool consistent() const;
    [[nodiscard]] bool empty() const { return digests_.empty(); }
    /// \pre !empty()
    [[nodiscard]] std::uint64_t first() const { return digests_.front(); }

private:
    std::vector<std::uint64_t> digests_;
};

/// A simulator scenario must carry its SimResult, conserve requests
/// (processed + missed == simulated events == expected_events) and report
/// only finite metrics. On failure `why` says which rule broke.
bool check_sweep_outcome(const imx::exp::ScenarioOutcome& outcome,
                         int expected_events, std::string& why);

/// A search scenario must be feasible, make exactly expected_evaluations
/// policy evaluations and report a finite best_racc in [0, 1].
bool check_search_outcome(const imx::exp::ScenarioOutcome& outcome,
                          int expected_evaluations, std::string& why);

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;  ///< measurements the value summarizes
};

/// The benchmark's result line: one JSON object with the keys correct,
/// attempted, failed and metrics ({name: {value, unit}}).
std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_HPP
