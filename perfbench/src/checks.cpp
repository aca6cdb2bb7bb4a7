#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

double median(std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> tail_percentile(std::vector<double> samples, double q) {
    const std::size_t n = samples.size();
    if (n == 0) return std::nullopt;
    // 1-based nearest rank; the epsilon keeps 0.99 * 1000 at rank 990.
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(n) - 1e-9)));
    if (n - rank < kMinTailSamples) return std::nullopt;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t seed) {
    std::uint64_t h = seed;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string hex64(std::uint64_t value) {
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

bool DigestLog::consistent() const {
    return std::all_of(digests_.begin(), digests_.end(),
                       [&](std::uint64_t d) { return d == digests_.front(); });
}

namespace {

bool all_finite(const imx::exp::MetricMap& metrics, std::string& why) {
    for (const auto& [name, value] : metrics) {
        if (!std::isfinite(value)) {
            why = "metric " + name + " is not finite";
            return false;
        }
    }
    return true;
}

double metric_or_nan(const imx::exp::MetricMap& metrics,
                     const std::string& name) {
    const auto it = metrics.find(name);
    return it == metrics.end() ? std::nan("") : it->second;
}

}  // namespace

bool check_sweep_outcome(const imx::exp::ScenarioOutcome& outcome,
                         int expected_events, std::string& why) {
    if (!outcome.sim) {
        why = "no SimResult";
        return false;
    }
    if (!all_finite(outcome.metrics, why)) return false;
    const int simulated = outcome.sim->total_events();
    const double processed = metric_or_nan(outcome.metrics, "processed");
    const double missed = metric_or_nan(outcome.metrics, "missed");
    if (simulated != expected_events ||
        processed + missed != static_cast<double>(simulated)) {
        std::ostringstream msg;
        msg << "requests not conserved: processed " << processed
            << " + missed " << missed << " vs " << simulated
            << " simulated, " << expected_events << " expected";
        why = msg.str();
        return false;
    }
    return true;
}

bool check_search_outcome(const imx::exp::ScenarioOutcome& outcome,
                          int expected_evaluations, std::string& why) {
    if (!all_finite(outcome.metrics, why)) return false;
    const double racc = metric_or_nan(outcome.metrics, "best_racc");
    const double evaluations = metric_or_nan(outcome.metrics, "evaluations");
    if (metric_or_nan(outcome.metrics, "feasible") != 1.0) {
        why = "search found no feasible policy";
        return false;
    }
    if (evaluations != static_cast<double>(expected_evaluations)) {
        why = "search made " + std::to_string(evaluations) +
              " evaluations, expected " + std::to_string(expected_evaluations);
        return false;
    }
    if (!(racc >= 0.0 && racc <= 1.0)) {
        why = "best_racc outside [0, 1]";
        return false;
    }
    return true;
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const std::vector<Metric>& metrics) {
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[32];
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        out << (i == 0 ? "" : ", ") << '"' << metrics[i].name
            << "\": {\"value\": " << value << ", \"unit\": \""
            << metrics[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

}  // namespace perfbench
