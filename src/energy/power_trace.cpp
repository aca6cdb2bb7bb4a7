#include "energy/power_trace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "energy/storage.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"

namespace imx::energy {

PowerTrace::PowerTrace(double dt_s, std::vector<double> power_mw)
    : block_(std::make_shared<Block>(dt_s, std::move(power_mw))) {
    IMX_EXPECTS(dt_s > 0.0);
    IMX_EXPECTS(!block_->power_mw.empty());
    for (const double p : block_->power_mw) IMX_EXPECTS(p >= 0.0);
}

double PowerTrace::energy_between(double t0, double t1) const {
    IMX_EXPECTS(t0 <= t1);
    t0 = std::max(t0, 0.0);
    t1 = std::min(t1, duration());
    if (t0 >= t1) return 0.0;

    const double dt = block_->dt_s;
    const std::vector<double>& power = block_->power_mw;
    const auto first = static_cast<std::size_t>(t0 / dt);
    const auto last = static_cast<std::size_t>(t1 / dt);
    // mW * s = mJ directly.
    if (first == last) return power[first] * (t1 - t0);

    double energy = power[first] * (static_cast<double>(first + 1) * dt - t0);
    for (std::size_t i = first + 1; i < last; ++i) {
        energy += power[i] * dt;
    }
    if (last < power.size()) {
        energy += power[last] * (t1 - static_cast<double>(last) * dt);
    }
    return energy;
}

double PowerTrace::total_energy() const {
    Block& block = *block_;
    const std::lock_guard<std::mutex> lock(block.mutex);
    if (!block.has_total) {
        double sum = 0.0;
        for (const double p : block.power_mw) sum += p;
        block.total_mj = sum * block.dt_s;
        block.has_total = true;
    }
    return block.total_mj;
}

double PowerTrace::mean_power() const {
    return total_energy() / duration();
}

void PowerTrace::rescale_total_energy(double target_mj) {
    IMX_EXPECTS(target_mj > 0.0);
    const double current = total_energy();
    IMX_EXPECTS(current > 0.0);
    const double factor = target_mj / current;
    // Reuse the sample storage when no copy shares it; either way the
    // trace gets a fresh block, so no memo of the old samples survives.
    std::vector<double> scaled = block_.use_count() == 1
                                     ? std::move(block_->power_mw)
                                     : block_->power_mw;
    for (double& p : scaled) p *= factor;
    block_ = std::make_shared<Block>(block_->dt_s, std::move(scaled));
}

std::shared_ptr<const std::vector<double>> PowerTrace::income_table(
    double dt_s, const EnergyStorage& converter) const {
    IMX_EXPECTS(dt_s > 0.0);
    const StorageConfig& config = converter.config();
    Block& block = *block_;
    const std::lock_guard<std::mutex> lock(block.mutex);
    for (const IncomeTable& entry : block.incomes) {
        if (entry.dt_s == dt_s &&
            entry.efficiency_max == config.efficiency_max &&
            entry.efficiency_half_power_mw ==
                config.efficiency_half_power_mw) {
            return entry.income_mj;
        }
    }
    const double end = duration();
    auto income = std::make_shared<std::vector<double>>();
    income->reserve(static_cast<std::size_t>(end / dt_s) + 1);
    for (double t = 0.0; t < end; t += dt_s) {
        income->push_back(converter.net_income(power_at(t), dt_s));
    }
    block.incomes.push_back({dt_s, config.efficiency_max,
                             config.efficiency_half_power_mw, income});
    return income;
}

std::size_t PowerTrace::income_tables_built() const {
    const std::lock_guard<std::mutex> lock(block_->mutex);
    return block_->incomes.size();
}

PowerTrace PowerTrace::constant(double power_mw, double duration_s,
                                double dt_s) {
    IMX_EXPECTS(duration_s > 0.0 && dt_s > 0.0);
    const auto n = static_cast<std::size_t>(std::ceil(duration_s / dt_s));
    return PowerTrace(dt_s, std::vector<double>(n, power_mw));
}

PowerTrace PowerTrace::square_wave(double power_mw, double period_s,
                                   double duty_cycle, double duration_s,
                                   double dt_s) {
    IMX_EXPECTS(period_s > 0.0 && duty_cycle >= 0.0 && duty_cycle <= 1.0);
    const auto n = static_cast<std::size_t>(std::ceil(duration_s / dt_s));
    std::vector<double> samples(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double phase = std::fmod(static_cast<double>(i) * dt_s, period_s);
        samples[i] = phase < duty_cycle * period_s ? power_mw : 0.0;
    }
    return PowerTrace(dt_s, std::move(samples));
}

void PowerTrace::to_csv(const std::string& path) const {
    util::CsvWriter writer(path);
    writer.write_header({"time_s", "power_mw"});
    const std::vector<double>& power = samples();
    for (std::size_t i = 0; i < power.size(); ++i) {
        writer.write_row(std::vector<double>{
            static_cast<double>(i) * dt(), power[i]});
    }
}

PowerTrace PowerTrace::from_csv(const std::string& path) {
    const util::CsvTable table = util::read_csv(path, true);
    // Diagnostics number rows the way the spacing check always has: the
    // header is row 1, so data row i is row i + 2.
    const auto row = [](std::size_t i) { return std::to_string(i + 2); };
    if (table.rows.size() < 2) {
        throw std::invalid_argument(
            path + ": only " + std::to_string(table.rows.size()) +
            " data row(s) through row " +
            std::to_string(table.rows.size() + 1) +
            "; a trace needs at least 2 to infer dt");
    }
    std::vector<double> times;
    std::vector<double> power;
    try {
        times = table.numeric_column("time_s");
        power = table.numeric_column("power_mw");
    } catch (const std::logic_error& e) {  // missing column or bad cell
        throw std::invalid_argument(path + ": " + e.what());
    }
    for (std::size_t i = 0; i < power.size(); ++i) {
        // NaN, infinite or negative income would abort deep inside the
        // energy model with no file context; reject it here instead.
        if (!(std::isfinite(power[i]) && power[i] >= 0.0)) {
            throw std::invalid_argument(
                path + ": power_mw must be finite and >= 0 at row " + row(i));
        }
    }
    const double dt = times[1] - times[0];
    if (!(dt > 0.0)) {
        throw std::invalid_argument(path +
                                    ": time_s must be strictly increasing");
    }
    // The representation is a uniform grid: a logger export with dropped or
    // irregular samples would otherwise replay on the wrong time base and
    // silently skew every downstream metric.
    const double tolerance = 1e-6 * dt;
    for (std::size_t i = 2; i < times.size(); ++i) {
        const double step = times[i] - times[i - 1];
        if (!(std::abs(step - dt) <= tolerance)) {  // rejects NaN times too
            throw std::invalid_argument(
                path + ": non-uniform time_s spacing at row " + row(i) +
                " (step " + std::to_string(step) +
                " s vs dt " + std::to_string(dt) + " s)");
        }
    }
    return PowerTrace(dt, power);
}

}  // namespace imx::energy
