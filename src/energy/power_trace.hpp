// Harvested-power time series. Units: milliwatts over seconds, so integrals
// are millijoules — the paper's IEpmJ denominator unit.
#ifndef IMX_ENERGY_POWER_TRACE_HPP
#define IMX_ENERGY_POWER_TRACE_HPP

#include <string>
#include <vector>

namespace imx::energy {

/// Piecewise-constant power trace sampled every dt_s seconds.
class PowerTrace {
public:
    PowerTrace(double dt_s, std::vector<double> power_mw);

    [[nodiscard]] double dt() const { return dt_s_; }
    [[nodiscard]] std::size_t size() const { return power_mw_.size(); }
    [[nodiscard]] double duration() const {
        return dt_s_ * static_cast<double>(power_mw_.size());
    }

    /// Power at absolute time t (seconds); 0 beyond the end. Inline: the
    /// simulator reads one sample per step, and the cross-TU call cost more
    /// than the lookup.
    [[nodiscard]] double power_at(double t) const {
        if (t < 0.0) return 0.0;
        const auto idx = static_cast<std::size_t>(t / dt_s_);
        if (idx >= power_mw_.size()) return 0.0;
        return power_mw_[idx];
    }

    /// Energy harvested in [t0, t1] in millijoules (piecewise-constant
    /// integral, exact for this representation).
    [[nodiscard]] double energy_between(double t0, double t1) const;

    /// Total energy over the whole trace (mJ).
    [[nodiscard]] double total_energy() const;

    /// Mean power (mW).
    [[nodiscard]] double mean_power() const;

    [[nodiscard]] const std::vector<double>& samples() const { return power_mw_; }

    /// Scale all samples so total_energy() becomes the requested value.
    void rescale_total_energy(double target_mj);

    // Factories -------------------------------------------------------------
    static PowerTrace constant(double power_mw, double duration_s, double dt_s);
    /// Alternating on/off square wave starting "on".
    static PowerTrace square_wave(double power_mw, double period_s,
                                  double duty_cycle, double duration_s,
                                  double dt_s);
    /// Load from CSV with columns time_s,power_mw. dt comes from the first
    /// two rows; fewer than two data rows, a NaN / infinite / negative
    /// power_mw, or a non-monotonic or non-uniform time column throws
    /// std::invalid_argument naming the file and row (the representation is
    /// a uniform grid — an irregular logger export would replay on the
    /// wrong time base).
    static PowerTrace from_csv(const std::string& path);

    /// Write the trace as CSV (columns time_s,power_mw), the same format
    /// from_csv reads — round-trips exactly.
    void to_csv(const std::string& path) const;

private:
    double dt_s_;
    std::vector<double> power_mw_;
};

}  // namespace imx::energy

#endif  // IMX_ENERGY_POWER_TRACE_HPP
