// Harvested-power time series. Units: milliwatts over seconds, so integrals
// are millijoules — the paper's IEpmJ denominator unit.
#ifndef IMX_ENERGY_POWER_TRACE_HPP
#define IMX_ENERGY_POWER_TRACE_HPP

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace imx::energy {

class EnergyStorage;

/// Piecewise-constant power trace sampled every dt_s seconds.
///
/// The samples live in one immutable block that every copy of the trace
/// shares, so copying a trace (an ExperimentSetup, say) copies a pointer.
/// The block also memoizes what is derived from the samples alone: the
/// total energy and the simulator's per-step income tables. Those memos
/// live and die with the block, never with an address.
class PowerTrace {
public:
    PowerTrace(double dt_s, std::vector<double> power_mw);

    [[nodiscard]] double dt() const { return block_->dt_s; }
    [[nodiscard]] std::size_t size() const { return block_->power_mw.size(); }
    [[nodiscard]] double duration() const {
        return block_->dt_s * static_cast<double>(size());
    }

    /// Power at absolute time t (seconds); 0 beyond the end.
    [[nodiscard]] double power_at(double t) const {
        if (t < 0.0) return 0.0;
        const auto idx = static_cast<std::size_t>(t / block_->dt_s);
        if (idx >= size()) return 0.0;
        return block_->power_mw[idx];
    }

    /// Energy harvested in [t0, t1] in millijoules (piecewise-constant
    /// integral, exact for this representation).
    [[nodiscard]] double energy_between(double t0, double t1) const;

    /// Total energy over the whole trace (mJ); computed once per block.
    [[nodiscard]] double total_energy() const;

    /// Mean power (mW).
    [[nodiscard]] double mean_power() const;

    [[nodiscard]] const std::vector<double>& samples() const {
        return block_->power_mw;
    }

    /// Scale all samples so total_energy() becomes the requested value. The
    /// trace moves to a new block; copies taken before keep the old one.
    void rescale_total_energy(double target_mj);

    /// Net harvest income per simulator step: entry k is
    /// converter.net_income(power_at(t_k), dt_s), where t_k is the k-th
    /// value of `t = 0; t < duration(); t += dt_s` — the simulator's own
    /// step sequence. Built on first use for each (dt_s,
    /// efficiency_max, efficiency_half_power_mw) and kept with the block,
    /// so every copy of the trace and every thread shares one table.
    [[nodiscard]] std::shared_ptr<const std::vector<double>> income_table(
        double dt_s, const EnergyStorage& converter) const;

    /// Income tables built so far for this trace's block (all copies).
    [[nodiscard]] std::size_t income_tables_built() const;

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
    struct IncomeTable {
        double dt_s;
        double efficiency_max;
        double efficiency_half_power_mw;
        std::shared_ptr<const std::vector<double>> income_mj;
    };
    struct Block {
        Block(double dt, std::vector<double> samples)
            : dt_s(dt), power_mw(std::move(samples)) {}
        const double dt_s;
        std::vector<double> power_mw;  ///< never written once shared
        std::mutex mutex;              ///< guards the memos below
        bool has_total = false;
        double total_mj = 0.0;
        std::vector<IncomeTable> incomes;
    };

    std::shared_ptr<Block> block_;
};

}  // namespace imx::energy

#endif  // IMX_ENERGY_POWER_TRACE_HPP
