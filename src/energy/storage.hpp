/// \file
/// \brief Capacitor-style energy buffer of an intermittently powered device.
///
/// Models the essentials the paper's runtime depends on: finite capacity,
/// charge inefficiency that worsens at low input power (the "charging
/// efficiency" component of the Q-learning state, Sec. IV), leakage, and
/// the turn-on/turn-off thresholds that define a power cycle. The capacity
/// is also a sweep axis: exp::storage_patch() varies capacity_mj across a
/// scenario grid.
#ifndef IMX_ENERGY_STORAGE_HPP
#define IMX_ENERGY_STORAGE_HPP

#include <algorithm>

#include "util/contracts.hpp"

namespace imx::energy {

/// \brief Tunable parameters of the energy buffer.
struct StorageConfig {
    double capacity_mj = 10.0;      ///< usable energy at full charge
    double initial_mj = 0.0;
    double leakage_mw = 0.001;      ///< constant self-discharge
    /// Charging efficiency rises with input power and saturates:
    /// eff(p) = eff_max * p / (p + half_power). Boost converters on real
    /// harvesters behave this way (poor efficiency in dim light).
    double efficiency_max = 0.85;
    double efficiency_half_power_mw = 0.15;
    /// Intermittent-computing thresholds: execution may start only above
    /// on_threshold and dies below off_threshold.
    double on_threshold_mj = 0.5;
    double off_threshold_mj = 0.05;
    /// Brown-out death threshold of the failure model (sim/recovery/): a
    /// recovery-enabled run that sags strictly below this level mid-inference
    /// dies and must restart under its recovery strategy. 0 disables death
    /// (the level never goes negative). Only the recovery-enabled simulator
    /// path reads it — the default runtime is unaffected.
    double death_threshold_mj = 0.05;
};

/// \brief Stateful energy buffer: harvest in, inference energy out.
class EnergyStorage {
public:
    /// \pre config.capacity_mj > 0, thresholds within capacity.
    explicit EnergyStorage(const StorageConfig& config);

    // harvest_net/try_consume/drain are defined inline: the simulator calls
    // them once per step, and the cross-TU call was measurable against the
    // few float ops they perform. The operations (and their exact float
    // evaluation order) are unchanged — the --quick goldens pin that.

    /// \brief Integrate harvesting at constant input power for dt seconds.
    /// \param power_mw harvested input power over the step.
    /// \param dt_s step length in seconds.
    /// \return the energy actually stored (after efficiency and capping).
    double harvest(double power_mw, double dt_s) {
        return harvest_net(net_income(power_mw, dt_s), dt_s);
    }

    /// \return the energy a step of dt_s seconds at constant input power
    ///   delivers past the converter, before leakage and capping (mJ). It
    ///   depends only on the power and the converter, so a trace can
    ///   tabulate it once per step (PowerTrace::income_table()).
    [[nodiscard]] double net_income(double power_mw, double dt_s) const {
        IMX_EXPECTS(power_mw >= 0.0 && dt_s >= 0.0);
        const double gross = power_mw * dt_s;  // mJ harvested
        return gross * efficiency_at(power_mw);
    }

    /// \brief Store one step's net income, less leakage, capped to
    ///   [0, capacity].
    /// \param net_mj the step's net_income().
    /// \param dt_s step length in seconds (for the leakage).
    /// \return the energy actually stored.
    double harvest_net(double net_mj, double dt_s) {
        const double leak = config_.leakage_mw * dt_s;
        const double before = level_mj_;
        level_mj_ =
            std::clamp(level_mj_ + net_mj - leak, 0.0, config_.capacity_mj);
        return level_mj_ - before;
    }

    /// \return charging efficiency in [0, efficiency_max] at the given
    ///   input power.
    [[nodiscard]] double efficiency_at(double power_mw) const {
        IMX_EXPECTS(power_mw >= 0.0);
        if (power_mw == 0.0) return 0.0;
        return config_.efficiency_max * power_mw /
               (power_mw + config_.efficiency_half_power_mw);
    }

    /// \brief Attempt to withdraw amount_mj.
    /// \return false (withdrawing nothing) if the level is insufficient.
    [[nodiscard]] bool try_consume(double amount_mj) {
        IMX_EXPECTS(amount_mj >= 0.0);
        if (amount_mj > level_mj_) return false;
        level_mj_ -= amount_mj;
        return true;
    }

    /// \brief Withdraw unconditionally (level clamps at 0); models a
    /// brown-out where in-progress computation is lost.
    void drain(double amount_mj) {
        IMX_EXPECTS(amount_mj >= 0.0);
        level_mj_ = std::max(0.0, level_mj_ - amount_mj);
    }

    [[nodiscard]] double level() const { return level_mj_; }
    [[nodiscard]] double capacity() const { return config_.capacity_mj; }
    [[nodiscard]] double headroom() const {
        return config_.capacity_mj - level_mj_;
    }
    [[nodiscard]] bool can_turn_on() const {
        return level_mj_ >= config_.on_threshold_mj;
    }
    [[nodiscard]] bool must_turn_off() const {
        return level_mj_ <= config_.off_threshold_mj;
    }
    /// \brief Below the failure model's brown-out threshold (strict, so a
    /// zero threshold never fires)?
    [[nodiscard]] bool below_death_threshold() const {
        return level_mj_ < config_.death_threshold_mj;
    }
    [[nodiscard]] const StorageConfig& config() const { return config_; }

    void reset(double level_mj);

private:
    StorageConfig config_;
    double level_mj_;
};

}  // namespace imx::energy

#endif  // IMX_ENERGY_STORAGE_HPP
