#include "replication/period_manager.h"

namespace here::rep {

Status check_period_config(const PeriodConfig& config) {
  if (config.t_max <= sim::Duration{0}) {
    return Status::invalid_argument("PeriodConfig: t_max must be positive");
  }
  if (config.sigma <= sim::Duration{0}) {
    return Status::invalid_argument("PeriodConfig: sigma must be positive");
  }
  if (config.target_degradation < 0.0 || config.target_degradation >= 1.0) {
    return Status::invalid_argument(
        "PeriodConfig: target_degradation must be in [0, 1)");
  }
  if (config.adaptive_remus_io_period <= sim::Duration{0}) {
    return Status::invalid_argument(
        "PeriodConfig: adaptive_remus_io_period must be positive");
  }
  return Status::ok_status();
}

namespace {

PeriodPolicy resolve(const PeriodConfig& config) {
  if (config.policy != PeriodPolicy::kAuto) return config.policy;
  return config.target_degradation > 0.0 ? PeriodPolicy::kDynamicHere
                                         : PeriodPolicy::kFixed;
}

}  // namespace

PeriodManager::PeriodManager(PeriodConfig config)
    : config_(config),
      policy_(resolve(config)),
      t_(config.t_max),
      t_prev_(config.t_max),
      d_prev_(config.target_degradation) {}

sim::Duration PeriodManager::round_to_sigma(sim::Duration t) const {
  const auto sigma = config_.sigma.count();
  if (sigma <= 0) return t;
  const auto rounded = (t.count() + sigma / 2) / sigma * sigma;
  return sim::Duration{rounded};
}

sim::Duration PeriodManager::clamp(sim::Duration t) const {
  return std::clamp(t, config_.sigma, config_.t_max);
}

void PeriodManager::observe_epoch(sim::Duration t_curr, bool io_active) {
  d_curr_ = sim::to_seconds(t_curr) /
            (sim::to_seconds(t_curr) + sim::to_seconds(t_));
  switch (policy_) {
    case PeriodPolicy::kFixed:
      break;
    case PeriodPolicy::kDynamicHere:
      observe_algorithm1(config_.target_degradation);
      break;
    case PeriodPolicy::kAdaptiveRemus:
      // Binary controller: short period while the guest does I/O, default
      // otherwise. No notion of a degradation budget.
      t_ = io_active ? std::min(config_.adaptive_remus_io_period, config_.t_max)
                     : config_.t_max;
      break;
    case PeriodPolicy::kAuto:
      break;  // resolved in the constructor
  }
}

void PeriodManager::observe_algorithm1(double d_target) {
  if (d_curr_ <= d_target) {
    // Within budget: remember this period as known-good, tighten by sigma.
    t_prev_ = t_;
    t_ = clamp(t_ - config_.sigma);
  } else if (d_prev_ <= d_target) {
    // First overshoot: walk back to the last known-good period.
    t_ = clamp(t_prev_);
  } else {
    // Still overshooting: jump to the midpoint between T and Tmax.
    t_prev_ = t_;
    t_ = clamp(round_to_sigma(sim::Duration{(t_ + config_.t_max).count() / 2}));
  }
  d_prev_ = d_curr_;
}

}  // namespace here::rep
