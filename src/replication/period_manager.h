// Checkpoint-period policies.
//
// kDynamicHere — the paper's Algorithm 1 (§5.4): find T such that the
// degradation D_T = t / (t + T) tracks the soft target D while T <= Tmax:
//
//   T <- Tmax; Dprev <- D
//   for every checkpoint:
//     Dcurr <- t_curr / (t_curr + T)
//     if Dcurr <= D:            Tprev <- T; T <- T - sigma      (tighten)
//     else if Dprev <= D:       T <- Tprev                      (walk back)
//     else:                     Tprev <- T; T <- round((T+Tmax)/2, sigma)
//     Dprev <- Dcurr
//
// Tightening T means checkpointing more often — less lost work on failover —
// which is the objective for availability-first workloads (§1).
//
// kAdaptiveRemus — the two-setting controller of Adaptive Remus (Da Silva et
// al., cited as [5]): a default period, switched to a shorter one whenever
// I/O activity was observed in the previous epoch. Implemented as a baseline
// for the ablation bench; the paper argues (§5.4) this binary scheme cannot
// track a degradation budget.
//
// kFixed — Remus: T == Tmax forever.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/status.h"
#include "sim/time.h"

namespace here::rep {

enum class PeriodPolicy : std::uint8_t {
  // Fixed period if target_degradation == 0, Algorithm 1 otherwise.
  kAuto,
  kFixed,
  kDynamicHere,
  kAdaptiveRemus,
};

struct PeriodConfig {
  PeriodPolicy policy = PeriodPolicy::kAuto;
  // Hard cap on the checkpoint period (Tmax). Always honoured. Also the
  // "default" setting of the Adaptive Remus policy.
  sim::Duration t_max = sim::from_seconds(5);
  // Soft degradation target D in [0, 1) for Algorithm 1. Under kAuto, 0
  // selects a fixed period (the paper's "HERE with D = 0 %" configurations).
  double target_degradation = 0.0;
  // Adjustment step sigma; also the floor for T.
  sim::Duration sigma = sim::from_millis(200);
  // Adaptive Remus: the shorter period used while I/O activity is detected.
  sim::Duration adaptive_remus_io_period = sim::from_millis(500);
};

// Typed validation of a PeriodConfig: kInvalidArgument on t_max <= 0,
// sigma <= 0, target_degradation outside [0, 1), or a non-positive Adaptive
// Remus I/O period. The ReplicationEngine checks this before any component
// is built, so a bad config fails fast with a clear message instead of
// driving Algorithm 1 (or the checkpoint scheduler) into undefined
// territory.
[[nodiscard]] Status check_period_config(const PeriodConfig& config);

class PeriodManager {
 public:
  explicit PeriodManager(PeriodConfig config);

  // The period to use for the next execution epoch.
  [[nodiscard]] sim::Duration current() const { return t_; }

  // Feeds the measured pause duration of the checkpoint that just finished
  // (and, for the Adaptive Remus policy, whether the epoch carried guest
  // I/O); recomputes T for the next epoch.
  void observe_epoch(sim::Duration t_curr, bool io_active = false);

  [[nodiscard]] double last_degradation() const { return d_curr_; }
  [[nodiscard]] PeriodPolicy effective_policy() const { return policy_; }
  [[nodiscard]] bool adaptive() const {
    return policy_ != PeriodPolicy::kFixed;
  }
  [[nodiscard]] const PeriodConfig& config() const { return config_; }

 private:
  [[nodiscard]] sim::Duration round_to_sigma(sim::Duration t) const;
  [[nodiscard]] sim::Duration clamp(sim::Duration t) const;
  void observe_algorithm1(double d_target);

  PeriodConfig config_;
  PeriodPolicy policy_;
  sim::Duration t_;
  sim::Duration t_prev_;
  double d_prev_;
  double d_curr_ = 0.0;
};

}  // namespace here::rep
