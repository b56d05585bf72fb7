// Simulated annealing on the combined string encoding — an extra iterative
// baseline (the paper's reference [8] explores the genetic/annealing family
// for the same problem).
//
// Neighborhood: move a random task within its valid range and/or reassign
// it to a random machine. Acceptance: Metropolis. Cooling: geometric, with
// the initial temperature calibrated from the mean uphill delta of a short
// random walk.
//
// SaEngine implements the stepwise SearchEngine interface (search/engine.h):
// one step() is one proposed move (trial + Metropolis test), and
// anneal_schedule() is a thin wrapper over the step core (bit-identical at
// fixed seeds). The T0 calibration walk happens inside init().
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "core/timer.h"
#include "hc/workload.h"
#include "sched/encoding.h"
#include "sched/evaluator.h"
#include "sched/schedule.h"
#include "search/engine.h"

namespace sehc {

struct SaParams {
  std::size_t iterations = 20000;
  double cooling = 0.95;           // geometric factor per temperature step
  /// Moves between cooling steps. 0 = auto: iterations / 200, so the
  /// schedule always sweeps ~200 temperature levels (T0 -> ~3e-5 * T0)
  /// regardless of the iteration budget. NOTE: engines driven by a non-step
  /// budget (evals / wall clock) set `iterations` to "unbounded", so their
  /// builders must pick steps_per_temp explicitly (see
  /// make_search_engine in heuristics/scheduler.h).
  std::size_t steps_per_temp = 0;
  std::uint64_t seed = 1;
};

struct SaResult {
  Schedule schedule;
  double best_makespan = 0.0;
  std::size_t iterations = 0;
};

class SaEngine final : public SearchEngine {
 public:
  SaEngine(const Workload& workload, SaParams params);

  // --- SearchEngine interface ----------------------------------------------
  std::string name() const override { return "SA"; }
  void init() override;
  StepStats step() override;
  bool done() const override;
  double best_makespan() const override { return best_len_; }
  std::size_t steps_done() const override { return iteration_; }
  std::size_t evals_used() const override { return eval_.trial_count(); }
  double elapsed_seconds() const override { return timer_.seconds(); }
  Schedule best_schedule() const override;

 private:
  const Workload* workload_;
  SaParams params_;
  Evaluator eval_;
  // Evaluates every trial: the T0 calibration walk as one batch, each
  // Metropolis proposal as a batch of one (see annealing.cpp).
  Evaluator::TrialBatch batch_;

  // Stepwise state (valid after init()).
  bool initialized_ = false;
  Rng rng_{1};
  WallTimer timer_;
  SolutionString current_;
  SolutionString best_;
  double current_len_ = 0.0;
  double best_len_ = 0.0;
  double temperature_ = 0.0;
  std::size_t steps_per_temp_ = 1;
  std::size_t since_cool_ = 0;
  std::size_t iteration_ = 0;  // completed moves
};

SaResult anneal_schedule(const Workload& w, const SaParams& params);

}  // namespace sehc
