// Metamorphic oracle from the paper's model: scaling every execution and
// transfer time by a power of two scales the whole schedule by exactly that
// factor.
//
// Multiplying by 2 or 0.5 is exact in binary floating point (no overflow or
// subnormals at these magnitudes), and every operation of the scheduling
// recurrence — max, +, and the comparisons the searchers make — commutes
// with it bit for bit. So start/finish times, trial makespans and pruning
// decisions (with the bound scaled alike) must come out exactly scaled, and
// every searcher must walk the same trajectory: the same best string, an
// exactly scaled best makespan and the same trial count. Unlike the
// differential suites this oracle does not lean on a reference
// implementation, so it cannot share that implementation's bugs.
//
// Scale-dependent constants, stated rather than hidden: SA falls back to a
// temperature of 1.0 when its calibration walk sees no uphill move, and GSA
// floors its initial fitness spread at 1e-9. Neither triggers on these
// workloads (the searchers would then diverge and the test would fail);
// SE's goodness is a ratio of two scaled times and GA's roulette offset is
// proportional to the worst length, so both are scale-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "heuristics/scheduler.h"
#include "sched/evaluator.h"
#include "search/engine.h"
#include "workload/generator.h"

namespace sehc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Workload scaled(const Workload& w, double factor) {
  Matrix<double> exec = w.exec_matrix();
  Matrix<double> transfer = w.transfer_matrix();
  for (double& v : exec.flat()) v *= factor;
  for (double& v : transfer.flat()) v *= factor;
  return Workload(w.graph(), w.machines(), std::move(exec),
                  std::move(transfer));
}

/// Bitwise equality of `got` and `factor * want`.
bool exactly_scaled(double got, double want, double factor) {
  const double expect = want * factor;
  return std::memcmp(&got, &expect, sizeof(double)) == 0;
}

::testing::AssertionResult all_exactly_scaled(const std::vector<double>& got,
                                              const std::vector<double>& want,
                                              double factor) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size " << got.size() << " vs "
                                         << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!exactly_scaled(got[i], want[i], factor)) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": " << got[i] << " != " << factor << " * "
             << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<WorkloadParams> classes() {
  std::vector<WorkloadParams> out;
  for (Level conn : {Level::kLow, Level::kHigh}) {
    for (double ccr : {0.1, 1.0}) {
      WorkloadParams p;
      p.tasks = 24;
      p.machines = 5;
      p.connectivity = conn;
      p.heterogeneity = conn == Level::kHigh ? Level::kMedium : Level::kHigh;
      p.ccr = ccr;
      out.push_back(p);
    }
  }
  return out;
}

constexpr double kFactors[] = {2.0, 0.5};

TEST(Metamorphic, EvaluationScalesExactly) {
  for (WorkloadParams p : classes()) {
    p.seed = 3;
    const Workload w = make_workload(p);
    Evaluator eval(w);
    Rng rng(11);
    for (const double factor : kFactors) {
      const Workload ws = scaled(w, factor);
      Evaluator eval_s(ws);
      for (int i = 0; i < 5; ++i) {
        const SolutionString s =
            random_initial_solution(w.graph(), w.num_machines(), rng);
        const ScheduleTimes a = eval.evaluate(s);
        const ScheduleTimes b = eval_s.evaluate(s);
        EXPECT_TRUE(all_exactly_scaled(b.start, a.start, factor))
            << p.describe();
        EXPECT_TRUE(all_exactly_scaled(b.finish, a.finish, factor));
        EXPECT_TRUE(exactly_scaled(b.makespan, a.makespan, factor));
        EXPECT_TRUE(exactly_scaled(eval_s.makespan(s), a.makespan, factor));
      }
    }
  }
}

/// One checkpoint-mode round (all-machine reassigns of the last task: the
/// uniform SIMD path) and one prepared-mode round (moves and reassigns: the
/// general path) under `bound`.
std::vector<double> trial_rounds(const Workload& w, const SolutionString& s,
                                 double bound) {
  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  const TaskId last = s.segment(s.size() - 1).task;
  eval.begin_trials(s, s.size() / 2);
  batch.begin_checkpoint(s);
  for (MachineId m = 0; m < w.num_machines(); ++m) batch.add_reassign(last, m);
  std::vector<double> out = batch.evaluate(bound);

  eval.prepare(s);
  batch.begin_prepared(s);
  Rng rng(5);
  for (int i = 0; i < 12; ++i) {
    const TaskId t = static_cast<TaskId>(rng.below(s.size()));
    const ValidRange range = s.valid_range(w.graph(), t);
    const std::size_t pos =
        range.lo + static_cast<std::size_t>(rng.below(range.size()));
    batch.add_move(t, pos, static_cast<MachineId>(rng.below(w.num_machines())));
    batch.add_reassign(t, static_cast<MachineId>(i % w.num_machines()));
  }
  const std::vector<double>& prepared = batch.evaluate(bound);
  out.insert(out.end(), prepared.begin(), prepared.end());
  return out;
}

TEST(Metamorphic, TrialBatchesScaleExactlyWithTheBound) {
  for (WorkloadParams p : classes()) {
    p.seed = 4;
    const Workload w = make_workload(p);
    Rng rng(13);
    const SolutionString s =
        random_initial_solution(w.graph(), w.num_machines(), rng);
    const std::vector<double> exact = trial_rounds(w, s, kInf);
    std::vector<double> sorted = exact;
    std::sort(sorted.begin(), sorted.end());
    for (const double factor : kFactors) {
      const Workload ws = scaled(w, factor);
      // Unbounded, a bound that prunes about half the trials, and one that
      // prunes all of them (+infinity scales to itself).
      for (const double bound : {kInf, sorted[sorted.size() / 2], 0.0}) {
        const std::vector<double> a = trial_rounds(w, s, bound);
        const std::vector<double> b = trial_rounds(ws, s, bound * factor);
        EXPECT_TRUE(all_exactly_scaled(b, a, factor))
            << p.describe() << " bound " << bound << " factor " << factor;
      }
    }
  }
}

/// Runs one searcher for `steps` steps and returns its result and best
/// schedule.
SearchResult run_engine(const std::string& name, const Workload& w,
                        std::size_t steps, std::uint64_t seed) {
  const std::unique_ptr<SearchEngine> engine =
      make_search_engine(name, w, Budget::steps(steps), seed);
  return run_search(*engine, Budget::steps(steps));
}

TEST(Metamorphic, EverySearcherFollowsTheSameTrajectory) {
  const std::vector<std::string> searchers{"SE",  "GA",   "GSA",
                                           "SA",  "Tabu", "Random"};
  for (WorkloadParams p : classes()) {
    p.seed = 6;
    const Workload w = make_workload(p);
    for (const double factor : kFactors) {
      const Workload ws = scaled(w, factor);
      for (const std::string& name : searchers) {
        for (const std::uint64_t seed : {1u, 2u}) {
          const SearchResult a = run_engine(name, w, 12, seed);
          const SearchResult b = run_engine(name, ws, 12, seed);
          const std::string where = name + " " + p.describe() + " factor " +
                                    std::to_string(factor) + " seed " +
                                    std::to_string(seed);
          EXPECT_EQ(b.schedule.assignment, a.schedule.assignment) << where;
          EXPECT_EQ(b.schedule.to_solution(), a.schedule.to_solution())
              << where;
          EXPECT_TRUE(all_exactly_scaled(b.schedule.start, a.schedule.start,
                                         factor))
              << where;
          EXPECT_TRUE(exactly_scaled(b.best_makespan, a.best_makespan, factor))
              << where;
          EXPECT_EQ(b.evals, a.evals) << where;
          EXPECT_EQ(b.steps, a.steps) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sehc
