#include "ledger.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>

#include "core/rng.h"
#include "dag/levels.h"
#include "ga/ga.h"
#include "heuristics/gsa.h"
#include "heuristics/scheduler.h"
#include "obs/metrics.h"
#include "sched/evaluator.h"
#include "sched/simd.h"
#include "se/allocation.h"
#include "se/goodness.h"
#include "se/selection.h"
#include "exp/sweep.h"

namespace perfbench {

using namespace sehc;

namespace {

/// SE's batch width on the paper's 20-machine instances (one lane per
/// machine candidate of the task being re-placed).
constexpr std::size_t kSimdLanes = 20;

void measure_simd(Report& report) {
  const SimdKernel kernel = resolve_kernel(kernel_choice_from_env());
  const BatchKernelOps& ops = batch_kernel_ops(kernel);
  std::cerr << "perfbench: batch kernel " << kernel_name(kernel) << " (width "
            << kernel_width(kernel) << ")\n";
  AlignedVector<double> ready(kSimdLanes), finish(kSimdLanes), avail(kSimdLanes),
      finish_times(kSimdLanes), makespan(kSimdLanes);
  for (std::size_t i = 0; i < kSimdLanes; ++i) {
    finish[i] = 10.0 + static_cast<double>(i);
    avail[i] = static_cast<double>(i % 3);
  }
  constexpr std::size_t kReps = 400000;
  Clock::time_point t0 = Clock::now();
  for (std::size_t r = 0; r < kReps; ++r) {
    ops.ready_maxadd(ready.data(), finish.data(), static_cast<double>(r & 7),
                     kSimdLanes);
  }
  const double maxadd_s = seconds_between(t0, Clock::now());
  t0 = Clock::now();
  for (std::size_t r = 0; r < kReps; ++r) {
    ops.schedule_update(ready.data(), avail.data(), finish_times.data(),
                        makespan.data(), 1.0 + static_cast<double>(r & 3),
                        kSimdLanes);
  }
  const double update_s = seconds_between(t0, Clock::now());
  const double lanes = static_cast<double>(kReps * kSimdLanes);
  report.set("sched.simd.ready_maxadd_ns_per_lane", maxadd_s * 1e9 / lanes);
  report.set("sched.simd.schedule_update_ns_per_lane", update_s * 1e9 / lanes);
  if (!(makespan[0] > 0.0) || !(ready[0] > 0.0)) report.invalid("SIMD strip ops produced no output");
}

void measure_full_eval(const std::vector<const Workload*>& instances,
                       std::uint64_t seed, Report& report) {
  double seconds = 0.0;
  std::size_t calls = 0;
  for (const Workload* w : instances) {
    Evaluator eval(*w);
    Rng rng(seed);
    const SolutionString s =
        random_initial_solution(w->graph(), w->num_machines(), rng);
    ScheduleTimes times;
    eval.evaluate_into(s, times);  // size the buffers
    constexpr std::size_t kCalls = 2000;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kCalls; ++i) eval.evaluate_into(s, times);
    seconds += seconds_between(t0, Clock::now());
    calls += kCalls;
    if (times.makespan <= 0.0) report.invalid("evaluate_into returned no makespan");
  }
  report.set("sched.eval.full_eval_us", seconds * 1e6 / static_cast<double>(calls));
}

struct ReplayTotals {
  std::size_t steps = 0;
  std::size_t selected = 0;
  std::size_t trials = 0;
  std::uint64_t batch_trials = 0;
  std::uint64_t batches = 0;
  std::uint64_t pruned = 0;
};

/// SeEngine::step rebuilt from the library's public parts, one span per
/// operator. Returns the best makespan, which must match SeEngine's bits.
double replay_se(const Workload& w, std::size_t steps, std::uint64_t seed,
                 ReplayTotals& totals) {
  const SeParams params = comparison_se_params(steps, seed);
  const double bias =
      std::isnan(params.bias) ? default_bias(w.num_tasks()) : params.bias;
  Evaluator eval(w);
  const std::vector<double> optimal = optimal_costs(w);
  const std::vector<int> levels = task_levels(w.graph());
  const MachineCandidates candidates(w, params.y_limit);
  Evaluator::TrialBatch batch(eval);

  Rng init_rng(params.seed);
  SolutionString current =
      random_initial_solution(w.graph(), w.num_machines(), init_rng);
  Rng rng = Rng(params.seed).split(0xA110C);
  double best = eval.makespan(current);
  const std::size_t trials_before = eval.trial_count();
  ScheduleTimes times;
  std::vector<double> good;
  std::vector<TaskId> selected;
  Span solve("se.replay");
  for (std::size_t step = 0; step < steps; ++step) {
    Span step_span("se.step");
    {
      Span op("se.evaluation");
      eval.evaluate_into(current, times);
      goodness_into(optimal, times, good);
    }
    {
      Span op("se.selection");
      select_tasks_into(good, bias, levels, rng, selected);
    }
    {
      Span op("se.allocation");
      allocate_tasks(w, eval, candidates, selected, current, rng, batch);
    }
    double makespan = 0.0;
    {
      Span op("se.post_eval");
      makespan = eval.makespan(current);
    }
    best = std::min(best, makespan);
    totals.selected += selected.size();
  }
  totals.steps += steps;
  totals.trials += eval.trial_count() - trials_before;
  totals.batch_trials += batch.metrics().trials;
  totals.batches += batch.metrics().batches;
  totals.pruned += batch.metrics().pruned;
  return best;
}

double timed_se_solve(const Workload& w, std::size_t steps, std::uint64_t seed,
                      double* best = nullptr) {
  const Budget budget = Budget::steps(steps);
  const std::unique_ptr<SearchEngine> engine =
      make_search_engine("SE", w, budget, seed);
  const Clock::time_point t0 = Clock::now();
  const SearchResult result = run_search(*engine, budget);
  const double wall = seconds_between(t0, Clock::now());
  if (best) *best = result.best_makespan;
  return wall;
}

void measure_se(const std::vector<const Workload*>& instances, std::size_t steps,
                std::uint64_t seed, Report& report) {
  Tracer& tracer = Tracer::instance();
  const char* ops[] = {"se.evaluation", "se.selection", "se.allocation", "se.post_eval"};
  double self_before[4];
  for (int i = 0; i < 4; ++i) self_before[i] = tracer.self_seconds(ops[i]);

  ReplayTotals totals;
  double engine_wall = 0.0;
  report.add_attempted(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const std::uint64_t solve_seed = derive_seed(seed, {i, 11});
    double engine_best = 0.0;
    engine_wall += timed_se_solve(*instances[i], steps, solve_seed, &engine_best);
    const double replay_best = replay_se(*instances[i], steps, solve_seed, totals);
    if (std::bit_cast<std::uint64_t>(replay_best) !=
        std::bit_cast<std::uint64_t>(engine_best)) {
      report.fail("SE replay best makespan differs from SeEngine on instance " +
                  std::to_string(i));
    }
  }
  double self[4];
  double self_sum = 0.0;
  for (int i = 0; i < 4; ++i) {
    self[i] = tracer.self_seconds(ops[i]) - self_before[i];
    self_sum += self[i];
  }
  const double steps_d = static_cast<double>(totals.steps);
  report.set("se.evaluation_us_per_step", self[0] * 1e6 / steps_d);
  report.set("se.selection_us_per_step", self[1] * 1e6 / steps_d);
  report.set("se.allocation_us_per_step", self[2] * 1e6 / steps_d);
  report.set("se.post_eval_us_per_step", self[3] * 1e6 / steps_d);
  report.set("se.selected_per_step", static_cast<double>(totals.selected) / steps_d);
  report.set("se.trials_per_step", static_cast<double>(totals.trials) / steps_d);
  report.set("se.unaccounted_share", 1.0 - self_sum / engine_wall);
  report.set("sched.batch.trials_per_s",
             static_cast<double>(totals.batch_trials) / self[2]);
  report.set("sched.batch.mean_size", static_cast<double>(totals.batch_trials) /
                                          static_cast<double>(totals.batches));
  report.set("sched.batch.pruned_share", static_cast<double>(totals.pruned) /
                                             static_cast<double>(totals.batch_trials));
}

void measure_time_to_5pct(const std::vector<const Workload*>& instances,
                          std::size_t steps, std::uint64_t seed, Report& report) {
  std::vector<double> times_ms;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Budget budget = Budget::steps(steps);
    const std::unique_ptr<SearchEngine> engine =
        make_search_engine("SE", *instances[i], budget, derive_seed(seed, {i, 12}));
    std::vector<StepStats> trajectory;
    const SearchResult result = run_search(*engine, budget, [&](const StepStats& s) {
      trajectory.push_back(s);
      return true;
    });
    const double target = result.best_makespan * 1.05;
    for (const StepStats& s : trajectory) {
      if (s.best_makespan <= target) {
        times_ms.push_back(s.elapsed_seconds * 1e3);
        break;
      }
    }
  }
  report.set("search.se_time_to_5pct_ms", median(times_ms));
}

void measure_engine_steps(const std::vector<const Workload*>& instances,
                          std::uint64_t seed, Report& report) {
  constexpr std::size_t kEvals = 20000;
  for (const char* name : {"SE", "GA", "GSA", "SA", "Tabu", "Random"}) {
    double seconds = 0.0;
    std::size_t steps = 0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const Budget budget = Budget::evals(kEvals);
      const std::unique_ptr<SearchEngine> engine =
          make_search_engine(name, *instances[i], budget, derive_seed(seed, {i, 13}));
      Span span(std::string("search.") + name);
      const SearchResult result = run_search(*engine, budget);
      seconds += result.seconds;
      steps += result.steps;
    }
    report.set(std::string("search.") + name + ".step_us",
               seconds * 1e6 / static_cast<double>(steps));
  }
}

void measure_prepared(const std::vector<const Workload*>& instances,
                      std::uint64_t seed, Report& report) {
  // Tabu/SA-shaped neighbourhoods: 24 random valid moves of one prepared
  // base string per batch, evaluated unpruned.
  constexpr std::size_t kBatch = 24;
  constexpr std::size_t kBatches = 400;
  double seconds = 0.0;
  std::size_t trials = 0;
  for (const Workload* w : instances) {
    Evaluator eval(*w);
    Rng rng(seed);
    const SolutionString base =
        random_initial_solution(w->graph(), w->num_machines(), rng);
    eval.prepare(base);
    struct Move {
      TaskId task;
      std::size_t pos;
      MachineId machine;
    };
    std::vector<Move> moves(kBatch * kBatches);
    for (Move& m : moves) {
      m.task = static_cast<TaskId>(rng.below(w->num_tasks()));
      const ValidRange range = base.valid_range(w->graph(), m.task);
      m.pos = range.lo + rng.below(range.size());
      m.machine = static_cast<MachineId>(rng.below(w->num_machines()));
    }
    Evaluator::TrialBatch batch(eval);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t b = 0; b < kBatches; ++b) {
      batch.begin_prepared(base);
      for (std::size_t j = 0; j < kBatch; ++j) {
        const Move& m = moves[b * kBatch + j];
        batch.add_move(m.task, m.pos, m.machine);
      }
      batch.evaluate(std::numeric_limits<double>::infinity());
    }
    seconds += seconds_between(t0, Clock::now());
    trials += kBatch * kBatches;
  }
  report.set("sched.prepared.trials_per_s", static_cast<double>(trials) / seconds);

  std::size_t hits = 0;
  std::size_t lookups = 0;
  constexpr std::size_t kGenerations = 30;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    GaEngine ga(*instances[i], comparison_ga_params(kGenerations, derive_seed(seed, {i, 14})));
    run_search(ga, Budget::steps(kGenerations));
    GsaEngine gsa(*instances[i], comparison_gsa_params(kGenerations, derive_seed(seed, {i, 15})));
    run_search(gsa, Budget::steps(kGenerations));
    for (const PreparedLru* lru : {&ga.prepared_cache(), &gsa.prepared_cache()}) {
      hits += lru->hits();
      lookups += lru->hits() + lru->misses();
    }
  }
  report.set("sched.prepared_lru.hit_share",
             lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups));
}

void measure_registry_overhead(const Workload& w, std::size_t steps,
                               std::uint64_t seed, Report& report) {
  std::vector<double> without, with;
  for (std::size_t pair = 0; pair < 4; ++pair) {
    without.push_back(timed_se_solve(w, steps, seed));
    MetricsRegistry registry;
    const MetricsScope scope(&registry);
    with.push_back(timed_se_solve(w, steps, seed));
  }
  report.set("obs.registry_overhead_share", median(with) / median(without) - 1.0);
}

}  // namespace

void measure_library_layers(const std::vector<const Workload*>& instances,
                            std::size_t se_steps, std::uint64_t seed,
                            Report& report) {
  auto first = [&instances](std::size_t n) {
    return std::vector<const Workload*>(
        instances.begin(), instances.begin() + std::min(n, instances.size()));
  };
  Span span("ledger");
  measure_simd(report);
  measure_full_eval(first(3), seed, report);
  measure_se(first(4), se_steps, seed, report);
  measure_time_to_5pct(first(4), se_steps, seed, report);
  measure_engine_steps(first(2), seed, report);
  measure_prepared(first(2), seed, report);
  measure_registry_overhead(*instances.front(), se_steps, seed, report);
}

}  // namespace perfbench
