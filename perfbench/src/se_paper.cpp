// se-paper: single-threaded SE solves through run_search with a step
// budget on the paper's Figure 5-7 classes (k=100, l=20). The TrialBatch
// sweep and SE's three operators do almost all of the work; no campaign or
// serve code runs.
#include <bit>
#include <memory>

#include "checker.h"
#include "exp/sweep.h"
#include "heuristics/heft.h"
#include "heuristics/scheduler.h"
#include "ledger.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

using namespace sehc;

namespace {

/// Instances per class. A run cycles through the pool, so its quantiles
/// cover as many distinct instances as it has solves (about 90 per class in
/// 30 s) and the seed's draw of instances moves them little.
constexpr std::size_t kPerClass = 100;
/// Instances of each class per round. Rounds of 30 solves (~3 s) are long
/// enough that the median over rounds of a round's rate shrugs off the
/// seconds-long bursts of a shared machine.
constexpr std::size_t kRoundPerClass = 10;
constexpr std::size_t kSteps = 20;
/// makespan_vs_heft covers the instances of the first rounds only, so it
/// does not depend on how many rounds fit in the run.
constexpr std::size_t kQualityRounds = 2;

struct Instance {
  Workload workload;
  double heft = 0.0;
  std::uint64_t solve_seed = 0;
};

struct Outcome {
  double best = 0.0;
  std::size_t evals = 0;
};

struct Phase {
  std::vector<double> solve_ms;
  std::vector<double> round_solves_per_s;
  std::vector<double> round_trials_per_s;
};

}  // namespace

void run_se_paper(const Args& args, Report& report) {
  WorkloadParams (*const classes[])(std::uint64_t) = {
      &paper_fig5_high_connectivity, &paper_fig6_ccr1, &paper_fig7_low_everything};
  constexpr std::size_t kClasses = 3;
  const Budget budget = Budget::steps(kSteps);

  // instances[i * kClasses + c]: the i-th instance of class c.
  std::vector<Instance> instances;
  double heft_s = 0.0;
  const double setup_s = median_setup_seconds(3, [&] {
    instances.clear();
    heft_s = 0.0;
    for (std::size_t i = 0; i < kPerClass; ++i) {
      for (std::size_t c = 0; c < kClasses; ++c) {
        Instance inst;
        inst.workload = make_workload(classes[c](derive_seed(args.seed, {c, i})));
        const Clock::time_point t0 = Clock::now();
        inst.heft = heft_schedule(inst.workload).makespan;
        heft_s += seconds_between(t0, Clock::now());
        inst.solve_seed = derive_seed(args.seed, {c, i, 1});
        instances.push_back(std::move(inst));
      }
    }
    // Warm-up: one solve, so code and allocator caches are warm.
    const auto engine = make_search_engine("SE", instances[0].workload, budget,
                                           instances[0].solve_seed);
    run_search(*engine, budget);
  });

  // An instance solved again must reproduce its first solve exactly.
  std::vector<Outcome> first(instances.size());
  std::size_t next_round = 0;
  auto run_phase = [&](double seconds, std::size_t rounds, Phase& phase) {
    const std::size_t done = run_rounds(seconds, rounds, [&](std::size_t) {
      Span round_span("se-paper.round");
      const std::size_t round = next_round++;
      double round_solve_s = 0.0;
      std::size_t round_evals = 0;
      const Clock::time_point r0 = Clock::now();
      for (std::size_t j = 0; j < kRoundPerClass * kClasses; ++j) {
        const std::size_t i = (round * kRoundPerClass * kClasses + j) % instances.size();
        const Instance& inst = instances[i];
        const auto engine =
            make_search_engine("SE", inst.workload, budget, inst.solve_seed);
        SearchResult result;
        const Clock::time_point s0 = Clock::now();
        {
          Span span("run_search");
          result = run_search(*engine, budget);
        }
        const double solve_s = seconds_between(s0, Clock::now());
        phase.solve_ms.push_back(solve_s * 1e3);
        round_solve_s += solve_s;
        round_evals += result.evals;

        const std::string where = "se-paper instance " + std::to_string(i);
        const auto violations = check_schedule(inst.workload, result.schedule, true);
        if (!violations.empty()) {
          report.fail(where + ": " + violations.front());
        } else if (result.best_makespan != result.schedule.makespan) {
          report.fail(where + ": reported makespan differs from its schedule");
        } else if (first[i].evals == 0) {
          first[i] = {result.best_makespan, result.evals};
        } else if (std::bit_cast<std::uint64_t>(first[i].best) !=
                       std::bit_cast<std::uint64_t>(result.best_makespan) ||
                   first[i].evals != result.evals) {
          report.fail(where + ": differs from its first solve");
        }
      }
      phase.round_solves_per_s.push_back(static_cast<double>(kRoundPerClass * kClasses) /
                                         seconds_between(r0, Clock::now()));
      phase.round_trials_per_s.push_back(static_cast<double>(round_evals) / round_solve_s);
    });
    report.add_attempted(done * kRoundPerClass * kClasses);
    return done;
  };

  Phase untraced;
  if (!args.trace) {
    run_phase(args.seconds, 0, untraced);
    // Invariance: round 0's instances solved again must match bit for bit.
    next_round = 0;
    Phase again;
    run_phase(0.0, 1, again);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mib());
    report.set("solve_p50_ms", quantile(untraced.solve_ms, 0.5));
    report.set("solve_p90_ms", quantile(untraced.solve_ms, 0.9));
    report.set("solves_per_s", median(untraced.round_solves_per_s));
    report.set("trials_per_s", median(untraced.round_trials_per_s));
    std::vector<double> vs_heft;
    for (std::size_t i = 0; i < kQualityRounds * kRoundPerClass * kClasses; ++i) {
      if (first[i].evals > 0) vs_heft.push_back(first[i].best / instances[i].heft);
    }
    report.set("makespan_vs_heft", geomean(vs_heft));
    return;
  }

  const std::size_t rounds = run_phase(args.seconds / 2.0, 0, untraced);
  Phase traced;
  next_round = 0;  // the traced half replays the untraced half's instances
  Tracer::instance().set_enabled(true);
  run_phase(0.0, rounds, traced);
  report.set("trace.overhead_share", median(traced.solve_ms) / median(untraced.solve_ms) - 1.0);
  report.set("heuristics.heft_ms", heft_s * 1e3 / static_cast<double>(instances.size()));
  std::vector<const Workload*> ledger_inputs;
  for (const Instance& inst : instances) ledger_inputs.push_back(&inst.workload);
  measure_library_layers(ledger_inputs, kSteps, args.seed, report);
}

}  // namespace perfbench
