// campaign-mix: run_campaign at 2 threads into file-backed stores, one
// equal-evaluation-budget spec over two small classes with all six stepwise
// searchers plus HEFT. The prepared-trial and add_string trial modes,
// PreparedLru, the thread pool and the store and metrics-sidecar appends
// carry most of the work; SE's checkpoint sweep is a small part of it.
#include <memory>
#include <sstream>

#include "checker.h"
#include "exp/campaign.h"
#include "exp/result_store.h"
#include "exp/sweep.h"
#include "heuristics/heft.h"
#include "heuristics/scheduler.h"
#include "ledger.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

using namespace sehc;

namespace {

constexpr std::size_t kThreads = 2;
constexpr std::size_t kRepetitions = 5;
constexpr std::size_t kEvalBudget = 30000;
/// SE step budget of the traced SE replay on this workload's instances.
constexpr std::size_t kLedgerSeSteps = 20;

CampaignClass make_class(const std::string& name, std::size_t tasks, Level conn,
                         Level het, double ccr) {
  CampaignClass c;
  c.name = name;
  c.params.tasks = tasks;
  c.params.machines = 8;
  c.params.connectivity = conn;
  c.params.heterogeneity = het;
  c.params.ccr = ccr;
  return c;
}

CampaignSpec make_spec(std::uint64_t seed) {
  CampaignSpec spec;
  spec.name = "perfbench-campaign-mix";
  spec.classes = {make_class("k40-high-medium-0.5", 40, Level::kHigh, Level::kMedium, 0.5),
                  make_class("k60-low-high-1.0", 60, Level::kLow, Level::kHigh, 1.0)};
  spec.schedulers = {"SE", "GA", "GSA", "SA", "Tabu", "Random", "HEFT"};
  spec.repetitions = kRepetitions;
  spec.iterations = 0;
  spec.eval_budget = kEvalBudget;
  spec.curve_points = 10;
  spec.base_seed = derive_seed(seed, {7});
  return spec;
}

/// Deterministic fields of a record (everything but the wall-clock seconds).
std::vector<std::string> identity(const CampaignRecord& rec) {
  std::vector<std::string> fields = rec.to_row().fields;
  fields.pop_back();
  return fields;
}

struct Round {
  std::vector<CampaignRecord> records;
  double wall_s = 0.0;
  std::string canonical;
};

Round run_round(const CampaignSpec& spec, const std::string& path,
                std::size_t threads, Report& report) {
  Round round;
  const Clock::time_point t0 = Clock::now();
  ResultStore store = ResultStore::open(path, spec.store_schema());
  CampaignRunOptions options;
  options.threads = threads;
  CampaignRunSummary summary;
  {
    Span span("run_campaign");
    summary = run_campaign(spec, store, options);
  }
  round.wall_s = seconds_between(t0, Clock::now());
  for (std::size_t i = 0; i < summary.failed_cells; ++i) {
    report.fail("campaign cell quarantined: " +
                (i < summary.quarantined.size() ? summary.quarantined[i].error : ""));
  }
  round.records = campaign_records(store);
  std::ostringstream canonical;
  store.write_canonical(canonical);
  round.canonical = canonical.str();
  return round;
}

}  // namespace

void run_campaign_mix(const Args& args, Report& report) {
  const WorkDir dir("campaign-mix");
  const CampaignSpec spec = make_spec(args.seed);
  const std::size_t cells = spec.grid().num_cells();

  // The instances the campaign derives from (class, rep), rebuilt here for
  // the HEFT references and for reproducing cells outside the campaign.
  std::vector<Workload> instances;
  std::vector<double> heft;
  double heft_s = 0.0;
  std::size_t setups = 0;
  const double setup_s = median_setup_seconds(3, [&] {
    instances.clear();
    heft.clear();
    heft_s = 0.0;
    for (std::size_t c = 0; c < spec.classes.size(); ++c) {
      for (std::size_t r = 0; r < kRepetitions; ++r) {
        WorkloadParams params = spec.classes[c].params;
        params.seed = derive_seed(spec.base_seed, {c, r});
        instances.push_back(make_workload(params));
        const Clock::time_point t0 = Clock::now();
        heft.push_back(heft_schedule(instances.back()).makespan);
        heft_s += seconds_between(t0, Clock::now());
      }
    }
    // Warm-up: the same grid at a small budget, through the same path.
    CampaignSpec warm = spec;
    warm.eval_budget = 2000;
    ResultStore store = ResultStore::open(
        dir.path() + "/warmup-" + std::to_string(setups++) + ".csv", warm.store_schema());
    CampaignRunOptions options;
    options.threads = kThreads;
    run_campaign(warm, store, options);
  });
  auto instance_of = [&](const CampaignRecord& rec) {
    const std::size_t c = rec.cell / (kRepetitions * spec.schedulers.size());
    return c * kRepetitions + rec.repetition;
  };

  Round first;
  std::size_t round_files = 0;
  std::vector<double> cell_ms;
  std::vector<double> vs_heft;
  std::vector<double> round_cells_per_s;
  std::vector<double> round_trials_per_s;
  double wall_s = 0.0;
  double cell_s = 0.0;
  auto run_phase = [&](double seconds, std::size_t rounds) {
    return run_rounds(seconds, rounds, [&](std::size_t) {
      Round round = run_round(
          spec, dir.path() + "/round-" + std::to_string(round_files++) + ".csv",
          kThreads, report);
      report.add_attempted(cells);
      wall_s += round.wall_s;
      double searcher_s = 0.0;
      std::uint64_t evals = 0;
      for (const CampaignRecord& rec : round.records) {
        cell_ms.push_back(rec.seconds * 1e3);
        cell_s += rec.seconds;
        if (rec.scheduler != "HEFT") {
          searcher_s += rec.seconds;
          evals += rec.evals;
        }
      }
      round_cells_per_s.push_back(static_cast<double>(round.records.size()) / round.wall_s);
      round_trials_per_s.push_back(static_cast<double>(evals) / searcher_s);
      if (first.records.empty()) {
        for (const CampaignRecord& rec : round.records) {
          if (rec.scheduler != "HEFT") vs_heft.push_back(rec.makespan / heft[instance_of(rec)]);
        }
        first = std::move(round);
        return;
      }
      // Every round runs the same spec, so each must reproduce round 0.
      for (std::size_t i = 0; i < round.records.size(); ++i) {
        if (i >= first.records.size() ||
            identity(round.records[i]) != identity(first.records[i])) {
          report.fail("campaign cell " + std::to_string(round.records[i].cell) +
                      " differs from round 0");
        }
      }
    });
  };

  std::size_t rounds = 0;
  if (args.trace) {
    rounds = run_phase(args.seconds / 2.0, 0);
  } else {
    rounds = run_phase(args.seconds, 0);
  }
  const double untraced_wall = wall_s;
  const std::vector<double> untraced_ms = cell_ms;
  const double busy = cell_s / (static_cast<double>(kThreads) * wall_s);
  const double overhead_ms =
      (static_cast<double>(kThreads) * wall_s - cell_s) * 1e3 / static_cast<double>(cell_ms.size());

  // Outputs: every cell of round 0, reproduced outside the campaign and
  // checked; a bad cell fails in every round, since all rounds match it.
  if (first.records.size() != cells) report.invalid("campaign stored a partial grid");
  std::vector<std::string> bad_cells;
  for (const CampaignRecord& rec : first.records) {
    const std::size_t idx = instance_of(rec);
    const Workload& w = instances[idx];
    std::string problem;
    WorkloadParams params = spec.classes[idx / kRepetitions].params;
    params.seed = derive_seed(spec.base_seed, {idx / kRepetitions, rec.repetition});
    if (rec.workload_seed != params.seed) problem = "instance seed differs from the spec's";
    Schedule schedule;
    std::uint64_t direct_evals = 0;
    if (rec.scheduler == "HEFT") {
      schedule = heft_schedule(w);
    } else {
      const Budget budget = Budget::evals(kEvalBudget);
      const auto engine = make_search_engine(rec.scheduler, w, budget, rec.scheduler_seed);
      const SearchResult result = run_search(*engine, budget);
      schedule = result.schedule;
      direct_evals = result.evals;
    }
    const auto violations = check_schedule(w, schedule, rec.scheduler != "HEFT");
    if (!violations.empty()) problem = violations.front();
    if (fixed4(schedule.makespan) != fixed4(rec.makespan) || direct_evals != rec.evals) {
      problem = "differs from a direct run_search of the same cell";
    }
    if (rec.makespan < rec.lower_bound) problem = "makespan below the store's lower bound";
    if (!problem.empty()) {
      bad_cells.push_back("campaign cell " + std::to_string(rec.cell) + " (" +
                          rec.scheduler + "): " + problem);
    }
  }
  auto fail_bad_cells = [&](std::size_t rounds_run) {
    for (std::size_t r = 0; r < rounds_run; ++r) {
      for (const std::string& why : bad_cells) report.fail(why);
    }
  };

  if (!args.trace) {
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mib());
    report.set("solve_p50_ms", quantile(cell_ms, 0.5));
    report.set("solve_p90_ms", quantile(cell_ms, 0.9));
    report.set("solves_per_s", median(round_cells_per_s));
    report.set("trials_per_s", median(round_trials_per_s));
    report.set("makespan_vs_heft", geomean(vs_heft));
    fail_bad_cells(rounds);
    return;
  }

  Tracer::instance().set_enabled(true);
  run_phase(0.0, rounds);
  fail_bad_cells(2 * rounds);
  std::vector<double> traced_ms(cell_ms.begin() + static_cast<std::ptrdiff_t>(untraced_ms.size()),
                                cell_ms.end());
  report.set("trace.overhead_share", median(traced_ms) / median(untraced_ms) - 1.0);
  report.set("heuristics.heft_ms", heft_s * 1e3 / static_cast<double>(instances.size()));
  report.set("exp.campaign.cell_p50_ms", quantile(untraced_ms, 0.5));
  report.set("exp.campaign.busy_share", busy);
  report.set("exp.campaign.overhead_ms_per_cell", overhead_ms);

  // One thread: the scaling baseline, and the canonical store must match
  // the 2-thread one byte for byte.
  const Round single = run_round(spec, dir.path() + "/single-thread.csv", 1, report);
  report.add_attempted(cells);
  if (single.canonical != first.canonical) {
    report.invalid("canonical store differs between 1 and 2 threads");
  }
  const double t1_cells_per_s = static_cast<double>(cells) / single.wall_s;
  report.set("exp.campaign.t1_cells_per_s", t1_cells_per_s);
  report.set("exp.campaign.scaling_t2",
             static_cast<double>(untraced_ms.size()) / untraced_wall / t1_cells_per_s);

  std::vector<const Workload*> ledger_inputs;
  for (const Workload& w : instances) ledger_inputs.push_back(&w);
  measure_library_layers(ledger_inputs, kLedgerSeSteps, args.seed, report);
}

}  // namespace perfbench
