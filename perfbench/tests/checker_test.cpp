// The independent checker must accept what the library produces and reject
// hand-corrupted schedules: a broken precedence, an overlap, a wrong
// makespan, a task started later than the model allows, and a served CSV
// whose printed times or makespan were altered.
//
//   ctest --test-dir .bench_build/perfbench   (or run checker_test directly)
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "checker.h"
#include "exp/trace_io.h"
#include "heuristics/heft.h"
#include "heuristics/scheduler.h"
#include "workload/generator.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAILED: " << what << '\n';
  }
}

bool mentions(const std::vector<std::string>& violations, const std::string& text) {
  return std::any_of(violations.begin(), violations.end(), [&](const std::string& v) {
    return v.find(text) != std::string::npos;
  });
}

sehc::Workload make_instance() {
  sehc::WorkloadParams params;
  params.tasks = 30;
  params.machines = 4;
  params.ccr = 1.0;
  params.seed = 5;
  return sehc::make_workload(params);
}

sehc::Schedule se_schedule(const sehc::Workload& w) {
  const sehc::Budget budget = sehc::Budget::steps(5);
  const auto engine = sehc::make_search_engine("SE", w, budget, 3);
  return sehc::run_search(*engine, budget).schedule;
}

}  // namespace

int main() {
  using perfbench::check_schedule;
  using perfbench::check_served;
  const sehc::Workload w = make_instance();
  const sehc::Schedule good = se_schedule(w);

  expect(check_schedule(w, good, true).empty(), "SE schedule accepted");
  expect(check_schedule(w, sehc::heft_schedule(w), false).empty(), "HEFT schedule accepted");
  expect(good.makespan >= perfbench::makespan_floor(w), "floor below the SE makespan");

  {  // A consumer moved ahead of its producer's data.
    sehc::Schedule bad = good;
    const sehc::DagEdge e = w.graph().edges()[0];
    const double ready =
        bad.finish[e.src] + w.transfer(bad.assignment[e.src], bad.assignment[e.dst], e.item);
    const double shift = std::min(bad.start[e.dst], bad.start[e.dst] - ready + 1.0);
    bad.start[e.dst] -= shift;
    bad.finish[e.dst] = bad.start[e.dst] + w.exec(bad.assignment[e.dst], e.dst);
    expect(mentions(check_schedule(w, bad, true), "before its input"),
           "broken precedence rejected");
  }
  {  // Two tasks on one machine at the same time.
    sehc::Schedule bad = good;
    const auto seqs = bad.machine_sequences(w.num_machines());
    const auto it = std::find_if(seqs.begin(), seqs.end(),
                                 [](const auto& seq) { return seq.size() >= 2; });
    expect(it != seqs.end(), "some machine runs two tasks");
    if (it != seqs.end()) {
      const sehc::TaskId first = (*it)[0], second = (*it)[1];
      bad.start[second] = bad.start[first] + 0.5 * (bad.finish[first] - bad.start[first]);
      bad.finish[second] = bad.start[second] + w.exec(bad.assignment[second], second);
      expect(mentions(check_schedule(w, bad, true), "overlaps"), "overlap rejected");
    }
  }
  {  // A makespan that is not the latest finish.
    sehc::Schedule bad = good;
    bad.makespan += 1.0;
    expect(mentions(check_schedule(w, bad, true), "makespan != latest finish"),
           "wrong makespan rejected");
  }
  {  // The last task started later than its machine order allows.
    sehc::Schedule bad = good;
    const auto last = static_cast<sehc::TaskId>(
        std::max_element(bad.finish.begin(), bad.finish.end()) - bad.finish.begin());
    bad.start[last] += 1.0;
    bad.finish[last] = bad.start[last] + w.exec(bad.assignment[last], last);
    bad.makespan = bad.finish[last];
    const auto violations = check_schedule(w, bad, true);
    expect(mentions(violations, "not at its model start time"), "late start rejected");
    expect(check_schedule(w, bad, false).empty(), "late start is still feasible");
  }
  {  // Served CSV: accepted as written, rejected once altered.
    std::ostringstream os;
    sehc::write_schedule_csv(os, w, good);
    const std::string csv = os.str();
    expect(check_served(w, csv, good.makespan).empty(), "served CSV accepted");
    expect(mentions(check_served(w, csv, good.makespan + 1e-9), "makespan"),
           "served makespan off by 1e-9 rejected");
    std::string altered = csv;
    const std::size_t row_end = altered.find('\n', altered.find('\n') + 1);
    altered[row_end - 1] = altered[row_end - 1] == '9' ? '8' : '9';
    expect(!check_served(w, altered, good.makespan).empty(), "altered finish rejected");
    expect(!check_served(w, "task,name,machine,start,finish\n", good.makespan).empty(),
           "missing rows rejected");
  }

  if (failures == 0) std::cout << "checker_test: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
