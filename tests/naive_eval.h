// The naive reference evaluator the differential suites compare against,
// plus single-trial helpers for the evaluator's trial modes.
//
// naive_evaluate() is the pre-engine evaluation loop: one string pass
// through the graph's in_edges() -> edge(d) double indirection. It shares
// no code with Evaluator's CSR path or its one scheduling recurrence, so a
// bug in either cannot hide behind the other.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "hc/workload.h"
#include "sched/encoding.h"
#include "sched/evaluator.h"

namespace sehc {

inline ScheduleTimes naive_evaluate(const Workload& w,
                                    const SolutionString& s) {
  const TaskGraph& g = w.graph();
  ScheduleTimes out;
  out.start.assign(w.num_tasks(), 0.0);
  out.finish.assign(w.num_tasks(), 0.0);
  std::vector<double> machine_avail(w.num_machines(), 0.0);
  for (const Segment& seg : s.segments()) {
    const TaskId t = seg.task;
    const MachineId m = seg.machine;
    double ready = 0.0;
    for (DataId d : g.in_edges(t)) {
      const DagEdge& e = g.edge(d);
      const MachineId pm = s.machine_of(e.src);
      ready = std::max(ready, out.finish[e.src] + w.transfer(pm, m, d));
    }
    const double start = std::max(ready, machine_avail[m]);
    const double finish = start + w.exec(m, t);
    out.start[t] = start;
    out.finish[t] = finish;
    machine_avail[m] = finish;
    out.makespan = std::max(out.makespan, finish);
  }
  return out;
}

inline double naive_makespan(const Workload& w, const SolutionString& s) {
  return naive_evaluate(w, s).makespan;
}

/// The pruning contract applied to the reference: the exact makespan when it
/// is <= bound, +infinity when it strictly exceeds it. Because the running
/// makespan is monotone in the segment index, a pruned trial is exactly one
/// whose final makespan exceeds the bound.
inline double naive_trial(const Workload& w, const SolutionString& s,
                          double bound) {
  const double exact = naive_makespan(w, s);
  return exact > bound ? std::numeric_limits<double>::infinity() : exact;
}

/// One explicit-string trial on top of `eval`'s rolling checkpoint.
inline double checkpoint_trial(
    const Evaluator& eval, const SolutionString& s,
    double bound = std::numeric_limits<double>::infinity()) {
  Evaluator::TrialBatch batch(eval);
  batch.begin_checkpoint(s);
  batch.add_string(s, 0);
  return batch.evaluate(bound)[0];
}

/// One explicit-string trial, simulated from position `from` on top of
/// `eval`'s default prepared state (`s` differs from the prepared string
/// only at positions >= from).
inline double prepared_trial(
    const Evaluator& eval, const SolutionString& s, std::size_t from,
    double bound = std::numeric_limits<double>::infinity()) {
  Evaluator::TrialBatch batch(eval);
  batch.begin_prepared(s);
  batch.add_string(s, from);
  return batch.evaluate(bound)[0];
}

}  // namespace sehc
