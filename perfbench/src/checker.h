// Independent output checker.
//
// Every schedule a solve returns is checked against the paper's model using
// nothing but the Workload accessors (graph edges, exec(m, t),
// transfer(a, b, d)); no evaluator, validator or bound of the library is
// consulted. Under the model a task starts at
//
//   max(finish of the previous task on its machine,
//       max over predecessors p of finish(p) + Tr(m(p), m(t), item))
//
// with Tr = 0 on the same machine, and finishes exec(m, t) later.
#pragma once

#include <string>
#include <vector>

#include "hc/workload.h"
#include "sched/schedule.h"

namespace perfbench {

/// `v` printed with four decimals, as campaign stores and schedule CSVs
/// print times.
std::string fixed4(double v);

/// A makespan no schedule of `w` can beat: the larger of the longest
/// DAG path with every task on its fastest machine and no communication,
/// and the total fastest-machine work spread evenly over all machines.
double makespan_floor(const sehc::Workload& w);

/// Checks sizes and machine ids, finish = start + exec, precedence including
/// transfer times, no two tasks overlapping on one machine, makespan equal
/// to the latest finish (exactly) and not below makespan_floor(). With
/// `list_schedule` (string-encoded solves, which start every task as early
/// as its machine order allows) it also re-derives every start and finish
/// from the per-machine order and requires them bit for bit. Returns the
/// violations found; empty means the schedule is valid.
std::vector<std::string> check_schedule(const sehc::Workload& w,
                                        const sehc::Schedule& s,
                                        bool list_schedule);

/// Checks a served schedule: the response's CSV rows (times printed with
/// four decimals) and its exact makespan. Machine orders come from the
/// printed starts; every time is re-derived exactly and must print as the
/// CSV does, and the makespan must equal the latest re-derived finish.
std::vector<std::string> check_served(const sehc::Workload& w,
                                      const std::string& schedule_csv,
                                      double makespan);

}  // namespace perfbench
