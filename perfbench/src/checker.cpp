#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

using sehc::DataId;
using sehc::MachineId;
using sehc::TaskId;
using sehc::Workload;

namespace {

/// Topological order of the DAG (Kahn); empty when the graph has a cycle.
std::vector<TaskId> topo_order(const Workload& w) {
  const std::size_t k = w.num_tasks();
  std::vector<std::size_t> indeg(k);
  std::vector<TaskId> order;
  for (TaskId t = 0; t < k; ++t) {
    indeg[t] = w.graph().in_edges(t).size();
    if (indeg[t] == 0) order.push_back(t);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (DataId d : w.graph().out_edges(order[i])) {
      const TaskId next = w.graph().edge(d).dst;
      if (--indeg[next] == 0) order.push_back(next);
    }
  }
  if (order.size() != k) order.clear();
  return order;
}

double fastest_exec(const Workload& w, TaskId t) {
  double best = w.exec(0, t);
  for (MachineId m = 1; m < w.num_machines(); ++m) best = std::min(best, w.exec(m, t));
  return best;
}

/// Per-machine task sequences ordered by `key` (ties by task id).
std::vector<std::vector<TaskId>> machine_orders(const Workload& w,
                                                const std::vector<MachineId>& machine,
                                                const std::vector<double>& key) {
  std::vector<std::vector<TaskId>> orders(w.num_machines());
  for (TaskId t = 0; t < w.num_tasks(); ++t) orders[machine[t]].push_back(t);
  for (auto& seq : orders) {
    std::sort(seq.begin(), seq.end(), [&key](TaskId a, TaskId b) {
      return key[a] != key[b] ? key[a] < key[b] : a < b;
    });
  }
  return orders;
}

/// Re-derives start/finish of every task from the model, given each task's
/// machine and each machine's task order. False when the machine orders
/// contradict the precedence constraints (no feasible list schedule).
bool rederive(const Workload& w, const std::vector<MachineId>& machine,
              const std::vector<std::vector<TaskId>>& orders,
              std::vector<double>& start, std::vector<double>& finish) {
  const std::size_t k = w.num_tasks();
  constexpr TaskId kNone = static_cast<TaskId>(-1);
  std::vector<TaskId> prev(k, kNone), next(k, kNone);
  for (const auto& seq : orders) {
    for (std::size_t i = 1; i < seq.size(); ++i) {
      prev[seq[i]] = seq[i - 1];
      next[seq[i - 1]] = seq[i];
    }
  }
  std::vector<std::size_t> waiting(k);
  std::vector<TaskId> ready;
  for (TaskId t = 0; t < k; ++t) {
    waiting[t] = w.graph().in_edges(t).size() + (prev[t] == kNone ? 0 : 1);
    if (waiting[t] == 0) ready.push_back(t);
  }
  start.assign(k, 0.0);
  finish.assign(k, 0.0);
  std::size_t done = 0;
  while (!ready.empty()) {
    const TaskId t = ready.back();
    ready.pop_back();
    ++done;
    double s = prev[t] == kNone ? 0.0 : finish[prev[t]];
    for (DataId d : w.graph().in_edges(t)) {
      const TaskId p = w.graph().edge(d).src;
      s = std::max(s, finish[p] + w.transfer(machine[p], machine[t], d));
    }
    start[t] = s;
    finish[t] = s + w.exec(machine[t], t);
    auto release = [&](TaskId u) {
      if (--waiting[u] == 0) ready.push_back(u);
    };
    for (DataId d : w.graph().out_edges(t)) release(w.graph().edge(d).dst);
    if (next[t] != kNone) release(next[t]);
  }
  return done == k;
}

std::string task_text(TaskId t) { return "task " + std::to_string(t); }

}  // namespace

std::string fixed4(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

double makespan_floor(const Workload& w) {
  const std::vector<TaskId> order = topo_order(w);
  std::vector<double> path(w.num_tasks(), 0.0);
  double longest = 0.0;
  double work = 0.0;
  for (TaskId t : order) {
    double before = 0.0;
    for (DataId d : w.graph().in_edges(t)) {
      before = std::max(before, path[w.graph().edge(d).src]);
    }
    const double fastest = fastest_exec(w, t);
    path[t] = before + fastest;
    longest = std::max(longest, path[t]);
    work += fastest;
  }
  return std::max(longest, work / static_cast<double>(w.num_machines()));
}

std::vector<std::string> check_schedule(const Workload& w,
                                        const sehc::Schedule& s,
                                        bool list_schedule) {
  std::vector<std::string> bad;
  const std::size_t k = w.num_tasks();
  if (s.assignment.size() != k || s.start.size() != k || s.finish.size() != k) {
    bad.push_back("schedule covers " + std::to_string(s.assignment.size()) +
                  " tasks, workload has " + std::to_string(k));
    return bad;
  }
  for (TaskId t = 0; t < k; ++t) {
    if (s.assignment[t] >= w.num_machines()) {
      bad.push_back(task_text(t) + " on unknown machine");
      return bad;
    }
    if (!std::isfinite(s.start[t]) || s.start[t] < 0.0) {
      bad.push_back(task_text(t) + " has an invalid start");
      return bad;
    }
    if (s.finish[t] != s.start[t] + w.exec(s.assignment[t], t)) {
      bad.push_back(task_text(t) + ": finish != start + exec");
    }
  }
  for (const sehc::DagEdge& e : w.graph().edges()) {
    const double ready =
        s.finish[e.src] + w.transfer(s.assignment[e.src], s.assignment[e.dst], e.item);
    if (s.start[e.dst] < ready) {
      bad.push_back(task_text(e.dst) + " starts before its input from " +
                    task_text(e.src) + " arrives");
    }
  }
  const auto orders = machine_orders(w, s.assignment, s.start);
  for (const auto& seq : orders) {
    for (std::size_t i = 1; i < seq.size(); ++i) {
      if (s.start[seq[i]] < s.finish[seq[i - 1]]) {
        bad.push_back(task_text(seq[i]) + " overlaps " + task_text(seq[i - 1]) +
                      " on machine " + std::to_string(s.assignment[seq[i]]));
      }
    }
  }
  const double latest = k == 0 ? 0.0 : *std::max_element(s.finish.begin(), s.finish.end());
  if (s.makespan != latest) bad.push_back("makespan != latest finish");
  if (s.makespan < makespan_floor(w) * (1.0 - 1e-12)) {
    bad.push_back("makespan below the critical-path/load floor");
  }
  if (list_schedule && bad.empty()) {
    std::vector<double> start, finish;
    if (!rederive(w, s.assignment, orders, start, finish)) {
      bad.push_back("machine orders contradict precedence");
    } else {
      for (TaskId t = 0; t < k; ++t) {
        if (start[t] != s.start[t] || finish[t] != s.finish[t]) {
          bad.push_back(task_text(t) + " is not at its model start time");
          break;
        }
      }
    }
  }
  return bad;
}

std::vector<std::string> check_served(const Workload& w,
                                      const std::string& schedule_csv,
                                      double makespan) {
  std::vector<std::string> bad;
  const std::size_t k = w.num_tasks();
  std::istringstream in(schedule_csv);
  std::string line;
  if (!std::getline(in, line) || line != "task,name,machine,start,finish") {
    return {"schedule CSV header missing"};
  }
  std::vector<MachineId> machine(k);
  std::vector<double> printed_start(k);
  std::vector<std::string> start_text(k), finish_text(k);
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    // task is the first field; machine, start and finish are the last three
    // (a task name may itself hold commas).
    const std::size_t c1 = line.find(',');
    const std::size_t c4 = line.rfind(',');
    const std::size_t c3 = c4 == std::string::npos ? c4 : line.rfind(',', c4 - 1);
    const std::size_t c2 = c3 == std::string::npos ? c3 : line.rfind(',', c3 - 1);
    if (c1 == std::string::npos || c2 == std::string::npos || c2 < c1 ||
        c3 <= c2 || c4 <= c3) {
      return {"malformed schedule CSV row: " + line};
    }
    try {
      const std::size_t task = std::stoul(line.substr(0, c1));
      if (task != rows || task >= k) return {"schedule CSV rows out of task order"};
      machine[task] = static_cast<MachineId>(std::stoul(line.substr(c2 + 1, c3 - c2 - 1)));
      if (machine[task] >= w.num_machines()) return {task_text(task) + " on unknown machine"};
      start_text[task] = line.substr(c3 + 1, c4 - c3 - 1);
      finish_text[task] = line.substr(c4 + 1);
      printed_start[task] = std::stod(start_text[task]);
    } catch (const std::exception&) {
      return {"malformed schedule CSV row: " + line};
    }
    ++rows;
  }
  if (rows != k) return {"schedule CSV has " + std::to_string(rows) + " rows"};

  sehc::Schedule exact;
  exact.assignment = machine;
  if (!rederive(w, machine, machine_orders(w, machine, printed_start), exact.start,
                exact.finish)) {
    return {"machine orders contradict precedence"};
  }
  for (TaskId t = 0; t < k; ++t) {
    if (fixed4(exact.start[t]) != start_text[t] || fixed4(exact.finish[t]) != finish_text[t]) {
      bad.push_back(task_text(t) + " is not at its model start time");
      break;
    }
  }
  exact.makespan = *std::max_element(exact.finish.begin(), exact.finish.end());
  if (makespan != exact.makespan) bad.push_back("makespan != latest finish");
  for (std::string& v : check_schedule(w, exact, true)) bad.push_back(std::move(v));
  return bad;
}

}  // namespace perfbench
