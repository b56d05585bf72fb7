#include "sched/evaluator.h"

#include <algorithm>

namespace sehc {

Evaluator::Model::Model(const Workload& w)
    : workload(&w),
      num_tasks(w.num_tasks()),
      num_machines(w.num_machines()),
      exec(w.exec_matrix().flat().data()) {
  const TaskGraph& g = w.graph();
  const std::size_t k = num_tasks;
  const std::size_t l = num_machines;
  const std::size_t p = w.num_items();

  // Flatten the incoming adjacency in in_edges() order so the max-reduction
  // over predecessors runs in exactly the order of the naive loop.
  pred_off.resize(k + 1);
  pred_src.reserve(p);
  pred_item.reserve(p);
  for (TaskId t = 0; t < k; ++t) {
    pred_off[t] = static_cast<std::uint32_t>(pred_src.size());
    for (DataId d : g.in_edges(t)) {
      pred_src.push_back(g.edge(d).src);
      pred_item.push_back(d);
    }
  }
  pred_off[k] = static_cast<std::uint32_t>(pred_src.size());

  // Machine-pair -> transfer row pointer table; the diagonal resolves to the
  // zero row so same-machine transfers cost 0.0 without a branch.
  zero_row.assign(std::max<std::size_t>(p, 1), 0.0);
  pair_row.assign(l * l, zero_row.data());
  const double* tr = w.transfer_matrix().flat().data();
  for (MachineId a = 0; a < l; ++a) {
    for (MachineId b = 0; b < l; ++b) {
      if (a != b) pair_row[a * l + b] = tr + pair_index(l, a, b) * p;
    }
  }
}

Evaluator::Evaluator(const Workload& w)
    : model_(std::make_shared<const Model>(w)),
      finish_(w.num_tasks(), 0.0),
      machine_avail_(w.num_machines(), 0.0) {}

template <class Sink>
double Evaluator::simulate(const SolutionString& s, std::size_t from,
                           std::size_t to, double* finish, double* avail,
                           double makespan, Sink&& sink) const {
  const Model& md = *model_;
  const Segment* const segs = s.segments().data();
  const std::size_t* const pos = s.positions().data();
  const auto pred = [segs, pos, finish](TaskId src) {
    return Pred{finish[src], segs[pos[src]].machine};
  };
  for (std::size_t i = from; i < to; ++i) {
    const TaskId t = segs[i].task;
    const MachineId m = segs[i].machine;
    const Times r = md.schedule(t, m, avail[m], pred);
    finish[t] = r.finish;
    avail[m] = r.finish;
    makespan = std::max(makespan, r.finish);
    sink(i, t, r, makespan);
  }
  return makespan;
}

void Evaluator::evaluate_into(const SolutionString& s,
                              ScheduleTimes& out) const {
  const std::size_t k = model_->num_tasks;
  SEHC_CHECK(s.size() == k, "Evaluator: string size mismatch");
  ++trial_count_;
  out.start.assign(k, 0.0);
  out.finish.assign(k, 0.0);
  std::fill(machine_avail_.begin(), machine_avail_.end(), 0.0);
  double* const start = out.start.data();
  out.makespan =
      simulate(s, 0, k, out.finish.data(), machine_avail_.data(), 0.0,
               [start](std::size_t, TaskId t, const Times& r, double) {
                 start[t] = r.start;
               });
}

ScheduleTimes Evaluator::evaluate(const SolutionString& s) const {
  ScheduleTimes out;
  evaluate_into(s, out);
  return out;
}

double Evaluator::makespan(const SolutionString& s) const {
  const std::size_t k = model_->num_tasks;
  SEHC_CHECK(s.size() == k, "Evaluator: string size mismatch");
  ++trial_count_;
  std::fill(machine_avail_.begin(), machine_avail_.end(), 0.0);
  return simulate(s, 0, k, finish_.data(), machine_avail_.data(), 0.0,
                  [](std::size_t, TaskId, const Times&, double) {});
}

void Evaluator::reset_trial_state() const {
  // clear() keeps capacity: the buffers are re-filled by the next
  // begin_trials()/prepare() without reallocating, and ready()/the
  // checkpoint prefix report "no state" until then.
  cp_avail_.clear();
  cp_makespan_ = 0.0;
  cp_prefix_ = 0;
  prepared_.avail_rows.clear();
  prepared_.prefix_makespan.clear();
  prepared_.finish.clear();
  trial_count_ = 0;
}

void Evaluator::begin_trials(const SolutionString& s,
                             std::size_t prefix) const {
  SEHC_CHECK(s.size() == model_->num_tasks, "Evaluator: string size mismatch");
  SEHC_CHECK(prefix <= s.size(), "Evaluator: prefix out of range");
  // The same walk extend_checkpoint() takes one segment at a time, run over
  // the whole prefix in one call.
  cp_avail_.assign(model_->num_machines, 0.0);
  cp_makespan_ = simulate(s, 0, prefix, finish_.data(), cp_avail_.data(), 0.0,
                          [](std::size_t, TaskId, const Times&, double) {});
  cp_prefix_ = prefix;
}

void Evaluator::extend_checkpoint(const SolutionString& s) const {
  SEHC_ASSERT_MSG(cp_prefix_ < s.size(),
                  "Evaluator::extend_checkpoint: checkpoint already full");
  cp_makespan_ = simulate(s, cp_prefix_, cp_prefix_ + 1, finish_.data(),
                          cp_avail_.data(), cp_makespan_,
                          [](std::size_t, TaskId, const Times&, double) {});
  ++cp_prefix_;
}

void Evaluator::prepare(const SolutionString& s, PreparedState& state) const {
  SEHC_CHECK(s.size() == model_->num_tasks, "Evaluator: string size mismatch");
  const std::size_t k = model_->num_tasks;
  const std::size_t l = model_->num_machines;
  if (state.avail_rows.size() != (k + 1) * l) {
    state.avail_rows.assign((k + 1) * l, 0.0);
    state.prefix_makespan.assign(k + 1, 0.0);
    state.finish.assign(k, 0.0);
  }
  std::fill_n(state.avail_rows.begin(), l, 0.0);
  state.prefix_makespan[0] = 0.0;
  if (k > 0) refresh_from(s, 0, state);
}

void Evaluator::refresh_from(const SolutionString& s, std::size_t from,
                             PreparedState& state) const {
  SEHC_ASSERT_MSG(state.ready(),
                  "Evaluator::refresh_from: prepare() not called");
  SEHC_ASSERT_MSG(from < s.size(), "Evaluator::refresh_from: bad position");
  const std::size_t l = model_->num_machines;
  double* const rows = state.avail_rows.data();
  double* const prefix_makespan = state.prefix_makespan.data();
  // Work on machine_avail_ and copy each advanced state into its row.
  double* const avail = machine_avail_.data();
  std::copy_n(rows + from * l, l, avail);
  simulate(s, from, s.size(), state.finish.data(), avail,
           prefix_makespan[from],
           [=](std::size_t i, TaskId, const Times&, double makespan) {
             std::copy_n(avail, l, rows + (i + 1) * l);
             prefix_makespan[i + 1] = makespan;
           });
}

ScheduleTimes evaluate_schedule(const Workload& w, const SolutionString& s) {
  return Evaluator(w).evaluate(s);
}

double schedule_makespan(const Workload& w, const SolutionString& s) {
  return Evaluator(w).makespan(s);
}

}  // namespace sehc
