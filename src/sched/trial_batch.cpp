// Evaluator::TrialBatch — the batched structure-of-arrays trial kernel.
//
// The uniform kernel sweeps positions in the outer loop and live trials in
// the inner loop; the general kernel runs one trial after another. Either
// way every trial runs the evaluator's one scheduling recurrence
// (Evaluator::Model::schedule, or its strip form) with its own predecessor
// source; trials are mutually independent, so each result is bit-identical
// to a from-scratch evaluation of the trial string — including the pruning
// contract (strictly-greater-than-bound => +infinity) and one trial-counter
// increment per trial. The ready-time max-reduction may be re-ordered
// between shared and per-lane predecessors: every operand is a non-negative
// finite double (no -0.0, no NaN), for which max is order-independent down
// to the bit pattern.
//
// tests/test_trial_batch.cpp pins batch-vs-naive-reference bit-identity for
// every trial kind, both modes, and the edge cases (empty batch, all
// pruned, mixed prune/survive compaction, checkpoint-spanning batches,
// counter exactness).
#include "sched/evaluator.h"

#include <algorithm>
#include <limits>
#include <string>

namespace sehc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Evaluator::TrialBatch::TrialBatch(const Evaluator& eval)
    : eval_(&eval),
      kernel_(resolve_kernel(kernel_choice_from_env())),
      ops_(&batch_kernel_ops(kernel_)) {}

void Evaluator::TrialBatch::set_kernel(KernelChoice choice) {
  kernel_ = resolve_kernel(choice);
  ops_ = &batch_kernel_ops(kernel_);
  kernel_gauge_recorded_ = false;
}

void Evaluator::TrialBatch::begin_checkpoint(const SolutionString& base) {
  base_ = &base;
  state_ = nullptr;
  trials_.clear();
}

void Evaluator::TrialBatch::begin_prepared(const SolutionString& base) {
  begin_prepared(base, eval_->prepared_);
}

void Evaluator::TrialBatch::begin_prepared(const SolutionString& base,
                                           const PreparedState& state) {
  base_ = &base;
  state_ = &state;
  trials_.clear();
}

void Evaluator::TrialBatch::add_reassign(TaskId t, MachineId m) {
  Trial tr;
  tr.kind = Kind::kReassign;
  tr.task = t;
  tr.machine = m;
  trials_.push_back(tr);
}

void Evaluator::TrialBatch::add_move(TaskId t, std::size_t new_pos,
                                     MachineId new_machine) {
  Trial tr;
  tr.kind = Kind::kMove;
  tr.task = t;
  tr.new_pos = new_pos;
  tr.machine = new_machine;
  trials_.push_back(tr);
}

void Evaluator::TrialBatch::add_string(const SolutionString& s,
                                       std::size_t from) {
  Trial tr;
  tr.kind = Kind::kString;
  tr.str = &s;
  tr.from = from;
  trials_.push_back(tr);
}

std::size_t Evaluator::TrialBatch::trial_from(const Trial& tr) const {
  // Checkpoint mode always simulates from the checkpoint prefix (the `from`
  // of add_string is a prepared-mode concept).
  if (state_ == nullptr) return eval_->cp_prefix_;
  switch (tr.kind) {
    case Kind::kReassign:
      return base_->positions()[tr.task];
    case Kind::kMove:
      return std::min(base_->positions()[tr.task], tr.new_pos);
    case Kind::kString:
      return tr.from;
  }
  return 0;  // unreachable
}

Segment Evaluator::TrialBatch::trial_segment(const Trial& tr,
                                             std::size_t i) const {
  if (tr.kind == Kind::kString) return tr.str->segments()[i];
  const Segment* const segs = base_->segments().data();
  const std::size_t old_pos = base_->positions()[tr.task];
  if (tr.kind == Kind::kReassign) {
    if (i == old_pos) return Segment{tr.task, tr.machine};
    return segs[i];
  }
  // kMove: virtual resolution of move_task(t, new_pos) + set_machine(t, m).
  // move_task rotates the segments strictly between the old and new
  // positions (SolutionString::move_task), so a trial segment is the base
  // segment shifted by one inside that window and untouched outside it.
  const std::size_t new_pos = tr.new_pos;
  if (i == new_pos) return Segment{tr.task, tr.machine};
  if (new_pos > old_pos) {
    if (i >= old_pos && i < new_pos) return segs[i + 1];
  } else if (new_pos < old_pos) {
    if (i > new_pos && i <= old_pos) return segs[i - 1];
  }
  return segs[i];
}

bool Evaluator::TrialBatch::uniform_reassign() const {
  if (state_ != nullptr) return false;
  const TaskId t0 = trials_.front().task;
  for (const Trial& tr : trials_) {
    if (tr.kind != Kind::kReassign || tr.task != t0) return false;
  }
  return true;
}

const std::vector<double>& Evaluator::TrialBatch::evaluate(double bound) {
  SEHC_ASSERT_MSG(base_ != nullptr,
                  "TrialBatch: begin_checkpoint()/begin_prepared() not called");
  SEHC_ASSERT_MSG(base_->size() == eval_->model_->num_tasks,
                  "TrialBatch: base string size mismatch");
  const std::size_t n = trials_.size();
  // Batch of N counts exactly N trials — the evals currency stays exact.
  eval_->trial_count_ += n;
  results_.assign(n, kInf);
  if (n > 0) {
    if (!kernel_gauge_recorded_) {
      // Once per batch lifetime (and per set_kernel): the selected kernel
      // as a high-water gauge in whatever registry drives this run, so
      // bench artifacts and the serve metrics op can state which backend
      // actually executed.
      kernel_gauge_recorded_ = true;
      if (MetricsRegistry* reg = ambient_metrics()) {
        reg->gauge_max(std::string("kernel/") + kernel_name(kernel_), 1);
      }
    }
    if (uniform_reassign()) {
      evaluate_uniform(bound);
    } else {
      evaluate_general(bound);
    }
    // Once per batch, after the sweep: plain member arithmetic only (the
    // --check-overhead gate holds the proof). The pruned count is tracked
    // where lanes retire, so no rescan of results_ is needed.
    metrics_.batches += 1;
    metrics_.trials += n;
    if (n > metrics_.max_batch) metrics_.max_batch = n;
    metrics_.batch_sizes.record(n);
    metrics_.pruned += pruned_count_;
  }
  trials_.clear();
  return results_;
}

void Evaluator::TrialBatch::compact_lane(std::size_t lane, std::size_t last,
                                         std::size_t from, std::size_t upto) {
  const std::size_t batch = trials_.size();
  const std::size_t l = eval_->model_->num_machines;
  double* const al = avail_lanes_.data();
  double* const fl = finish_lanes_.data();
  for (std::size_t m = 0; m < l; ++m) al[m * batch + lane] = al[m * batch + last];
  // Only tasks at already-swept positions have live finish entries.
  const Segment* const segs = base_->segments().data();
  for (std::size_t p = from; p <= upto; ++p) {
    const TaskId t = segs[p].task;
    fl[t * batch + lane] = fl[t * batch + last];
  }
  makespan_[lane] = makespan_[last];
  lane_machine_[lane] = lane_machine_[last];
  lane_trial_[lane] = lane_trial_[last];
}

// Fast path: every trial reassigns the SAME task of the base string in
// checkpoint mode (SE's allocation scan). All lanes share the base's
// segment sequence and positions; only the machine at the edit position
// differs, so the whole sweep runs with shared predecessor metadata and
// contiguous trial-minor inner loops. Pruned lanes are retired by moving the
// last live lane's SoA columns into the freed slot (dense lanes stay dense).
void Evaluator::TrialBatch::evaluate_uniform(double bound) {
  const Evaluator& ev = *eval_;
  const Model& md = *ev.model_;
  const std::size_t k = md.num_tasks;
  const std::size_t l = md.num_machines;
  const std::size_t batch = trials_.size();
  const Segment* const segs = base_->segments().data();
  const std::size_t* const pos = base_->positions().data();
  const std::size_t from = ev.cp_prefix_;
  const TaskId edit_task = trials_.front().task;
  const std::size_t edit_pos = pos[edit_task];
  SEHC_ASSERT_MSG(edit_pos >= from,
                  "TrialBatch: reassign edits the checkpoint prefix");

  avail_lanes_.resize(l * batch);
  finish_lanes_.resize(k * batch);
  makespan_.assign(batch, ev.cp_makespan_);
  ready_lanes_.resize(batch);
  lane_trial_.resize(batch);
  lane_machine_.resize(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    lane_trial_[i] = i;
    lane_machine_[i] = trials_[i].machine;
  }
  for (std::size_t m = 0; m < l; ++m) {
    std::fill_n(avail_lanes_.begin() + m * batch, batch, ev.cp_avail_[m]);
  }
  // Scalar entry check: a checkpoint already past the bound prunes all lanes.
  pruned_count_ = batch;
  if (ev.cp_makespan_ > bound) return;

  const double* const shared_finish = ev.finish_.data();
  double* const al = avail_lanes_.data();
  double* const fl = finish_lanes_.data();
  double* const ready = ready_lanes_.data();
  double* const ms = makespan_.data();

  std::size_t live = batch;
  for (std::size_t i = from; i < k && live > 0; ++i) {
    const TaskId t = segs[i].task;
    if (i == edit_pos) {
      // The edited segment: machine differs per lane, so each lane runs the
      // recurrence with its own availability and transfer rows. Happens
      // once per sweep.
      for (std::size_t lane = 0; lane < live; ++lane) {
        const MachineId m = lane_machine_[lane];
        const Times r =
            md.schedule(t, m, al[m * batch + lane], [&](TaskId src) {
              const std::size_t p = pos[src];
              const double f =
                  p >= from ? fl[src * batch + lane] : shared_finish[src];
              return Pred{f, segs[p].machine};
            });
        fl[t * batch + lane] = r.finish;
        al[m * batch + lane] = r.finish;
        if (r.finish > ms[lane]) ms[lane] = r.finish;
      }
    } else {
      // Every lane schedules the same segment, so the recurrence runs in its
      // strip form: the same arithmetic as Model::schedule, restructured
      // into lane-minor passes (ready_maxadd / schedule_update) that the
      // SIMD kernels vectorise. Predecessors fully inside the shared prefix
      // contribute one scalar ready time for all lanes; predecessors
      // simulated in the suffix (or produced by the edited task, whose
      // machine varies) contribute one contiguous lane-minor pass each.
      const MachineId m = segs[i].machine;
      const std::uint32_t lo = md.pred_off[t];
      const std::uint32_t hi = md.pred_off[t + 1];
      double ready0 = 0.0;
      bool lane_preds = false;
      for (std::uint32_t e = lo; e < hi; ++e) {
        const TaskId src = md.pred_src[e];
        if (pos[src] >= from) {
          lane_preds = true;
          continue;
        }
        const MachineId pm = segs[pos[src]].machine;
        ready0 = std::max(
            ready0, shared_finish[src] + md.transfer_row(pm, m)[md.pred_item[e]]);
      }
      std::fill_n(ready, live, ready0);
      if (lane_preds) {
        for (std::uint32_t e = lo; e < hi; ++e) {
          const TaskId src = md.pred_src[e];
          if (pos[src] < from) continue;
          const double* const fsrc = fl + src * batch;
          if (src == edit_task) {
            // Transfer row depends on the per-lane machine of the edit.
            const DataId item = md.pred_item[e];
            for (std::size_t lane = 0; lane < live; ++lane) {
              const double tr = md.transfer_row(lane_machine_[lane], m)[item];
              ready[lane] = std::max(ready[lane], fsrc[lane] + tr);
            }
          } else {
            // One shared transfer offset over a contiguous finish row: the
            // vectorizable max-accumulate strip (elementwise over
            // independent lanes, so bit-identical at any width).
            const MachineId pm = segs[pos[src]].machine;
            const double tr = md.transfer_row(pm, m)[md.pred_item[e]];
            ops_->ready_maxadd(ready, fsrc, tr, live);
          }
        }
      }
      const double exec = md.exec[m * k + t];
      double* const am = al + m * batch;
      double* const ft = fl + t * batch;
      // Start/finish/makespan update as one width-W strip sweep.
      ops_->schedule_update(ready, am, ft, ms, exec, live);
    }
    // Retire lanes past the bound (checking once per position yields the
    // same +infinity results as checking per segment because the running
    // makespan is monotone).
    for (std::size_t lane = 0; lane < live;) {
      if (ms[lane] > bound) {
        const std::size_t last = live - 1;
        if (lane != last) compact_lane(lane, last, from, i);
        --live;
      } else {
        ++lane;
      }
    }
  }
  for (std::size_t lane = 0; lane < live; ++lane) {
    results_[lane_trial_[lane]] = ms[lane];
  }
  // Every retired lane left a +infinity result behind; the survivors wrote
  // theirs just above.
  pruned_count_ = batch - live;
}

// General path: any mix of trial kinds, per-trial start positions (prepared
// mode), virtual kMove resolution. Lanes diverge in segments, start
// positions and predecessor sources, so nothing vectorises across them:
// each trial runs the recurrence on its own from its start position to the
// end (or to the bound) in one reused finish column and availability row.
// Positions >= the trial's start are written before any later position
// reads them (the trial string is topological), so stale values from the
// previous trial are never read.
void Evaluator::TrialBatch::evaluate_general(double bound) {
  const Evaluator& ev = *eval_;
  const Model& md = *ev.model_;
  const std::size_t k = md.num_tasks;
  const std::size_t l = md.num_machines;
  const bool checkpoint = state_ == nullptr;
  const Segment* const base_segs = base_->segments().data();
  const std::size_t* const bpos = base_->positions().data();
  SEHC_ASSERT_MSG(checkpoint || state_->ready(),
                  "TrialBatch: prepared state not ready");

  avail_lanes_.resize(l);
  finish_lanes_.resize(k);
  double* const avail = avail_lanes_.data();
  double* const finish = finish_lanes_.data();
  const double* const shared_finish =
      checkpoint ? ev.finish_.data() : state_->finish.data();

  pruned_count_ = 0;
  for (std::size_t i = 0; i < trials_.size(); ++i) {
    const Trial& tr = trials_[i];
    const std::size_t from = trial_from(tr);
    SEHC_ASSERT_MSG(from <= k, "TrialBatch: trial start out of range");
    double makespan =
        checkpoint ? ev.cp_makespan_ : state_->prefix_makespan[from];
    std::copy_n(
        checkpoint ? ev.cp_avail_.data() : state_->avail_rows.data() + from * l,
        l, avail);
    const auto pred = [&](TaskId src) {
      std::size_t p = 0;
      MachineId machine = 0;
      if (tr.kind == Kind::kString) {
        p = tr.str->positions()[src];
        machine = tr.str->segments()[p].machine;
      } else {
        // kReassign keeps every position; kMove shifts positions only inside
        // [from, max(old,new)], which never crosses the `from` boundary —
        // the base position decides suffix membership either way, and only
        // the moved task changes machine.
        p = bpos[src];
        machine = src == tr.task ? tr.machine : base_segs[p].machine;
      }
      return Pred{p >= from ? finish[src] : shared_finish[src], machine};
    };
    // The entry check, then one check per segment: the running makespan is
    // monotone, so the first excess is final.
    for (std::size_t p = from; p < k && makespan <= bound; ++p) {
      const Segment seg = trial_segment(tr, p);
      const Times r =
          md.schedule(seg.task, seg.machine, avail[seg.machine], pred);
      finish[seg.task] = r.finish;
      avail[seg.machine] = r.finish;
      makespan = std::max(makespan, r.finish);
    }
    if (makespan > bound) {
      ++pruned_count_;  // results_[i] stays +infinity
    } else {
      results_[i] = makespan;
    }
  }
}

}  // namespace sehc
