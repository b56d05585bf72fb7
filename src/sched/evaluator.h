// Schedule-length evaluation (the cost function both SE and GA minimize).
//
// Semantics (paper §2 model): tasks run in string order; machine m executes
// its tasks in the order they appear in the string; a task starts at
//
//   start(t) = max( machine_available(m(t)),
//                   max over preds p of finish(p) + Tr(m(p), m(t), item) )
//
// with Tr == 0 when producer and consumer share a machine. This is
// non-insertion list scheduling: the string fully determines the schedule.
//
// The recurrence is written out once, in Evaluator::Model::schedule(). Every
// simulation below — the full evaluation, the rolling checkpoint, the
// prepared snapshots and the TrialBatch lanes — calls it and differs only in
// where a predecessor's finish time and machine are read from. The one other
// form is the uniform batch path's SIMD strips (sched/simd.h), which
// vectorise the same arithmetic over independent lanes.
//
// The evaluator is the library's trial engine. Search heuristics spend their
// time re-simulating slightly-changed strings, so besides the plain
// evaluate()/makespan() pair it keeps two kinds of reusable state that
// Evaluator::TrialBatch (declared below) evaluates candidate edits against:
//
//   1. Rolling checkpoint (SE allocation): all trial strings share a fixed
//      prefix; begin_trials() simulates it once and extend_checkpoint() grows
//      it one segment at a time as the trial position advances, so each
//      trial simulates only the suffix behind the checkpoint.
//   2. Prepared state (tabu, annealing, GA/GSA offspring): prepare()
//      simulates a whole string once and snapshots the machine-availability
//      vector before every position, so a trial that changes the string
//      from position p onward costs O(k - p); refresh_from() rolls the
//      snapshots forward after an accepted move.
//
// Trials are exact: bit-identical to a from-scratch evaluation of the trial
// string. With a pruning bound, a trial aborts as soon as its running
// makespan strictly exceeds the bound and reports +infinity; the running
// makespan is monotone in the segment index, so any value <= bound is exact
// and ties at the bound stay visible (tie-break sampling is preserved byte
// for byte). tests/naive_eval.h holds the naive reference the
// differential suites compare against.
//
// The DAG's (predecessor, data item) adjacency is flattened into CSR arrays
// at construction, and transfer-time rows are resolved through a
// machine-pair pointer table whose diagonal points at a zero row, so
// machine-local communication needs no branch. That read-only data lives in
// one immutable Model that copies share; copies are plain member-wise
// copies. Scratch buffers are pre-sized once per workload so the hot loops
// (called millions of times per search run) perform no allocation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "hc/workload.h"
#include "obs/metrics.h"
#include "sched/encoding.h"
#include "sched/simd.h"

namespace sehc {

/// Computed start/finish times for one solution.
struct ScheduleTimes {
  std::vector<double> start;   // indexed by task
  std::vector<double> finish;  // indexed by task
  double makespan = 0.0;
};

/// Snapshots of one fully simulated string, keyed by position: everything a
/// suffix trial needs to start simulating at any position. The evaluator owns
/// one default instance (the classic prepare()/refresh_from() mode); callers
/// that juggle several base strings (GA/GSA prepared parents, see
/// PreparedLru) own additional instances and pass them explicitly.
struct PreparedState {
  /// Machine availability before position p: row p of a (k+1) x l matrix.
  std::vector<double> avail_rows;
  /// Running makespan of [0, p), indexed by position p (k+1 entries).
  std::vector<double> prefix_makespan;
  /// Finish time of every task of the prepared string (k entries).
  std::vector<double> finish;

  /// True once prepare() has filled the snapshots.
  bool ready() const { return !avail_rows.empty(); }
};

/// Reusable evaluator bound to one workload. Copies share the immutable
/// workload view and own their scratch and trial state, so every special
/// member is the member-wise default.
class Evaluator {
 public:
  explicit Evaluator(const Workload& w);

  Evaluator(const Evaluator&) = default;
  Evaluator& operator=(const Evaluator&) = default;
  Evaluator(Evaluator&&) = default;
  Evaluator& operator=(Evaluator&&) = default;
  ~Evaluator() = default;

  /// Full evaluation; returns per-task times. O(k + e).
  ScheduleTimes evaluate(const SolutionString& s) const;

  /// As evaluate(), but reuses the caller's result buffers (no allocation
  /// after the first call with same-sized vectors).
  void evaluate_into(const SolutionString& s, ScheduleTimes& out) const;

  /// Makespan only; same cost but avoids constructing the result arrays.
  double makespan(const SolutionString& s) const;

  // --- Rolling checkpoint (SE allocation inner loop) ---------------------
  //
  // All trial strings for one task share an unchanged prefix [0, prefix):
  // begin_trials() simulates that prefix once and snapshots the machine
  // state; a checkpoint-mode TrialBatch then simulates only [prefix, k) per
  // candidate string.
  //
  // Contract: every subsequent trial string must (a) contain exactly the
  // same segments in [0, prefix) as the string passed to begin_trials and
  // (b) permute only tasks at positions >= prefix. Calling makespan()
  // invalidates the checkpoint.
  void begin_trials(const SolutionString& s, std::size_t prefix) const;

  /// Advances the checkpoint by one segment: position `prefix` of `s` (which
  /// must from now on be identical in every trial string) becomes part of
  /// the fixed prefix. O(deg + 1). This is what makes the SE allocation scan
  /// linear: as the trial position moves from pos to pos+1, the segment that
  /// slides below it is simulated exactly once instead of once per trial.
  void extend_checkpoint(const SolutionString& s) const;

  /// Checkpoint position (prefix length) of the rolling trial mode.
  std::size_t checkpoint_prefix() const { return cp_prefix_; }

  // --- Prepared state (tabu / annealing / GA-GSA offspring) --------------
  //
  // prepare(s) simulates `s` once, recording per-position machine-state
  // snapshots; a prepared-mode TrialBatch then evaluates trial strings that
  // differ from s only at positions >= from in O(k - from).
  // refresh_from(s, from) re-records the snapshots after `s` itself changed
  // at positions >= from (an accepted move). evaluate()/makespan()/the
  // rolling checkpoint do not disturb the prepared state.
  //
  // Each operation also exists in an explicit-state form that reads/writes a
  // caller-owned PreparedState instead of the evaluator's default one, so
  // several base strings can stay prepared at once (see PreparedLru).
  void prepare(const SolutionString& s) const { prepare(s, prepared_); }
  void prepare(const SolutionString& s, PreparedState& state) const;
  void refresh_from(const SolutionString& s, std::size_t from) const {
    refresh_from(s, from, prepared_);
  }
  void refresh_from(const SolutionString& s, std::size_t from,
                    PreparedState& state) const;

  // --- Trial accounting ---------------------------------------------------
  //
  // Every schedule simulation — evaluate()/evaluate_into()/makespan() and
  // each trial a TrialBatch evaluates — counts as one trial. Prefix
  // bookkeeping (begin_trials/extend_checkpoint/prepare/refresh_from) does
  // not: it is amortized setup, not an evaluation of a candidate. The
  // counter is the `evals` currency of the stepwise search engines (see
  // search/engine.h) and of the campaign layer's equal-evals budgets.

  /// Trials performed since construction or the last reset_trial_count().
  std::size_t trial_count() const { return trial_count_; }
  void reset_trial_count() const { trial_count_ = 0; }

  /// Releases every piece of per-run trial state — the rolling checkpoint,
  /// the default prepared snapshots and the trial counter — keeping the
  /// allocated buffer capacity. Engines call this from init() so a
  /// re-initialized engine (e.g. a Deadline-preempted run whose worker slot
  /// the serving layer recycles) can never observe a stale checkpoint or
  /// prepared snapshot left behind by the preempted run: ready() reports
  /// false until the new run prepares its own state.
  void reset_trial_state() const;

  const Workload& workload() const { return *model_->workload; }

 private:
  /// Where the recurrence reads one predecessor from: its finish time and
  /// the machine it ran on.
  struct Pred {
    double finish;
    MachineId machine;
  };
  /// Start and finish time of one scheduled segment.
  struct Times {
    double start;
    double finish;
  };

  /// The workload's read-only view, built once and shared by every copy.
  /// Not copyable itself: pair_row's diagonal points into zero_row.
  struct Model {
    explicit Model(const Workload& w);
    Model(const Model&) = delete;
    Model& operator=(const Model&) = delete;

    const Workload* workload = nullptr;  // non-owning; outlives the model
    std::size_t num_tasks = 0;
    std::size_t num_machines = 0;
    // CSR adjacency: incoming edges of task t are pred_src/pred_item
    // [pred_off[t], pred_off[t+1]), in the graph's in_edges() order (the
    // order the naive loops reduce in, so max-chains are bit-identical).
    std::vector<std::uint32_t> pred_off;
    std::vector<TaskId> pred_src;
    std::vector<DataId> pred_item;
    const double* exec = nullptr;  // l x k row-major
    std::vector<double> zero_row;
    std::vector<const double*> pair_row;  // l*l rows into Tr (or zero_row)

    const double* transfer_row(MachineId a, MachineId b) const {
      return pair_row[a * num_machines + b];
    }

    /// The scheduling recurrence for task t on machine m, whose
    /// availability is `avail`. pred(src) supplies predecessor src's finish
    /// time and machine — the one thing that differs between the full
    /// evaluation, the checkpoint, the prepared snapshots and batch lanes.
    /// Forced inline: GCC otherwise keeps it out of line in the batch's
    /// edited-lane loop, which costs SE solves about 10%.
    template <class PredFn>
    [[gnu::always_inline]] Times schedule(TaskId t, MachineId m, double avail,
                                          PredFn&& pred) const {
      double ready = 0.0;
      for (std::uint32_t e = pred_off[t]; e < pred_off[t + 1]; ++e) {
        const Pred p = pred(pred_src[e]);
        ready = std::max(ready,
                         p.finish + transfer_row(p.machine, m)[pred_item[e]]);
      }
      const double start = std::max(ready, avail);
      return {start, start + exec[m * num_tasks + t]};
    }
  };

  /// Simulates positions [from, to) of `s`, every predecessor read from
  /// `finish` and `s`, updating `finish` and the per-machine `avail`.
  /// Calls sink(i, t, times, running makespan) after each segment and
  /// returns the running makespan, starting from `makespan`.
  template <class Sink>
  double simulate(const SolutionString& s, std::size_t from, std::size_t to,
                  double* finish, double* avail, double makespan,
                  Sink&& sink) const;

  std::shared_ptr<const Model> model_;

  // Scratch reused across calls (single-threaded use, like the algorithms).
  mutable std::vector<double> finish_;
  mutable std::vector<double> machine_avail_;
  // Rolling-checkpoint state.
  mutable std::vector<double> cp_avail_;
  mutable double cp_makespan_ = 0.0;
  mutable std::size_t cp_prefix_ = 0;
  // Default prepared state (see PreparedState).
  mutable PreparedState prepared_;
  // Trial counter (see trial_count()).
  mutable std::size_t trial_count_ = 0;

 public:
  class TrialBatch;
};

/// Batched trial evaluation: accumulate N candidate suffix edits against the
/// evaluator's rolling checkpoint or a prepared state, then evaluate them all
/// in one evaluate() call. The uniform-reassign fast path (SE's allocation
/// scan: same task, all machine candidates) runs ONE position-major sweep
/// whose inner loop runs over the batch dimension, laid out
/// structure-of-arrays — per-machine availability rows and per-task finish
/// columns hold one contiguous lane per live trial — so it vectorizes, and
/// trials whose running makespan exceeds the shared bound are retired
/// mid-sweep by lane compaction. Any other mix of trials is evaluated trial
/// by trial, each stopping at the bound.
///
/// Exactness contract: each result is bit-identical to a from-scratch
/// evaluation of the trial string, clamped by the bound — the exact makespan
/// where it is <= bound, +infinity where it is > bound — and evaluate()
/// adds exactly size() to the evaluator's trial counter. Each lane runs the
/// recurrence of a single-trial simulation; trials are mutually independent,
/// so interchanging the loops (positions outer, trials inner) leaves each
/// trial's floating-point operation sequence unchanged.
///
/// Trial kinds:
///   * add_reassign(t, m)      — base string with task t's machine set to m;
///   * add_move(t, pos, m)     — base string with t moved to `pos` (string
///                               rotate, as SolutionString::move_task) and
///                               reassigned to m, resolved virtually so the
///                               base is never mutated;
///   * add_string(s, from)     — an explicit trial string differing from the
///                               base only at positions >= from.
///
/// Checkpoint mode evaluates every trial from the evaluator's rolling
/// checkpoint; the checkpoint state is read at evaluate() time, so one batch
/// may span extend_checkpoint() calls between evaluate() rounds. Prepared
/// mode evaluates each trial from its own start position on top of a
/// PreparedState (the evaluator's default one or a caller-owned instance).
class Evaluator::TrialBatch {
 public:
  explicit TrialBatch(const Evaluator& eval);

  /// Enters checkpoint mode: trials are edits of `base`, evaluated on top of
  /// the evaluator's rolling checkpoint (begin_trials()/extend_checkpoint()
  /// manage the checkpoint). `base` is captured by
  /// reference and read at evaluate() time. Clears pending trials.
  void begin_checkpoint(const SolutionString& base);

  /// Enters prepared mode against the evaluator's default prepared state.
  void begin_prepared(const SolutionString& base);

  /// Enters prepared mode against a caller-owned prepared state for `base`.
  /// Both `base` and `state` are captured by reference.
  void begin_prepared(const SolutionString& base, const PreparedState& state);

  void add_reassign(TaskId t, MachineId m);
  void add_move(TaskId t, std::size_t new_pos, MachineId new_machine);
  /// `s` is captured by reference and must stay alive until evaluate().
  void add_string(const SolutionString& s, std::size_t from);

  std::size_t size() const { return trials_.size(); }
  bool empty() const { return trials_.empty(); }
  /// Drops pending trials; keeps the mode and base.
  void clear() { trials_.clear(); }

  /// Evaluates every pending trial against the shared pruning `bound`
  /// (strict: any value returned <= bound is exact, any trial whose running
  /// makespan strictly exceeds `bound` yields +infinity).
  /// Returns one makespan per trial in add order, counts size() trials, and
  /// clears the pending list. The returned reference is invalidated by the
  /// next evaluate() call.
  const std::vector<double>& evaluate(double bound);

  /// Always-on batch instrumentation, updated ONCE per evaluate() call
  /// (plain member arithmetic — never a registry or map lookup, so the
  /// --check-overhead perf gate stays green with metrics compiled in).
  /// Pruned counts lanes retired mid-sweep (+infinity results), exactly
  /// the trials whose exact makespan exceeds the bound.
  struct BatchMetrics {
    std::uint64_t batches = 0;      ///< evaluate() calls with >= 1 trial
    std::uint64_t trials = 0;       ///< trials evaluated across batches
    std::uint64_t pruned = 0;       ///< trials retired by the bound
    std::uint64_t max_batch = 0;    ///< largest single batch
    LogHistogram batch_sizes;          ///< distribution of batch sizes
  };
  const BatchMetrics& metrics() const { return metrics_; }
  void reset_metrics() { metrics_ = BatchMetrics{}; }

  /// Kernel selection for the uniform-sweep strip loops. The batch resolves
  /// the SEHC_KERNEL environment override (default auto) at construction;
  /// set_kernel() re-resolves an explicit choice against the running CPU
  /// (auto/simd pick the best supported backend, scalar forces the
  /// reference loops). Every backend is bit-identical — the knob exists for
  /// benchmarking, differential testing and incident bisection, never for
  /// correctness.
  void set_kernel(KernelChoice choice);
  SimdKernel kernel() const { return kernel_; }

 private:
  enum class Kind : std::uint8_t { kReassign, kMove, kString };

  struct Trial {
    Kind kind = Kind::kReassign;
    TaskId task = kInvalidTask;          // kReassign / kMove
    MachineId machine = 0;               // kReassign / kMove
    std::size_t new_pos = 0;             // kMove
    const SolutionString* str = nullptr; // kString
    std::size_t from = 0;                // kString (prepared mode)
  };

  /// Start position of trial `tr` (the first position its suffix rewrites /
  /// the position the prepared simulation starts at).
  std::size_t trial_from(const Trial& tr) const;
  /// Segment of trial `tr` at position `i` (virtual resolution: the base is
  /// never mutated).
  Segment trial_segment(const Trial& tr, std::size_t i) const;

  /// True when every pending trial is a kReassign of one shared task in
  /// checkpoint mode — the vectorizable uniform sweep.
  bool uniform_reassign() const;
  void evaluate_uniform(double bound);
  void evaluate_general(double bound);
  /// Fast-path lane retirement: moves lane `last`'s SoA columns into `lane`.
  void compact_lane(std::size_t lane, std::size_t last, std::size_t from,
                    std::size_t upto);

  const Evaluator* eval_ = nullptr;
  const SolutionString* base_ = nullptr;
  const PreparedState* state_ = nullptr;  // null = checkpoint mode
  std::vector<Trial> trials_;

  // SoA lanes, stride = trials_.size() during the uniform sweep:
  // avail_lanes_ row m = per-lane availability of machine m; finish_lanes_
  // row t = per-lane finish of task t; makespan_ / lane_trial_ indexed by
  // lane. The general path reuses one lane (stride 1) for every trial. The
  // lane stores are 64-byte aligned for the SIMD strip loops.
  AlignedVector<double> avail_lanes_;
  AlignedVector<double> finish_lanes_;
  AlignedVector<double> makespan_;
  AlignedVector<double> ready_lanes_;    // per-lane ready-time scratch
  std::vector<std::size_t> lane_trial_;
  std::vector<MachineId> lane_machine_;  // fast path: per-lane machine
  std::vector<double> results_;
  BatchMetrics metrics_;

  // Strip-kernel dispatch (resolved once, never per strip) plus the lazily
  // recorded selected-kernel gauge and the per-evaluate pruned-lane count
  // (tracked where lanes retire, so evaluate() never rescans results_).
  SimdKernel kernel_ = SimdKernel::kScalar;
  const BatchKernelOps* ops_ = nullptr;
  bool kernel_gauge_recorded_ = false;
  std::size_t pruned_count_ = 0;
};

/// One-shot convenience wrapper.
ScheduleTimes evaluate_schedule(const Workload& w, const SolutionString& s);

/// One-shot makespan.
double schedule_makespan(const Workload& w, const SolutionString& s);

}  // namespace sehc
