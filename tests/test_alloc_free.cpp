// Pins the evaluator's "hot loops perform no allocation" claim: after one
// warm-up call that sizes the scratch buffers, every evaluation entry point
// and every TrialBatch sweep shape runs without touching the heap on a
// paper-class workload (k = 100, l = 20).
//
// This binary replaces the global operator new with a counting one; the
// count is read around each measured call only, so allocations made by the
// test framework itself do not matter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>

#include "core/rng.h"
#include "sched/evaluator.h"
#include "workload/generator.h"

namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// The array and nothrow forms forward to these two by default.
void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t align) {
  return counted_alloc(n, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sehc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Heap allocations made while running `f`.
template <class F>
std::size_t allocations_in(F&& f) {
  const std::size_t before = g_allocations.load();
  f();
  return g_allocations.load() - before;
}

/// Runs `f` once to warm up, then returns the allocations of a second run.
template <class F>
std::size_t allocations_after_warm_up(F&& f) {
  f();
  return allocations_in(f);
}

class AllocFree : public ::testing::Test {
 protected:
  AllocFree() : w_(paper_workload()), eval_(w_), batch_(eval_) {
    Rng rng(7);
    s_ = random_initial_solution(w_.graph(), w_.num_machines(), rng);
  }

  static Workload paper_workload() {
    WorkloadParams p;
    p.tasks = 100;
    p.machines = 20;
    p.connectivity = Level::kHigh;
    p.heterogeneity = Level::kMedium;
    p.ccr = 1.0;
    p.seed = 5;
    return make_workload(p);
  }

  /// A task in the second half of the string (behind a half-length
  /// checkpoint) and a task near the front (a long prepared suffix).
  TaskId late_task() const { return s_.segment(s_.size() - 3).task; }
  TaskId early_task() const { return s_.segment(2).task; }

  Workload w_;
  Evaluator eval_;
  Evaluator::TrialBatch batch_;
  SolutionString s_;
};

TEST_F(AllocFree, FullEvaluationAndMakespan) {
  ScheduleTimes times;
  // The first call sizes the caller's result buffers: proof that the
  // counter sees the evaluator's allocations at all.
  EXPECT_GT(allocations_in([&] { eval_.evaluate_into(s_, times); }), 0u);
  EXPECT_EQ(allocations_in([&] { eval_.evaluate_into(s_, times); }), 0u);
  EXPECT_EQ(allocations_after_warm_up([&] { eval_.makespan(s_); }), 0u);
}

TEST_F(AllocFree, RollingCheckpoint) {
  EXPECT_EQ(allocations_after_warm_up(
                [&] { eval_.begin_trials(s_, s_.size() / 2); }),
            0u);
  EXPECT_EQ(allocations_in([&] {
              while (eval_.checkpoint_prefix() < s_.size()) {
                eval_.extend_checkpoint(s_);
              }
            }),
            0u);
}

TEST_F(AllocFree, PrepareAndRefresh) {
  EXPECT_EQ(allocations_after_warm_up([&] { eval_.prepare(s_); }), 0u);
  EXPECT_EQ(allocations_after_warm_up([&] { eval_.refresh_from(s_, 40); }),
            0u);
  PreparedState owned;
  EXPECT_EQ(allocations_after_warm_up([&] { eval_.prepare(s_, owned); }), 0u);
}

TEST_F(AllocFree, UniformCheckpointBatch) {
  eval_.begin_trials(s_, s_.size() / 2);
  const TaskId t = late_task();
  EXPECT_EQ(allocations_after_warm_up([&] {
              batch_.begin_checkpoint(s_);
              for (MachineId m = 0; m < w_.num_machines(); ++m) {
                batch_.add_reassign(t, m);
              }
              batch_.evaluate(kInf);
            }),
            0u);
}

TEST_F(AllocFree, GeneralCheckpointBatch) {
  eval_.begin_trials(s_, s_.size() / 2);
  const TaskId t = late_task();
  const std::size_t pos = s_.position_of(t);
  EXPECT_EQ(allocations_after_warm_up([&] {
              batch_.begin_checkpoint(s_);
              for (MachineId m = 0; m < w_.num_machines(); ++m) {
                batch_.add_move(t, pos, m);
              }
              batch_.add_string(s_, 0);
              batch_.evaluate(kInf);
            }),
            0u);
}

TEST_F(AllocFree, PreparedBatch) {
  eval_.prepare(s_);
  const TaskId t = early_task();
  const std::size_t pos = s_.position_of(t);
  EXPECT_EQ(allocations_after_warm_up([&] {
              batch_.begin_prepared(s_);
              for (MachineId m = 0; m < w_.num_machines(); ++m) {
                batch_.add_move(t, pos, m);
                batch_.add_reassign(t, m);
              }
              batch_.evaluate(kInf);
            }),
            0u);
}

}  // namespace
}  // namespace sehc
