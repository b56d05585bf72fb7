// Shared plumbing of the benchmark: command-line arguments, the result
// report and its one-line JSON form, sample statistics, and the in-memory
// span recorder behind the traced run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1`. Throws
/// std::runtime_error on anything else.
Args parse_args(int argc, char** argv);

/// What one run measured: solve accounting plus named metric values. A
/// solve whose output fails a check counts in `failed`; a run-level
/// invariant that belongs to no single solve clears `correct`. Units and
/// the metric lists live in BENCHMARK.json, which run.py joins with this.
class Report {
 public:
  void add_attempted(std::size_t n) { attempted_ += n; }
  /// Counts one failed solve and logs why on stderr.
  void fail(const std::string& why);
  /// Clears `correct` and logs why on stderr.
  void invalid(const std::string& why);
  void set(const std::string& name, double value);

  /// One line: {"correct":..,"attempted":..,"failed":..,"values":{..}}.
  std::string json() const;

 private:
  bool correct_ = true;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::pair<std::string, double>> values_;
};

/// Linear-interpolation quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);
/// Geometric mean of positive values.
double geomean(const std::vector<double>& values);
/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mib();

/// Runs `setup` `times` times and returns the median wall seconds; the
/// object built by the last call is the one the run keeps.
template <typename Fn>
double median_setup_seconds(int times, Fn&& setup) {
  std::vector<double> walls;
  for (int i = 0; i < times; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    walls.push_back(seconds_between(t0, Clock::now()));
  }
  return median(walls);
}

/// Runs `round` (which takes its 0-based index) as whole rounds: exactly
/// `rounds` of them when `rounds` > 0, otherwise until `seconds` have
/// passed, at least once. Returns the number of rounds run.
template <typename Fn>
std::size_t run_rounds(double seconds, std::size_t rounds, Fn&& round) {
  const Clock::time_point t0 = Clock::now();
  std::size_t done = 0;
  while (rounds > 0 ? done < rounds
                    : done == 0 || seconds_between(t0, Clock::now()) < seconds) {
    round(done);
    ++done;
  }
  return done;
}

/// Directory for this run's scratch files (stores, sockets), inside the
/// working directory; created on construction, removed on destruction.
class WorkDir {
 public:
  explicit WorkDir(const std::string& workload);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- Tracing ---------------------------------------------------------------
//
// Spans are kept in memory while the run lasts and written out at the end
// as Chrome trace-event JSON. Each span has a name, start, end, the thread
// that recorded it and the span that caused it (the enclosing span on the
// same thread, or an explicit parent for spans recorded across threads).
// With tracing off a Span costs one branch.

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint32_t thread = 0;
  std::string name;
  Clock::time_point start{};
  Clock::time_point end{};
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread (returns its id; 0 when disabled).
  std::uint64_t open(const std::string& name);
  /// Closes the innermost open span of the calling thread.
  void close(std::uint64_t id);
  /// Records a finished span with explicit times and parent (cross-thread
  /// spans such as a request timed from its due time to its reply).
  std::uint64_t record(const std::string& name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent = 0);

  /// Sum of self time (duration minus the time covered by child spans) of
  /// every span named `name`, in seconds.
  double self_seconds(const std::string& name) const;

  /// Writes every span as Chrome trace-event JSON.
  void write_chrome(const std::string& path) const;

 private:
  static std::uint32_t thread_index();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
  std::uint64_t last_id_ = 0;      // guarded by mutex_
  Clock::time_point origin_ = Clock::now();
};

/// RAII span on the calling thread.
class Span {
 public:
  explicit Span(const std::string& name)
      : id_(Tracer::instance().enabled() ? Tracer::instance().open(name) : 0) {}
  ~Span() {
    if (id_ != 0) Tracer::instance().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_;
};

}  // namespace perfbench
