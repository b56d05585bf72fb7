#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::runtime_error("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::runtime_error("--workload is required");
  return args;
}

void Report::fail(const std::string& why) {
  ++failed_;
  std::cerr << "perfbench: failed solve: " << why << '\n';
}

void Report::invalid(const std::string& why) {
  correct_ = false;
  std::cerr << "perfbench: check failed: " << why << '\n';
}

void Report::set(const std::string& name, double value) {
  if (!std::isfinite(value)) {
    invalid("metric " + name + " is not finite");
    value = 0.0;
  }
  values_.emplace_back(name, value);
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"values\": {";
  for (std::size_t i = 0; i < values_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", values_[i].second);
    if (i > 0) out += ", ";
    out += "\"" + values_[i].first + "\": " + value;
  }
  out += "}}";
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) throw std::runtime_error("mean of an empty sample");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) throw std::runtime_error("geomean of an empty sample");
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) throw std::runtime_error("geomean of a non-positive value");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

WorkDir::WorkDir(const std::string& workload)
    : path_(".bench_build/perfbench-work/" + workload + "-" +
            std::to_string(::getpid())) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

// --- Tracer ----------------------------------------------------------------

namespace {

/// Open spans of the calling thread: (span id, index into the span list).
thread_local std::vector<std::pair<std::uint64_t, std::size_t>> t_open_spans;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

std::uint64_t Tracer::open(const std::string& name) {
  const std::uint64_t parent =
      t_open_spans.empty() ? 0 : t_open_spans.back().first;
  const std::uint32_t thread = thread_index();
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord span;
  span.id = ++last_id_;
  span.parent = parent;
  span.thread = thread;
  span.name = name;
  t_open_spans.emplace_back(span.id, spans_.size());
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  return last_id_;
}

void Tracer::close(std::uint64_t id) {
  const Clock::time_point end = Clock::now();
  if (t_open_spans.empty() || t_open_spans.back().first != id) {
    throw std::logic_error("Tracer: spans closed out of order");
  }
  const std::size_t index = t_open_spans.back().second;
  t_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].end = end;
}

std::uint64_t Tracer::record(const std::string& name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t parent) {
  if (!enabled()) return 0;
  const std::uint32_t thread = thread_index();
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord span;
  span.id = ++last_id_;
  span.parent = parent;
  span.thread = thread;
  span.name = name;
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
  return last_id_;
}

double Tracer::self_seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, double> child_seconds;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) child_seconds[s.parent] += seconds_between(s.start, s.end);
  }
  double total = 0.0;
  for (const SpanRecord& s : spans_) {
    if (s.name != name) continue;
    const auto it = child_seconds.find(s.id);
    total += seconds_between(s.start, s.end) -
             (it == child_seconds.end() ? 0.0 : it->second);
  }
  return total;
}

void Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream os(path);
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\": %.3f, \"dur\": %.3f",
                  seconds_between(origin_, s.start) * 1e6,
                  seconds_between(s.start, s.end) * 1e6);
    os << "  {\"name\": \"" << json_escape(s.name)
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread << ", "
       << times << ", \"args\": {\"id\": " << s.id
       << ", \"parent\": " << s.parent << "}}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

}  // namespace perfbench
