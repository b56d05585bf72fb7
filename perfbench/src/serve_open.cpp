// serve-open: an in-process Server with 2 solver threads, driven over its
// Unix socket by 2 client connections on a seeded open-loop schedule at a
// fixed rate well below capacity. Each request is timed from when it was
// due. A fifth of the requests are cold (a distinct paper-scale workload
// with an SE step budget); the rest repeat earlier requests and hit the
// response cache. The same SE solve as se-paper, behind protocol framing,
// workload parsing and re-serialization, the caches and admission.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <exception>
#include <memory>
#include <sstream>
#include <thread>

#include "checker.h"
#include "core/rng.h"
#include "exp/sweep.h"
#include "exp/trace_io.h"
#include "hc/workload_io.h"
#include "heuristics/heft.h"
#include "heuristics/scheduler.h"
#include "ledger.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

using namespace sehc;

namespace {

/// Offered load: requests per second over both connections.
constexpr double kRate = 6.0;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kSolverThreads = 2;
constexpr std::size_t kColdSteps = 20;
/// One round of the schedule: 3 cold requests (one per class, at fixed
/// positions) and 12 hits. Hit classes are fixed per round (4 fig7, 6 fig6,
/// 2 fig5), so the p50 lands inside the fig6 hits and the p90 inside the
/// cold solves whatever the seed.
constexpr std::size_t kRoundSize = 15;
constexpr std::array<std::size_t, 3> kColdPositions = {0, 5, 10};
constexpr std::array<std::size_t, 12> kHitClasses = {2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 0, 0};
/// A hit repeats a cold request due at least this many requests earlier,
/// so the cold reply is cached by the time the hit arrives.
constexpr std::size_t kHitDistance = 16;

WorkloadParams (*const kClasses[])(std::uint64_t) = {
    &paper_fig5_high_connectivity, &paper_fig6_ccr1, &paper_fig7_low_everything};

struct Cold {
  std::size_t cls = 0;
  Workload workload;
  double heft = 0.0;
  ScheduleRequest request;  // without workload text (kept in `payload`)
  std::string payload;      // the serialized request frame payload
};

struct Reply {
  Clock::time_point sent{}, received{};
  ScheduleResponse response;
  std::string error;  // transport failure
};

/// One timed request: which cold request it sends (hits resend one).
struct Slot {
  std::size_t cold = 0;
  bool hit = false;
};

struct Setup {
  std::vector<Cold> colds;  // warm-ups first (one per class), then timed
  std::vector<Slot> schedule;
  std::vector<double> serialize_ms;
  double heft_s = 0.0;
  std::unique_ptr<Server> server;
  std::vector<Reply> warmup;
};

std::string socket_path(const WorkDir& dir) { return dir.path() + "/s.sock"; }

/// Lays out `rounds` rounds of the schedule; the class of every cold
/// request placed is appended to `cold_class`.
std::vector<Slot> make_schedule(std::size_t rounds, std::uint64_t seed,
                                std::vector<std::size_t>& cold_class) {
  Rng rng(derive_seed(seed, {21}));
  std::vector<Slot> schedule;
  // Per class: (cold index, schedule position) of every cold request so far;
  // the warm-ups (cold index = class, position 0) are always eligible.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> by_class(3);
  for (std::size_t c = 0; c < 3; ++c) by_class[c].push_back({c, 0});
  for (std::size_t r = 0; r < rounds; ++r) {
    std::array<std::size_t, 3> cold_order = {0, 1, 2};
    std::array<std::size_t, 12> hit_order = kHitClasses;
    for (std::size_t i = cold_order.size(); i > 1; --i) {
      std::swap(cold_order[i - 1], cold_order[rng.below(i)]);
    }
    for (std::size_t i = hit_order.size(); i > 1; --i) {
      std::swap(hit_order[i - 1], hit_order[rng.below(i)]);
    }
    std::size_t next_cold = 0, next_hit = 0;
    for (std::size_t p = 0; p < kRoundSize; ++p) {
      const std::size_t pos = schedule.size();
      if (std::find(kColdPositions.begin(), kColdPositions.end(), p) != kColdPositions.end()) {
        const std::size_t c = cold_order[next_cold++];
        const std::size_t index = cold_class.size();
        cold_class.push_back(c);
        by_class[c].push_back({index, pos});
        schedule.push_back({index, false});
      } else {
        const std::size_t c = hit_order[next_hit++];
        std::size_t eligible = 0;
        for (const auto& [index, at] : by_class[c]) {
          if (index < 3 || at + kHitDistance <= pos) ++eligible;
        }
        schedule.push_back({by_class[c][rng.below(eligible)].first, true});
      }
    }
  }
  return schedule;
}

/// One connection's share of the schedule, in send order.
struct Lane {
  std::vector<const std::string*> payloads;
  std::vector<Clock::time_point> due;
  std::vector<bool> traced;
  std::vector<bool> hit;
  std::vector<Reply> replies;
};

/// Sends every request of `lane` at its due time from a sender thread and
/// reads the replies in order on the calling thread. A traced request gets a
/// span from its due time to its reply, with the wait before sending as a
/// child, recorded as soon as the reply is read.
void drive_connection(const std::string& path, Lane& lane) {
  const int fd = connect_unix(path);
  std::thread sender([&] {
    try {
      for (std::size_t i = 0; i < lane.payloads.size(); ++i) {
        std::this_thread::sleep_until(lane.due[i]);
        lane.replies[i].sent = Clock::now();
        write_frame(fd, *lane.payloads[i]);
      }
    } catch (const std::exception&) {
      ::shutdown(fd, SHUT_RDWR);  // the receiver reports the failure
    }
  });
  for (std::size_t i = 0; i < lane.payloads.size(); ++i) {
    Reply& reply = lane.replies[i];
    try {
      const std::optional<std::string> frame = read_frame(fd);
      reply.received = Clock::now();
      if (!frame) throw ProtocolError("connection closed before the reply");
      reply.response = ScheduleResponse::parse(*frame);
    } catch (const std::exception& e) {
      reply.error = e.what();
      ::shutdown(fd, SHUT_RDWR);
    }
    if (lane.traced[i] && reply.error.empty()) {
      Tracer& tracer = Tracer::instance();
      const std::uint64_t id = tracer.record(lane.hit[i] ? "request.hit" : "request.cold",
                                             lane.due[i], reply.received);
      tracer.record("request.send_wait", lane.due[i], reply.sent, id);
    }
  }
  sender.join();
  ::close(fd);
}

Clock::time_point due_time(Clock::time_point t0, std::size_t i) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(static_cast<double>(i) / kRate));
}

/// Runs the whole schedule from `t0`, request i on connection
/// i % kConnections; requests from `traced_from` on are traced.
std::vector<Reply> drive(const std::string& path, const Setup& s, Clock::time_point t0,
                         std::size_t traced_from) {
  std::vector<Lane> lanes(kConnections);
  for (std::size_t i = 0; i < s.schedule.size(); ++i) {
    Lane& lane = lanes[i % kConnections];
    lane.payloads.push_back(&s.colds[s.schedule[i].cold].payload);
    lane.due.push_back(due_time(t0, i));
    lane.traced.push_back(i >= traced_from);
    lane.hit.push_back(s.schedule[i].hit);
  }
  std::vector<std::thread> clients;
  for (Lane& lane : lanes) {
    lane.replies.resize(lane.payloads.size());
    clients.emplace_back([&path, &lane] {
      try {
        drive_connection(path, lane);
      } catch (const std::exception& e) {  // could not connect
        for (Reply& r : lane.replies) r.error = e.what();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  std::vector<Reply> replies(s.schedule.size());
  for (std::size_t i = 0; i < replies.size(); ++i) {
    replies[i] = std::move(lanes[i % kConnections].replies[i / kConnections]);
  }
  return replies;
}

ScheduleResponse call_op(const std::string& path, const std::string& op) {
  const int fd = connect_unix(path);
  ScheduleRequest request;
  request.op = op;
  ScheduleResponse response;
  try {
    response = call_server(fd, request);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return response;
}

double extra_value(const ScheduleResponse& r, const std::string& key) {
  for (const auto& [k, v] : r.extra) {
    if (k == key) return std::stod(v);
  }
  throw std::runtime_error("server response has no '" + key + "'");
}

bool same_answer(const ScheduleResponse& a, const ScheduleResponse& b) {
  return std::bit_cast<std::uint64_t>(a.makespan) == std::bit_cast<std::uint64_t>(b.makespan) &&
         a.evals == b.evals && a.steps == b.steps && a.schedule_csv == b.schedule_csv &&
         !a.timed_out && !b.timed_out;
}

}  // namespace

void run_serve_open(const Args& args, Report& report) {
  const WorkDir dir("serve-open");
  const std::string path = socket_path(dir);
  const std::size_t rounds =
      std::max<std::size_t>(1, static_cast<std::size_t>(kRate * args.seconds) / kRoundSize);

  Setup s;
  const double setup_s = median_setup_seconds(3, [&] {
    if (s.server) {
      s.server->request_drain();
      s.server->join();
    }
    s = Setup{};
    std::vector<std::size_t> cold_class = {0, 1, 2};  // the warm-ups
    s.schedule = make_schedule(rounds, args.seed, cold_class);
    std::vector<std::size_t> per_class(3, 0);
    for (std::size_t i = 0; i < cold_class.size(); ++i) {
      Cold cold;
      cold.cls = cold_class[i];
      const std::size_t n = per_class[cold.cls]++;
      cold.workload = make_workload(kClasses[cold.cls](derive_seed(args.seed, {cold.cls, n})));
      Clock::time_point t0 = Clock::now();
      cold.heft = heft_schedule(cold.workload).makespan;
      s.heft_s += seconds_between(t0, Clock::now());
      cold.request.engine = "SE";
      cold.request.seed = derive_seed(args.seed, {cold.cls, n, 1});
      cold.request.budget = Budget::steps(kColdSteps);
      t0 = Clock::now();
      cold.request.workload_text = workload_to_string(cold.workload);
      s.serialize_ms.push_back(ms_between(t0, Clock::now()));
      cold.payload = cold.request.serialize();
      cold.request.workload_text.clear();
      s.colds.push_back(std::move(cold));
    }
    ServeOptions options;
    options.socket_path = path;
    options.threads = kSolverThreads;
    s.server = std::make_unique<Server>(options);
    s.server->start();
    // Warm-up: one cold solve per class, whose replies the first hits reuse.
    const int fd = connect_unix(path);
    for (std::size_t c = 0; c < 3; ++c) {
      Reply reply;
      reply.sent = Clock::now();
      try {
        write_frame(fd, s.colds[c].payload);
        const std::optional<std::string> frame = read_frame(fd);
        if (!frame) throw ProtocolError("connection closed before the reply");
        reply.response = ScheduleResponse::parse(*frame);
      } catch (const std::exception& e) {
        reply.error = e.what();
      }
      reply.received = Clock::now();
      s.warmup.push_back(std::move(reply));
    }
    ::close(fd);
  });

  // The timed schedule; a traced run traces its second half.
  const std::size_t traced_from =
      args.trace ? (rounds / 2) * kRoundSize : s.schedule.size();
  if (args.trace) Tracer::instance().set_enabled(true);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);
  const std::vector<Reply> replies = drive(path, s, t0, traced_from);
  auto due = [t0](std::size_t i) { return due_time(t0, i); };
  const ScheduleResponse stats = call_op(path, "stats");
  const ScheduleResponse metrics = call_op(path, "metrics");
  s.server->request_drain();
  s.server->join();
  report.add_attempted(replies.size());

  // Cross-path reference: every cold request solved directly with
  // run_search, outside the server (2 threads; the server is gone).
  std::vector<ScheduleResponse> direct(s.colds.size());
  {
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kSolverThreads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = t; i < s.colds.size(); i += kSolverThreads) {
          const Cold& cold = s.colds[i];
          try {
            const auto engine = make_search_engine("SE", cold.workload, cold.request.budget,
                                                   cold.request.seed);
            const SearchResult result = run_search(*engine, cold.request.budget);
            std::ostringstream csv;
            write_schedule_csv(csv, cold.workload, result.schedule);
            direct[i].makespan = result.best_makespan;
            direct[i].evals = result.evals;
            direct[i].steps = result.steps;
            direct[i].schedule_csv = csv.str();
          } catch (const std::exception& e) {
            direct[i].status = ServeStatus::kError;  // matches no reply
            direct[i].error = e.what();
          }
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }
  // The reply each cold request got (warm-ups from setup).
  std::vector<const ScheduleResponse*> cold_reply(s.colds.size(), nullptr);
  for (std::size_t c = 0; c < 3; ++c) cold_reply[c] = &s.warmup[c].response;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (!s.schedule[i].hit) cold_reply[s.schedule[i].cold] = &replies[i].response;
  }
  auto check_cold = [&](std::size_t cold, const Reply& reply) -> std::string {
    if (!reply.error.empty()) return reply.error;
    const ScheduleResponse& r = reply.response;
    if (r.status != ServeStatus::kOk) return std::string("status ") + to_string(r.status) + " " + r.error;
    if (r.cache_hit) return "a first request was answered from the cache";
    const auto violations = check_served(s.colds[cold].workload, r.schedule_csv, r.makespan);
    if (!violations.empty()) return violations.front();
    if (!same_answer(r, direct[cold])) return "differs from a direct run_search";
    return {};
  };
  for (std::size_t c = 0; c < 3; ++c) {
    const std::string problem = check_cold(c, s.warmup[c]);
    if (!problem.empty()) report.invalid("warm-up request " + std::to_string(c) + ": " + problem);
  }

  std::vector<double> latency_ms, hit_rtt, cold_rtt, solve_ms, queue_ms, unattributed, late_ms,
      vs_heft;
  // Latency of the correctly answered requests before and from traced_from.
  std::vector<double> untraced_ms, traced_ms;
  // Per round: evals and server-side solve seconds of its cold requests (one
  // per class), so the trial rate is a median over rounds as on se-paper.
  std::vector<double> round_evals(rounds, 0.0), round_solve_s(rounds, 0.0);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const Reply& reply = replies[i];
    const Slot& slot = s.schedule[i];
    std::string problem;
    if (!slot.hit) {
      problem = check_cold(slot.cold, reply);
    } else if (!reply.error.empty()) {
      problem = reply.error;
    } else if (reply.response.status != ServeStatus::kOk) {
      problem = std::string("status ") + to_string(reply.response.status);
    } else if (!same_answer(reply.response, *cold_reply[slot.cold])) {
      problem = "repeat differs from its first reply";
    }
    if (!problem.empty()) {
      report.fail("request " + std::to_string(i) + ": " + problem);
      continue;
    }
    const ScheduleResponse& r = reply.response;
    const double rtt = ms_between(reply.sent, reply.received);
    latency_ms.push_back(ms_between(due(i), reply.received));
    (i < traced_from ? untraced_ms : traced_ms).push_back(latency_ms.back());
    late_ms.push_back(ms_between(due(i), reply.sent));
    unattributed.push_back(rtt - r.queue_ms - r.solve_ms);
    if (r.cache_hit) {
      hit_rtt.push_back(rtt);
    } else {
      cold_rtt.push_back(rtt);
    }
    if (!slot.hit) {
      solve_ms.push_back(r.solve_ms);
      queue_ms.push_back(r.queue_ms);
      round_evals[i / kRoundSize] += static_cast<double>(r.evals);
      round_solve_s[i / kRoundSize] += r.solve_ms / 1e3;
      vs_heft.push_back(r.makespan / s.colds[slot.cold].heft);
    }
  }
  if (latency_ms.empty() || solve_ms.empty()) {
    report.invalid("no request was answered correctly");
    return;
  }

  if (!args.trace) {
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mib());
    report.set("solve_p50_ms", quantile(latency_ms, 0.5));
    report.set("solve_p90_ms", quantile(latency_ms, 0.9));
    Clock::time_point last = t0;
    for (const Reply& r : replies) last = std::max(last, r.received);
    report.set("solves_per_s", static_cast<double>(latency_ms.size()) / seconds_between(t0, last));
    std::vector<double> round_trials_per_s;
    for (std::size_t r = 0; r < rounds; ++r) {
      if (round_solve_s[r] > 0.0) round_trials_per_s.push_back(round_evals[r] / round_solve_s[r]);
    }
    report.set("trials_per_s", median(round_trials_per_s));
    report.set("makespan_vs_heft", geomean(vs_heft));
    return;
  }

  // Traced run: the first half of the schedule ran untraced. The spans are
  // two records per request on the client side, so this mostly reads the
  // drift between the halves.
  if (!untraced_ms.empty() && !traced_ms.empty()) {
    report.set("trace.overhead_share", median(traced_ms) / median(untraced_ms) - 1.0);
  }
  report.set("heuristics.heft_ms", s.heft_s * 1e3 / static_cast<double>(s.colds.size()));

  double parse_s = 0.0, bytes = 0.0;
  constexpr std::size_t kParsed = 6;
  for (std::size_t i = 0; i < kParsed; ++i) {
    const std::string text = workload_to_string(s.colds[i].workload);
    const Clock::time_point p0 = Clock::now();
    const Workload parsed = workload_from_string(text);
    parse_s += seconds_between(p0, Clock::now());
    if (parsed.num_tasks() != s.colds[i].workload.num_tasks()) report.invalid("workload parse lost tasks");
  }
  for (const Slot& slot : s.schedule) bytes += static_cast<double>(s.colds[slot.cold].payload.size());
  report.set("hc.workload_parse_ms", parse_s * 1e3 / kParsed);
  report.set("hc.workload_serialize_ms", mean(s.serialize_ms));
  report.set("hc.request_bytes", bytes / static_cast<double>(s.schedule.size()));

  report.set("serve.hit_rtt_p50_ms", hit_rtt.empty() ? 0.0 : quantile(hit_rtt, 0.5));
  report.set("serve.cold_rtt_p50_ms", quantile(cold_rtt, 0.5));
  report.set("serve.solve_ms_p50", quantile(solve_ms, 0.5));
  report.set("serve.arrival_to_solve_ms_p50", quantile(queue_ms, 0.5));
  report.set("serve.unattributed_ms_p50", quantile(unattributed, 0.5));
  for (const char* phase : {"parse", "cache_lookup", "reply"}) {
    const std::string key = std::string("phase.request/") + phase;
    report.set(std::string("serve.phase.") + phase + "_ms",
               extra_value(metrics, key + ".ms") / extra_value(metrics, key + ".visits"));
  }
  const double hits = extra_value(stats, "serve_cache_hits");
  report.set("serve.cache_hit_share", hits / (hits + extra_value(stats, "serve_cache_misses")));
  report.set("serve.coalesced", extra_value(stats, "coalesced"));
  report.set("serve.queue_peak", extra_value(stats, "queue_peak"));
  report.set("loadgen.late_ms_p90", quantile(late_ms, 0.9));

  std::vector<const Workload*> ledger_inputs;
  for (std::size_t i = 0; i < std::min<std::size_t>(6, s.colds.size()); ++i) {
    ledger_inputs.push_back(&s.colds[i].workload);
  }
  measure_library_layers(ledger_inputs, kColdSteps, args.seed, report);
}

}  // namespace perfbench
