// Serving-layer tests: wire protocol round-trips and rejections, the
// content-hash LRU, the bounded admission queue, and end-to-end Server
// behaviour (cache hits bit-identical to cold solves, deadline preemption,
// overload shedding, coalescing, graceful drain, and the preempted-slot
// hygiene regression).
#include <sys/socket.h>

#include <cerrno>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/content_hash.h"
#include "exp/trace_io.h"
#include "hc/workload_io.h"
#include "heuristics/scheduler.h"
#include "search/engine.h"
#include "serve/admission.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workload/generator.h"
#include "workload/params.h"

namespace sehc {
namespace {

// --- Helpers ---------------------------------------------------------------

/// A connected AF_UNIX stream pair; both ends close on destruction.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  }
  ~SocketPair() {
    for (int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
};

std::string small_workload_text(std::uint64_t seed, std::size_t tasks = 12,
                                std::size_t machines = 3) {
  WorkloadParams params;
  params.tasks = tasks;
  params.machines = machines;
  params.seed = seed;
  return workload_to_string(make_workload(params));
}

/// Unique short socket path per call (sockaddr_un limits path length).
std::string test_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/sehc_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

ScheduleRequest solve_request(const std::string& workload_text,
                              const std::string& engine = "SE",
                              std::uint64_t seed = 7,
                              Budget budget = Budget::steps(8)) {
  ScheduleRequest req;
  req.engine = engine;
  req.seed = seed;
  req.budget = budget;
  req.workload_text = workload_text;
  return req;
}

ScheduleResponse one_call(const std::string& socket_path,
                          const ScheduleRequest& req) {
  const int fd = connect_unix(socket_path);
  const ScheduleResponse resp = call_server(fd, req);
  ::close(fd);
  return resp;
}

// --- Framing ---------------------------------------------------------------

TEST(ServeFraming, RoundTripsPayloadsWithNewlines) {
  SocketPair sp;
  const std::string payload = "line one\nline two\n\nbinary-ish \x01\x02";
  write_frame(sp.fds[0], payload);
  const auto got = read_frame(sp.fds[1]);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST(ServeFraming, RoundTripsEmptyPayload) {
  SocketPair sp;
  write_frame(sp.fds[0], "");
  const auto got = read_frame(sp.fds[1]);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "");
}

TEST(ServeFraming, CleanEofIsNullopt) {
  SocketPair sp;
  ::close(sp.fds[0]);
  sp.fds[0] = -1;
  EXPECT_EQ(read_frame(sp.fds[1]), std::nullopt);
}

TEST(ServeFraming, RejectsBadMagic) {
  SocketPair sp;
  const std::string junk = "HTTP/1.1 200 OK\n";
  ASSERT_EQ(::send(sp.fds[0], junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  EXPECT_THROW((void)read_frame(sp.fds[1]), ProtocolError);
}

TEST(ServeFraming, RejectsGarbageLength) {
  SocketPair sp;
  const std::string junk = "SEHC1 12abc\n";
  ASSERT_EQ(::send(sp.fds[0], junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  EXPECT_THROW((void)read_frame(sp.fds[1]), ProtocolError);
}

TEST(ServeFraming, RejectsOversizedFrame) {
  SocketPair sp;
  const std::string junk = "SEHC1 4096\n";
  ASSERT_EQ(::send(sp.fds[0], junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  EXPECT_THROW((void)read_frame(sp.fds[1], /*max_bytes=*/1024), ProtocolError);
}

TEST(ServeFraming, RejectsTruncatedPayload) {
  SocketPair sp;
  const std::string partial = "SEHC1 100\nonly a few bytes";
  ASSERT_EQ(::send(sp.fds[0], partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));
  ::close(sp.fds[0]);  // EOF mid-payload
  sp.fds[0] = -1;
  EXPECT_THROW((void)read_frame(sp.fds[1]), ProtocolError);
}

TEST(ServeFraming, RejectsUnboundedHeader) {
  SocketPair sp;
  const std::string junk(64, 'A');  // no newline within the 32-byte bound
  ASSERT_EQ(::send(sp.fds[0], junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  EXPECT_THROW((void)read_frame(sp.fds[1]), ProtocolError);
}

// --- Request / response documents ------------------------------------------

TEST(ServeRequest, SerializeParseRoundTrip) {
  ScheduleRequest req;
  req.engine = "GA";
  req.seed = 99;
  req.y_limit = 3;
  req.budget = Budget::evals(20000);
  req.deadline_ms = 250.0;
  req.workload_text = small_workload_text(1);

  const ScheduleRequest got = ScheduleRequest::parse(req.serialize());
  EXPECT_EQ(got.op, "solve");
  EXPECT_EQ(got.engine, "GA");
  EXPECT_EQ(got.seed, 99u);
  EXPECT_EQ(got.y_limit, 3u);
  EXPECT_EQ(got.budget.kind, Budget::Kind::kEvals);
  EXPECT_EQ(got.budget.count, 20000u);
  EXPECT_DOUBLE_EQ(got.deadline_ms, 250.0);
  EXPECT_EQ(got.workload_text, req.workload_text);
}

TEST(ServeRequest, ParseRejectsMalformedDocuments) {
  EXPECT_THROW((void)ScheduleRequest::parse("not a request"), ProtocolError);
  EXPECT_THROW((void)ScheduleRequest::parse("sehc-request v1\nbogus_key=1\n"),
               ProtocolError);
  EXPECT_THROW((void)ScheduleRequest::parse("sehc-request v1\nseed=-4\n"),
               ProtocolError);
  EXPECT_THROW(
      (void)ScheduleRequest::parse("sehc-request v1\nbudget=steps:zero\n"),
      ProtocolError);
  EXPECT_THROW((void)ScheduleRequest::parse("sehc-request v1\nop=dance\n"),
               ProtocolError);
  // A solve without a workload section is malformed.
  EXPECT_THROW((void)ScheduleRequest::parse("sehc-request v1\nop=solve\n"),
               ProtocolError);
}

TEST(ServeRequest, BudgetTokenRoundTripsAllKinds) {
  for (const Budget& b :
       {Budget::steps(150), Budget::evals(20000), Budget::seconds(2.5)}) {
    const Budget got =
        ScheduleRequest::parse_budget_token(ScheduleRequest::budget_token(b));
    EXPECT_EQ(got.kind, b.kind);
    EXPECT_EQ(got.count, b.count);
    EXPECT_DOUBLE_EQ(got.wall_seconds, b.wall_seconds);
  }
  EXPECT_THROW((void)ScheduleRequest::parse_budget_token("eons:5"),
               ProtocolError);
  EXPECT_THROW((void)ScheduleRequest::parse_budget_token("steps:0"),
               ProtocolError);
}

TEST(ServeResponse, SerializeParseRoundTrip) {
  ScheduleResponse resp;
  resp.status = ServeStatus::kOk;
  resp.makespan = 1234.5678901234;
  resp.evals = 4242;
  resp.steps = 17;
  resp.timed_out = true;
  resp.cache_hit = true;
  resp.queue_ms = 1.5;
  resp.solve_ms = 22.25;
  resp.extra.emplace_back("requests", "12");
  resp.schedule_csv = "task,name,machine,start,finish\n0,t0,1,0,5\n";

  const ScheduleResponse got = ScheduleResponse::parse(resp.serialize());
  EXPECT_EQ(got.status, ServeStatus::kOk);
  EXPECT_DOUBLE_EQ(got.makespan, resp.makespan);
  EXPECT_EQ(got.evals, 4242u);
  EXPECT_EQ(got.steps, 17u);
  EXPECT_TRUE(got.timed_out);
  EXPECT_TRUE(got.cache_hit);
  EXPECT_DOUBLE_EQ(got.queue_ms, 1.5);
  EXPECT_DOUBLE_EQ(got.solve_ms, 22.25);
  ASSERT_EQ(got.extra.size(), 1u);
  EXPECT_EQ(got.extra[0].first, "requests");
  EXPECT_EQ(got.extra[0].second, "12");
  EXPECT_EQ(got.schedule_csv, resp.schedule_csv);
}

TEST(ServeResponse, ErrorMessageNewlinesAreFolded) {
  ScheduleResponse resp;
  resp.status = ServeStatus::kError;
  resp.error = "line one\nline two";
  const ScheduleResponse got = ScheduleResponse::parse(resp.serialize());
  EXPECT_EQ(got.status, ServeStatus::kError);
  EXPECT_EQ(got.error, "line one line two");
}

TEST(ServeRequest, CanonicalIdentityExcludesDeadlineIncludesBudget) {
  ScheduleRequest a = solve_request(small_workload_text(3));
  ScheduleRequest b = a;
  b.deadline_ms = 500.0;  // deadline must not split the cache
  EXPECT_EQ(a.identity_header(), b.identity_header());

  ScheduleRequest c = a;
  c.budget = Budget::steps(9);  // budget is part of the identity
  EXPECT_NE(a.identity_header(), c.identity_header());

  ScheduleRequest d = a;
  d.seed = a.seed + 1;
  EXPECT_NE(a.identity_header(), d.identity_header());

  ScheduleRequest e = a;
  e.workload_text = small_workload_text(4);  // the workload is not
  EXPECT_EQ(a.identity_header(), e.identity_header());
}

// --- ContentLru ------------------------------------------------------------

TEST(ContentLruTest, EvictsLeastRecentlyUsed) {
  ContentLru<int> lru(2);
  lru.insert(1, "one", 10);
  lru.insert(2, "two", 20);
  EXPECT_TRUE(lru.lookup(1, "one").has_value());  // refresh 1; 2 becomes LRU
  lru.insert(3, "three", 30);                     // evicts 2
  EXPECT_TRUE(lru.lookup(1, "one").has_value());
  EXPECT_FALSE(lru.lookup(2, "two").has_value());
  EXPECT_TRUE(lru.lookup(3, "three").has_value());
  EXPECT_EQ(lru.evictions(), 1u);
}

TEST(ContentLruTest, HashCollisionIsAMissNotAWrongAnswer) {
  ContentLru<int> lru(4);
  lru.insert(42, "alpha", 1);
  EXPECT_FALSE(lru.lookup(42, "beta").has_value());
  EXPECT_EQ(lru.collisions(), 1u);
  // The true entry still serves.
  EXPECT_EQ(lru.lookup(42, "alpha").value(), 1);
}

TEST(ContentLruTest, SharedTextKeyComparesPointerThenContent) {
  ContentLru<int, SharedTextKey> lru(4);
  const auto text = std::make_shared<const std::string>("workload bytes");
  lru.insert(7, SharedTextKey{"header\n", text}, 1);

  // The same shared buffer: a hit without touching the text.
  EXPECT_EQ(lru.lookup(7, SharedTextKey{"header\n", text}).value(), 1);
  // A different buffer with equal bytes: still a hit.
  const auto copy = std::make_shared<const std::string>(*text);
  EXPECT_EQ(lru.lookup(7, SharedTextKey{"header\n", copy}).value(), 1);
  EXPECT_EQ(lru.hits(), 2u);

  // Same hash, different text or header: a counted collision, not a hit.
  const auto other = std::make_shared<const std::string>("other bytes");
  EXPECT_FALSE(lru.lookup(7, SharedTextKey{"header\n", other}).has_value());
  EXPECT_FALSE(lru.lookup(7, SharedTextKey{"other\n", text}).has_value());
  EXPECT_EQ(lru.collisions(), 2u);
  EXPECT_EQ(lru.lookup(7, SharedTextKey{"header\n", text}).value(), 1);
}

TEST(ContentLruTest, ZeroCapacityDisables) {
  ContentLru<int> lru(0);
  lru.insert(1, "one", 10);
  EXPECT_FALSE(lru.lookup(1, "one").has_value());
  EXPECT_EQ(lru.size(), 0u);
}

// --- BoundedQueue ----------------------------------------------------------

TEST(BoundedQueueTest, ShedsWhenFullAndDrainsInBatches) {
  BoundedQueue<int> q(3);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_FALSE(q.try_push(4));  // full => shed
  EXPECT_EQ(q.peak_depth(), 3u);

  std::vector<int> batch;
  EXPECT_EQ(q.pop_batch(batch, 2), 2u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.pop_batch(batch, 2), 1u);
  EXPECT_EQ(batch, (std::vector<int>{3}));

  q.close();
  EXPECT_FALSE(q.try_push(5));
  EXPECT_EQ(q.pop_batch(batch, 2), 0u);  // closed-and-drained
}

// --- End-to-end server -----------------------------------------------------

TEST(ServeServer, ColdSolveMatchesOfflineRunAndCacheHitIsBitIdentical) {
  const std::uint64_t seed = 11;
  WorkloadParams params;
  params.tasks = 12;
  params.machines = 3;
  params.seed = 1;
  const Workload w = make_workload(params);
  const Budget budget = Budget::steps(8);

  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 2;
  Server server(so);
  server.start();

  const ScheduleRequest req =
      solve_request(workload_to_string(w), "SE", seed, budget);
  const ScheduleResponse cold = one_call(so.socket_path, req);
  ASSERT_EQ(cold.status, ServeStatus::kOk) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_FALSE(cold.timed_out);
  EXPECT_FALSE(cold.schedule_csv.empty());

  // The server's answer is the same bytes an offline run_search produces.
  auto engine = make_search_engine("SE", w, budget, seed);
  const SearchResult offline = run_search(*engine, budget);
  std::ostringstream offline_csv;
  write_schedule_csv(offline_csv, w, offline.schedule);
  EXPECT_EQ(cold.makespan, offline.best_makespan);
  EXPECT_EQ(cold.schedule_csv, offline_csv.str());

  // A repeat is a cache hit with bit-identical deterministic fields.
  const ScheduleResponse warm = one_call(so.socket_path, req);
  ASSERT_EQ(warm.status, ServeStatus::kOk) << warm.error;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.makespan, cold.makespan);
  EXPECT_EQ(warm.schedule_csv, cold.schedule_csv);
  EXPECT_EQ(warm.evals, cold.evals);
  EXPECT_EQ(warm.steps, cold.steps);

  // Reformatting the workload document must not split the cache: submit the
  // same workload re-serialized (identical here, but via a fresh parse).
  ScheduleRequest reparsed = req;
  reparsed.workload_text =
      workload_to_string(workload_from_string(req.workload_text));
  const ScheduleResponse reformatted = one_call(so.socket_path, reparsed);
  EXPECT_TRUE(reformatted.cache_hit);

  const ServerStats stats = server.stats_snapshot();
  EXPECT_GE(stats.cache_hits, 2u);
  EXPECT_EQ(stats.errors, 0u);
  server.request_drain();
  server.join();
}

TEST(ServeServer, OneShotSchedulersServeToo) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  const std::string workload = small_workload_text(2);
  const ScheduleResponse resp =
      one_call(so.socket_path, solve_request(workload, "HEFT"));
  ASSERT_EQ(resp.status, ServeStatus::kOk) << resp.error;
  EXPECT_FALSE(resp.schedule_csv.empty());
  EXPECT_GT(resp.makespan, 0.0);
  server.request_drain();
  server.join();
}

TEST(ServeServer, UnknownEngineAnswersErrorAndKeepsServing) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  const std::string workload = small_workload_text(4);
  const ScheduleResponse bad =
      one_call(so.socket_path, solve_request(workload, "NoSuchEngine"));
  EXPECT_EQ(bad.status, ServeStatus::kError);
  EXPECT_NE(bad.error.find("NoSuchEngine"), std::string::npos);

  const ScheduleResponse good =
      one_call(so.socket_path, solve_request(workload, "SE"));
  EXPECT_EQ(good.status, ServeStatus::kOk) << good.error;
  server.request_drain();
  server.join();
}

TEST(ServeServer, MalformedWorkloadAnswersError) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  const ScheduleResponse resp =
      one_call(so.socket_path, solve_request("this is not a workload\n"));
  EXPECT_EQ(resp.status, ServeStatus::kError);
  EXPECT_FALSE(resp.error.empty());
  server.request_drain();
  server.join();
}

TEST(ServeServer, GarbageFrameDropsConnectionButServerSurvives) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  const int fd = connect_unix(so.socket_path);
  const std::string junk = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(junk.size()));
  // The server closes the broken connection; the next read sees EOF or a
  // reset (close with unread data pending sends RST on some stacks).
  char buf[16];
  ssize_t r;
  do {
    r = ::recv(fd, buf, sizeof buf, 0);
  } while (r > 0);
  EXPECT_TRUE(r == 0 || (r == -1 && errno == ECONNRESET)) << errno;
  ::close(fd);

  const ScheduleResponse resp =
      one_call(so.socket_path, solve_request(small_workload_text(5)));
  EXPECT_EQ(resp.status, ServeStatus::kOk) << resp.error;
  EXPECT_GE(server.stats_snapshot().protocol_errors, 1u);
  server.request_drain();
  server.join();
}

TEST(ServeServer, DeadlineExpiredReturnsIncumbentAndIsNotCached) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  WorkloadParams params;
  params.tasks = 40;
  params.machines = 8;
  params.seed = 6;
  const Workload w = make_workload(params);

  // A step budget far beyond what 20 ms allows: the Deadline preempts the
  // run, which must still answer with a valid incumbent schedule.
  ScheduleRequest req = solve_request(workload_to_string(w), "SE", 3,
                                      Budget::steps(5'000'000));
  req.deadline_ms = 20.0;
  const ScheduleResponse resp = one_call(so.socket_path, req);
  ASSERT_EQ(resp.status, ServeStatus::kOk) << resp.error;
  EXPECT_TRUE(resp.timed_out);
  EXPECT_FALSE(resp.cache_hit);
  EXPECT_GT(resp.makespan, 0.0);
  EXPECT_FALSE(resp.schedule_csv.empty());

  // Timed-out answers are wall-clock dependent, so they must not be cached:
  // the repeat is another cold (and again preempted) solve.
  const ScheduleResponse again = one_call(so.socket_path, req);
  ASSERT_EQ(again.status, ServeStatus::kOk) << again.error;
  EXPECT_FALSE(again.cache_hit);

  const ServerStats stats = server.stats_snapshot();
  EXPECT_GE(stats.timeouts, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  server.request_drain();
  server.join();
}

// Satellite regression: a worker slot recycled after a Deadline-preempted
// run must behave exactly like a fresh server — no stale prepared/evaluator
// state may leak into the next solve on that slot.
TEST(ServeServer, PreemptedSlotDoesNotContaminateNextSolve) {
  WorkloadParams p1;
  p1.tasks = 40;
  p1.machines = 8;
  p1.seed = 21;
  const std::string w1 = workload_to_string(make_workload(p1));
  const std::string w2 = small_workload_text(22, 14, 4);
  const Budget small_budget = Budget::steps(6);

  // Reference answers from a server that never saw a preemption.
  ScheduleResponse fresh_w2, fresh_w1;
  {
    ServeOptions so;
    so.socket_path = test_socket_path();
    so.threads = 1;
    Server fresh(so);
    fresh.start();
    fresh_w2 =
        one_call(so.socket_path, solve_request(w2, "GA", 5, small_budget));
    fresh_w1 =
        one_call(so.socket_path, solve_request(w1, "GA", 5, small_budget));
    ASSERT_EQ(fresh_w2.status, ServeStatus::kOk) << fresh_w2.error;
    ASSERT_EQ(fresh_w1.status, ServeStatus::kOk) << fresh_w1.error;
    fresh.request_drain();
    fresh.join();
  }

  // One worker slot: the preempted GA run and the follow-ups share it.
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  ScheduleRequest preempted =
      solve_request(w1, "GA", 5, Budget::steps(5'000'000));
  preempted.deadline_ms = 20.0;
  const ScheduleResponse t = one_call(so.socket_path, preempted);
  ASSERT_EQ(t.status, ServeStatus::kOk) << t.error;
  ASSERT_TRUE(t.timed_out) << "preemption did not trigger; timing too tight";

  // A different workload on the recycled slot must match the fresh server.
  const ScheduleResponse after_w2 =
      one_call(so.socket_path, solve_request(w2, "GA", 5, small_budget));
  ASSERT_EQ(after_w2.status, ServeStatus::kOk) << after_w2.error;
  EXPECT_FALSE(after_w2.cache_hit);
  EXPECT_EQ(after_w2.makespan, fresh_w2.makespan);
  EXPECT_EQ(after_w2.schedule_csv, fresh_w2.schedule_csv);

  // And re-requesting the preempted workload with a sane budget (a cache
  // miss — timed-out answers were never cached) must match too.
  const ScheduleResponse after_w1 =
      one_call(so.socket_path, solve_request(w1, "GA", 5, small_budget));
  ASSERT_EQ(after_w1.status, ServeStatus::kOk) << after_w1.error;
  EXPECT_FALSE(after_w1.cache_hit);
  EXPECT_EQ(after_w1.makespan, fresh_w1.makespan);
  EXPECT_EQ(after_w1.schedule_csv, fresh_w1.schedule_csv);

  server.request_drain();
  server.join();
}

TEST(ServeServer, OverCapacityBurstIsShedNotQueuedUnbounded) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  so.queue_capacity = 1;
  Server server(so);
  server.start();

  // Distinct slow workloads (no coalescing, no cache): with one worker and
  // a one-deep queue, a burst of 5 must shed at least 3.
  std::vector<std::thread> clients;
  std::atomic<int> ok{0}, shed{0};
  for (int i = 0; i < 5; ++i) {
    clients.emplace_back([&, i] {
      WorkloadParams params;
      params.tasks = 30;
      params.machines = 6;
      params.seed = 100 + static_cast<std::uint64_t>(i);
      ScheduleRequest req = solve_request(
          workload_to_string(make_workload(params)), "SE",
          static_cast<std::uint64_t>(i), Budget::steps(5'000'000));
      req.deadline_ms = 150.0;  // keep the worker busy, but bounded
      const ScheduleResponse resp = one_call(so.socket_path, req);
      if (resp.status == ServeStatus::kOk) ok.fetch_add(1);
      if (resp.status == ServeStatus::kOverloaded) shed.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(shed.load(), 1);
  EXPECT_EQ(ok.load() + shed.load(), 5);
  const ServerStats stats = server.stats_snapshot();
  EXPECT_GE(stats.shed, static_cast<std::uint64_t>(shed.load()));
  EXPECT_LE(stats.queue_peak, so.queue_capacity);
  server.request_drain();
  server.join();
}

TEST(ServeServer, ConcurrentIdenticalRequestsCoalesceIntoOneSolve) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  // Occupy the single worker so the identical burst is concurrent for sure.
  std::thread blocker([&] {
    WorkloadParams params;
    params.tasks = 30;
    params.machines = 6;
    params.seed = 200;
    ScheduleRequest req = solve_request(
        workload_to_string(make_workload(params)), "SE", 1,
        Budget::steps(5'000'000));
    req.deadline_ms = 150.0;
    (void)one_call(so.socket_path, req);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  const std::string workload = small_workload_text(8);
  std::vector<std::thread> clients;
  std::vector<ScheduleResponse> responses(4);
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      responses[i] = one_call(so.socket_path, solve_request(workload));
    });
  }
  for (std::thread& t : clients) t.join();
  blocker.join();

  for (const ScheduleResponse& r : responses) {
    ASSERT_EQ(r.status, ServeStatus::kOk) << r.error;
    EXPECT_EQ(r.makespan, responses[0].makespan);
    EXPECT_EQ(r.schedule_csv, responses[0].schedule_csv);
  }
  // At least one of the four rode another's solve instead of re-solving.
  EXPECT_GE(server.stats_snapshot().coalesced, 1u);
  server.request_drain();
  server.join();
}

TEST(ServeServer, DrainCompletesInFlightRequestsThenShutsDown) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  WorkloadParams params;
  params.tasks = 30;
  params.machines = 6;
  params.seed = 300;
  ScheduleRequest slow = solve_request(
      workload_to_string(make_workload(params)), "SE", 1,
      Budget::steps(5'000'000));
  slow.deadline_ms = 150.0;

  ScheduleResponse resp;
  std::thread client(
      [&] { resp = one_call(so.socket_path, slow); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  server.request_drain();
  server.join();  // must not strand the in-flight client
  client.join();

  EXPECT_EQ(resp.status, ServeStatus::kOk) << resp.error;
  EXPECT_FALSE(resp.schedule_csv.empty());
  // The socket is gone: new connections are refused.
  EXPECT_THROW((void)connect_unix(so.socket_path), ProtocolError);
}

TEST(ServeServer, StatsEndpointReportsCounters) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  const std::string workload = small_workload_text(9);
  (void)one_call(so.socket_path, solve_request(workload));
  (void)one_call(so.socket_path, solve_request(workload));  // cache hit

  ScheduleRequest stats_req;
  stats_req.op = "stats";
  stats_req.workload_text.clear();
  const ScheduleResponse stats = one_call(so.socket_path, stats_req);
  ASSERT_EQ(stats.status, ServeStatus::kOk);

  auto value_of = [&stats](const std::string& key) -> std::string {
    for (const auto& [k, v] : stats.extra) {
      if (k == key) return v;
    }
    return "<absent>";
  };
  EXPECT_EQ(value_of("requests"), "3");
  EXPECT_EQ(value_of("serve_cache_hits"), "1");
  EXPECT_EQ(value_of("serve_cache_misses"), "1");
  EXPECT_EQ(value_of("draining"), "0");
  EXPECT_NE(value_of("batches"), "<absent>");
  EXPECT_NE(value_of("queue_peak"), "<absent>");
  server.request_drain();
  server.join();
}

/// The value of `key` in a stats/metrics response's extra fields.
std::string extra_field(const ScheduleResponse& resp, const std::string& key) {
  for (const auto& [k, v] : resp.extra) {
    if (k == key) return v;
  }
  return "<absent>";
}

ScheduleResponse op_call(const std::string& socket_path, const char* op) {
  ScheduleRequest req;
  req.op = op;
  return one_call(socket_path, req);
}

void expect_same_answer(const ScheduleResponse& a, const ScheduleResponse& b) {
  ASSERT_EQ(a.status, ServeStatus::kOk) << a.error;
  ASSERT_EQ(b.status, ServeStatus::kOk) << b.error;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.makespan),
            std::bit_cast<std::uint64_t>(b.makespan));
  EXPECT_EQ(a.evals, b.evals);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.schedule_csv, b.schedule_csv);
}

TEST(ServeServer, NumericallyEqualDocumentsShareOneCacheEntry) {
  // A hand-written document with extra whitespace and non-canonical number
  // spellings (2.50, 4.0) that parses to the same workload as the canonical
  // text workload_to_string produces for it.
  const std::string messy =
      "sehc-workload v1\n"
      "machines 2\n"
      "sehc-dag v1\n"
      "tasks 3\n"
      "edge 0 1\n"
      "edge 0 2\n"
      "end-dag\n"
      "exec\n"
      "2.50   4.0 1\n"
      " 3 1.25e0 2 \n"
      "transfer\n"
      "0.5\t1.50\n";
  const std::string canonical = workload_to_string(workload_from_string(messy));
  ASSERT_NE(messy, canonical);

  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();
  const ScheduleResponse cold = one_call(so.socket_path, solve_request(messy));
  const ScheduleResponse hit =
      one_call(so.socket_path, solve_request(canonical));
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  expect_same_answer(cold, hit);
  EXPECT_EQ(server.stats_snapshot().cache_size, 1u);
  server.request_drain();
  server.join();
}

TEST(ServeServer, WorkloadCacheEvictionStillHitsResponseCache) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  so.workload_cache_capacity = 1;
  Server server(so);
  server.start();

  const std::string a = small_workload_text(21);
  const std::string b = small_workload_text(22);
  const ScheduleResponse cold_a = one_call(so.socket_path, solve_request(a));
  const ScheduleResponse cold_b = one_call(so.socket_path, solve_request(b));
  // Each body evicted the other from the one-entry workload cache, so these
  // repeats are re-parsed and re-canonicalized into fresh buffers; the
  // response cache still matches them by content.
  const ScheduleResponse hit_a = one_call(so.socket_path, solve_request(a));
  const ScheduleResponse hit_b = one_call(so.socket_path, solve_request(b));
  EXPECT_TRUE(hit_a.cache_hit);
  EXPECT_TRUE(hit_b.cache_hit);
  expect_same_answer(cold_a, hit_a);
  expect_same_answer(cold_b, hit_b);

  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.workload_cache_hits, 0u);
  EXPECT_EQ(stats.cache_hits, 2u);
  server.request_drain();
  server.join();
}

TEST(ServeServer, MetricsCountOneReadPhasePerSolveRequest) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  const std::string workload = small_workload_text(23);
  constexpr int kSolves = 3;  // one cold solve, then two cache hits
  for (int i = 0; i < kSolves; ++i) {
    ASSERT_EQ(one_call(so.socket_path, solve_request(workload)).status,
              ServeStatus::kOk);
  }
  (void)op_call(so.socket_path, "stats");  // not a solve: no phases
  const ScheduleResponse metrics = op_call(so.socket_path, "metrics");
  ASSERT_EQ(metrics.status, ServeStatus::kOk);
  const std::string n = std::to_string(kSolves);
  EXPECT_EQ(extra_field(metrics, "phase.request/read.visits"), n);
  EXPECT_EQ(extra_field(metrics, "phase.request/parse.visits"), n);
  EXPECT_EQ(extra_field(metrics, "phase.request/cache_lookup.visits"), n);
  EXPECT_EQ(extra_field(metrics, "phase.request/reply.visits"), n);
  EXPECT_EQ(extra_field(metrics, "phase.request/queue.visits"), "1");
  EXPECT_EQ(extra_field(metrics, "phase.request/solve.visits"), "1");
  EXPECT_EQ(extra_field(metrics, "hist.latency/request_us.count"), n);
  server.request_drain();
  server.join();
}

}  // namespace
}  // namespace sehc
