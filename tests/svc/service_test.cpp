// Service semantics: the exactly-one-response contract, cache hit/miss
// byte identity, bounded admission (E_OVERLOADED), deadlines, drain, and
// a concurrent hammer that runs TSan-clean.
#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/parameters.hpp"
#include "io/json.hpp"
#include "util/thread_pool.hpp"

namespace rat::svc {
namespace {

std::string evaluate_line(const std::string& id, const std::string& sheet,
                          const std::string& extra = "") {
  return "{\"id\":" + io::json_str(id) +
         ",\"op\":\"evaluate\",\"worksheet\":" + io::json_str(sheet) + extra +
         "}";
}

/// Collects responses from any thread and lets the test block until a
/// given count has arrived.
class Collector {
 public:
  std::function<void(std::string)> sink() {
    return [this](std::string line) {
      std::lock_guard lock(mu_);
      lines_.push_back(std::move(line));
      cv_.notify_all();
    };
  }

  std::vector<std::string> wait_for(std::size_t n) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return lines_.size() >= n; });
    return lines_;
  }

  std::size_t count() {
    std::lock_guard lock(mu_);
    return lines_.size();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
};

std::string error_code_of(const std::string& line) {
  const io::JsonValue doc = io::parse_json(line);
  const io::JsonValue* err = doc.find("error");
  return err ? err->find("code")->string : "";
}

/// Occupies every shared-pool worker until release() so admitted
/// evaluations queue behind it deterministically.
class PoolBlocker {
 public:
  PoolBlocker() {
    const std::size_t n = util::ThreadPool::shared().size();
    gate_ = release_.get_future().share();
    // Each task waits on its own copy of the gate: a worker that wakes
    // from release() may still be inside wait() when the blocker is
    // destroyed, so it must hold a reference to the shared state.
    for (std::size_t i = 0; i < n; ++i)
      util::ThreadPool::shared().submit([this, gate = gate_] {
        blocked_.fetch_add(1);
        gate.wait();
      });
    while (blocked_.load() < n) std::this_thread::yield();
  }

  void release() {
    if (!released_) release_.set_value();
    released_ = true;
  }

  ~PoolBlocker() { release(); }

 private:
  std::promise<void> release_;
  std::shared_future<void> gate_;
  std::atomic<std::size_t> blocked_{0};
  bool released_ = false;
};

TEST(SvcService, CacheHitAndMissResponsesAreByteIdentical) {
  Service service({.cache_capacity = 16});
  Collector out;
  const std::string sheet = core::pdf1d_inputs().serialize();
  service.submit(evaluate_line("r", sheet), out.sink());
  out.wait_for(1);  // the miss completes before the hit is submitted
  service.submit(evaluate_line("r", sheet), out.sink());
  const auto lines = out.wait_for(2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], lines[1]);  // the acceptance requirement, literally
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);
  const Service::Stats st = service.stats();
  EXPECT_EQ(st.cache.misses, 1u);
  EXPECT_EQ(st.cache.hits, 1u);
  EXPECT_EQ(st.responses_ok, 2u);
}

TEST(SvcService, StatsExportCarriesCacheBytesAndHitRatio) {
  Service service({.cache_capacity = 16});
  Collector out;
  const std::string sheet = core::pdf1d_inputs().serialize();
  service.submit(evaluate_line("miss", sheet), out.sink());
  out.wait_for(1);
  service.submit(evaluate_line("hit", sheet), out.sink());
  out.wait_for(2);
  service.submit("{\"id\":\"s\",\"op\":\"stats\"}", out.sink());
  const auto lines = out.wait_for(3);
  const io::JsonValue doc = io::parse_json(lines[2]);
  const io::JsonValue* cache = doc.find("stats")->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("hit_ratio")->number, 0.5);
  EXPECT_GT(cache->find("bytes")->number, 0.0);
}

TEST(SvcService, NoCacheBypassesTheCache) {
  Service service({.cache_capacity = 16});
  Collector out;
  const std::string sheet = core::pdf1d_inputs().serialize();
  service.submit(evaluate_line("a", sheet, ",\"no_cache\":true"), out.sink());
  service.submit(evaluate_line("b", sheet, ",\"no_cache\":true"), out.sink());
  service.drain();
  const Service::Stats st = service.stats();
  EXPECT_EQ(st.cache.hits, 0u);
  EXPECT_EQ(st.cache.misses, 0u);
  EXPECT_EQ(st.cache.size, 0u);
  EXPECT_EQ(st.responses_ok, 2u);
}

TEST(SvcService, OverloadedRequestsGetStructuredRejection) {
  PoolBlocker blocker;  // nothing admitted can start running
  Service service({.queue_capacity = 2});
  Collector out;
  const std::string sheet = core::pdf1d_inputs().serialize();
  service.submit(evaluate_line("a", sheet), out.sink());
  service.submit(evaluate_line("b", sheet), out.sink());
  // Queue full (2 queued, 0 running): the third is rejected inline, not
  // buffered.
  service.submit(evaluate_line("c", sheet), out.sink());
  const auto rejected = out.wait_for(1);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(error_code_of(rejected[0]), "E_OVERLOADED");
  EXPECT_NE(rejected[0].find("\"id\":\"c\""), std::string::npos);
  EXPECT_EQ(service.stats().rejected_overloaded, 1u);

  blocker.release();
  service.drain();
  const auto all = out.wait_for(3);
  EXPECT_EQ(all.size(), 3u);  // exactly one response per request
  EXPECT_EQ(service.stats().responses_ok, 2u);
}

TEST(SvcService, ExpiredDeadlineIsReportedNotEvaluated) {
  PoolBlocker blocker;
  Service service;
  Collector out;
  service.submit(
      evaluate_line("d", core::pdf1d_inputs().serialize(),
                    ",\"deadline_ms\":1"),
      out.sink());
  // Hold the pool well past the deadline, then let the task run.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  blocker.release();
  const auto lines = out.wait_for(1);
  EXPECT_EQ(error_code_of(lines[0]), "E_DEADLINE_EXPIRED");
  service.drain();
  EXPECT_EQ(service.stats().deadline_expired, 1u);
  EXPECT_EQ(service.stats().cache.misses, 0u);  // never evaluated
}

TEST(SvcService, HugeDeadlineIsClampedNotUndefined) {
  // Regression: deadline_ms * 1e6 used to be cast to uint64_t unclamped,
  // which is UB for huge finite values like 1e308 (check.sh runs this
  // suite under UBSan to keep it honest). Clamped, it just means "no
  // practical deadline" and the evaluation succeeds.
  Service service;
  Collector out;
  service.submit(evaluate_line("huge", core::pdf1d_inputs().serialize(),
                               ",\"deadline_ms\":1e308"),
                 out.sink());
  const auto lines = out.wait_for(1);
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos) << lines[0];
  service.drain();
  EXPECT_EQ(service.stats().deadline_expired, 0u);
}

TEST(SvcService, MalformedWorksheetYieldsCoreDiagnostic) {
  Service service;
  Collector out;
  service.submit(
      evaluate_line("bad", "name = broken\nfclock_hz = 75e6 oops\n"),
      out.sink());
  service.drain();
  const auto lines = out.wait_for(1);
  const io::JsonValue doc = io::parse_json(lines[0]);
  const io::JsonValue* err = doc.find("error");
  ASSERT_NE(err, nullptr);
  // The worksheet E_* taxonomy, with the full structured diagnostic.
  EXPECT_EQ(err->find("code")->string, "E_BAD_LIST");
  const io::JsonValue* diag = err->find("diagnostic");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->find("file")->string, "<request>");
  EXPECT_EQ(diag->find("line")->number, 2.0);
  EXPECT_EQ(diag->find("key")->string, "fclock_hz");
}

TEST(SvcService, ValidationFailureMapsToInvalidValue) {
  Service service;
  Collector out;
  core::RatInputs in = core::pdf1d_inputs();
  in.comm.alpha_write = 2.0;  // alphas live in (0, 1]
  service.submit(evaluate_line("v", in.serialize()), out.sink());
  service.drain();
  EXPECT_EQ(error_code_of(out.wait_for(1)[0]), "E_INVALID_VALUE");
}

TEST(SvcService, ProtocolErrorsAreAnsweredInline) {
  Service service;
  Collector out;
  service.submit("{\"op\":\"evaluate\"}", out.sink());
  service.submit("{nope", out.sink());
  // Inline: both responses are already there, no drain needed.
  ASSERT_EQ(out.count(), 2u);
  for (const std::string& line : out.wait_for(2))
    EXPECT_EQ(error_code_of(line), "E_BAD_REQUEST");
  EXPECT_EQ(service.stats().responses_error, 2u);
}

TEST(SvcService, DrainingRejectsNewWorkAndShutdownOpTriggersHandler) {
  Service service;
  Collector out;
  std::atomic<int> handler_calls{0};
  service.set_shutdown_handler([&] { handler_calls.fetch_add(1); });
  service.submit("{\"id\":\"s\",\"op\":\"shutdown\"}", out.sink());
  EXPECT_EQ(handler_calls.load(), 1);
  // The handler owns the drain (as the server does); nothing drains yet.
  EXPECT_FALSE(service.draining());
  service.begin_drain();
  service.submit(evaluate_line("late", core::pdf1d_inputs().serialize()),
                 out.sink());
  const auto lines = out.wait_for(2);
  EXPECT_EQ(error_code_of(lines[1]), "E_SHUTTING_DOWN");
  EXPECT_EQ(service.stats().rejected_draining, 1u);
  service.wait_drained();
}

TEST(SvcService, PingAndStatsAnswerInline) {
  Service service;
  Collector out;
  service.submit("{\"id\":\"p\",\"op\":\"ping\"}", out.sink());
  service.submit("{\"id\":\"s\",\"op\":\"stats\"}", out.sink());
  ASSERT_EQ(out.count(), 2u);
  const auto lines = out.wait_for(2);
  EXPECT_NE(lines[0].find("\"op\":\"ping\""), std::string::npos);
  const io::JsonValue stats = io::parse_json(lines[1]);
  ASSERT_TRUE(stats.find("stats") != nullptr);
  EXPECT_EQ(stats.find("stats")->find("cache")->find("capacity")->number,
            1024.0);
}

// The TSan target: many threads pipelining a mix of good, cached, and
// malformed requests while the cache, admission counters and stats are
// hammered concurrently. Every request must get exactly one response.
TEST(SvcService, ConcurrentHammerAnswersEveryRequestExactlyOnce) {
  Service service({.cache_capacity = 8, .queue_capacity = 1024});
  Collector out;
  const std::vector<std::string> sheets = {
      core::pdf1d_inputs().serialize(), core::pdf2d_inputs().serialize(),
      core::md_inputs().serialize(),
      "name = broken\nfclock_hz = 75e6 oops\n"};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string id =
            "t" + std::to_string(t) + "." + std::to_string(i);
        service.submit(evaluate_line(id, sheets[i % sheets.size()]),
                       out.sink());
        if (i % 8 == 0)
          service.submit("{\"id\":\"s\",\"op\":\"stats\"}", out.sink());
      }
    });
  for (std::thread& c : clients) c.join();
  service.drain();
  const std::size_t expected =
      kThreads * (kPerThread + kPerThread / 8);
  EXPECT_EQ(out.wait_for(expected).size(), expected);
  const Service::Stats st = service.stats();
  EXPECT_EQ(st.requests, expected);
  EXPECT_EQ(st.responses_ok + st.responses_error, expected);
  EXPECT_GT(st.cache.hits, 0u);
  EXPECT_EQ(st.in_flight, 0u);
}

TEST(SvcService, DestructorDrains) {
  Collector out;
  {
    Service service;
    service.submit(evaluate_line("d", core::pdf1d_inputs().serialize()),
                   out.sink());
  }  // ~Service waits for the in-flight evaluation
  EXPECT_EQ(out.count(), 1u);
}

}  // namespace
}  // namespace rat::svc
