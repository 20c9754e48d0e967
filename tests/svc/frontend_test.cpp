// The client transport policies both front-ends share, run against each:
// a direct Server over an in-process Service, and a Router over one real
// rat_serve worker (RAT_SERVE_BIN). Pipelining, concurrent clients,
// oversize-line rejection, the bounded write queue dropping a stalled
// client, the drain's flush budget, idle connections at a constant
// thread count, EMFILE accept backoff, the listen backlog and
// TCP_NODELAY on accepted sockets.
//
// Each policy is one function of the front-end kind, registered as
// SvcServer.<Test> and SvcRouter.<Test>: the suite names start with "Svc"
// so the sanitizer passes' '^(...|Svc|...)' ctest selections pick every
// case up.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/parameters.hpp"
#include "io/json.hpp"
#include "loopback_client.hpp"
#include "socket_probe.hpp"
#include "svc/router.hpp"
#include "svc/server.hpp"

namespace rat::svc {
namespace {

using testing::Client;
using testing::connect_raw;
using testing::evaluate_line;
using testing::send_best_effort;
using testing::wait_until;

enum class Kind { kServer, kRouter };

/// One running front-end with the given client-transport settings.
class FrontEnd {
 public:
  FrontEnd(Kind kind, const TransportConfig& transport) {
    if (kind == Kind::kServer) {
      ServerConfig cfg;
      static_cast<TransportConfig&>(cfg) = transport;
      service_.emplace();
      server_.emplace(*service_, cfg);
      server_->start();
    } else {
      RouterConfig cfg;
      static_cast<TransportConfig&>(cfg) = transport;
      cfg.n_workers = 1;
      cfg.worker_argv = {RAT_SERVE_BIN, "--stdio", "--no-tcp"};
      router_.emplace(cfg);
      router_->start();
    }
  }

  int port() const { return server_ ? server_->port() : router_->port(); }

  TransportStats stats() const {
    return server_ ? server_->stats() : router_->stats();
  }

  /// trigger_stop() + run(): drain and join.
  void stop() {
    if (server_) {
      server_->trigger_stop();
      server_->run();
    } else {
      router_->trigger_stop();
      router_->run();
    }
  }

 private:
  std::optional<Service> service_;  // outlives server_
  std::optional<Server> server_;
  std::optional<Router> router_;
};

std::unique_ptr<FrontEnd> start(Kind kind,
                                const TransportConfig& transport = {}) {
  return std::make_unique<FrontEnd>(kind, transport);
}

int thread_count() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("Threads:", 0) == 0)
      return std::atoi(line.c_str() + 8);
  return -1;
}

int open_fd_count() {
  int n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd"))
    (void)entry, ++n;
  return n;
}

void pipelined_requests_each_get_one_response(Kind kind) {
  const auto fe = start(kind);
  Client client(fe->port());
  const std::string sheet = core::pdf2d_inputs().serialize();
  constexpr int kRequests = 20;
  for (int i = 0; i < kRequests; ++i)
    client.send_line(evaluate_line("r" + std::to_string(i), sheet));
  std::vector<std::string> ids;
  for (int i = 0; i < kRequests; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    const io::JsonValue doc = io::parse_json(*line);
    EXPECT_EQ(doc.find("status")->string, "ok");
    ids.push_back(doc.find("id")->string);
  }
  // Out-of-order delivery is legal; every id must appear exactly once.
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kRequests));
  fe->stop();
}

TEST(SvcServer, PipelinedRequestsEachGetOneResponse) {
  pipelined_requests_each_get_one_response(Kind::kServer);
}
TEST(SvcRouter, PipelinedRequestsEachGetOneResponse) {
  pipelined_requests_each_get_one_response(Kind::kRouter);
}

void multiple_concurrent_clients(Kind kind) {
  const auto fe = start(kind);
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      Client client(fe->port());
      client.send_line(evaluate_line(
          "c" + std::to_string(c), core::md_inputs().serialize()));
      const auto line = client.read_line();
      if (line && line->find("\"status\":\"ok\"") != std::string::npos)
        ok.fetch_add(1);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);
  fe->stop();
}

TEST(SvcServer, MultipleConcurrentClients) {
  multiple_concurrent_clients(Kind::kServer);
}
TEST(SvcRouter, MultipleConcurrentClients) {
  multiple_concurrent_clients(Kind::kRouter);
}

void oversize_line_is_rejected_with_structured_error(Kind kind) {
  const auto fe = start(kind, {.max_line_bytes = 128});
  Client client(fe->port());
  client.send_line(evaluate_line("big", std::string(1024, 'x')));
  const auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("E_BAD_REQUEST"), std::string::npos);
  EXPECT_NE(line->find("exceeds"), std::string::npos);
  EXPECT_FALSE(client.read_line().has_value());  // connection closed
  fe->stop();
}

TEST(SvcServer, OversizeLineIsRejectedWithStructuredError) {
  oversize_line_is_rejected_with_structured_error(Kind::kServer);
}
TEST(SvcRouter, OversizeLineIsRejectedWithStructuredError) {
  oversize_line_is_rejected_with_structured_error(Kind::kRouter);
}

void stalled_client_is_dropped_without_blocking_others(Kind kind) {
  // A client that pipelines requests but never reads its socket must not
  // wedge the loop, other clients or the drain: the bounded write queue
  // drops it instead, and other connections never notice.
  const auto fe =
      start(kind, {.max_write_buffer_bytes = 8192, .so_sndbuf = 4096});

  // Stalled client: tiny receive window, 400 pipelined requests, reads
  // nothing. Responses fill the kernel buffers, then the front-end's
  // write queue, then the bound trips.
  const int stalled = connect_raw(fe->port(), /*rcvbuf=*/4096);
  const std::string sheet = core::pdf1d_inputs().serialize();
  std::string burst;
  for (int i = 0; i < 400; ++i) {
    burst += evaluate_line("stall" + std::to_string(i), sheet);
    burst += '\n';
  }
  send_best_effort(stalled, burst);

  // Meanwhile a well-behaved client's round-trips complete normally.
  {
    Client fast(fe->port());
    for (int i = 0; i < 10; ++i) {
      fast.send_line(evaluate_line("fast" + std::to_string(i), sheet));
      const auto line = fast.read_line();
      ASSERT_TRUE(line.has_value()) << "blocked behind the stalled client";
      EXPECT_NE(line->find("\"id\":\"fast" + std::to_string(i) + "\""),
                std::string::npos);
    }
  }

  EXPECT_TRUE(wait_until([&] { return fe->stats().slow_clients_dropped >= 1; }))
      << "bounded write queue never tripped";
  ::close(stalled);

  // And shutdown still terminates promptly — nothing is wedged.
  fe->stop();
  EXPECT_GE(fe->stats().slow_clients_dropped, 1u);
}

TEST(SvcServer, StalledClientIsDroppedWithoutBlockingOthers) {
  stalled_client_is_dropped_without_blocking_others(Kind::kServer);
}
TEST(SvcRouter, StalledClientIsDroppedWithoutBlockingOthers) {
  stalled_client_is_dropped_without_blocking_others(Kind::kRouter);
}

void drain_drops_clients_that_never_read_after_flush_timeout(Kind kind) {
  // A stalled client whose queue stays under the byte bound must not be
  // able to hold the drain hostage either: after drain_flush_timeout_ms
  // of refusing to read, it is dropped and shutdown completes.
  const auto fe =
      start(kind, {.so_sndbuf = 4096, .drain_flush_timeout_ms = 200});

  const int stalled = connect_raw(fe->port(), /*rcvbuf=*/4096);
  const std::string sheet = core::pdf1d_inputs().serialize();
  std::string burst;
  for (int i = 0; i < 50; ++i) {
    burst += evaluate_line("q" + std::to_string(i), sheet);
    burst += '\n';
  }
  send_best_effort(stalled, burst);
  // Let responses start piling into the kernel buffers and write queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto t0 = std::chrono::steady_clock::now();
  fe->stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5)) << "drain hung on the stall";
  EXPECT_GE(fe->stats().slow_clients_dropped, 1u);
  ::close(stalled);
}

TEST(SvcServer, DrainDropsClientsThatNeverReadAfterFlushTimeout) {
  drain_drops_clients_that_never_read_after_flush_timeout(Kind::kServer);
}
TEST(SvcRouter, DrainDropsClientsThatNeverReadAfterFlushTimeout) {
  drain_drops_clients_that_never_read_after_flush_timeout(Kind::kRouter);
}

void hundreds_of_idle_connections_hold_with_constant_threads(Kind kind) {
  // The event loop's whole point: connection count must not move the
  // thread count.
  const auto fe = start(kind);

  // Warm everything lazy (shared pool, loop) before counting threads.
  const std::string sheet = core::pdf1d_inputs().serialize();
  {
    Client warm(fe->port());
    warm.send_line(evaluate_line("warm", sheet));
    ASSERT_TRUE(warm.read_line().has_value());
  }
  const int before = thread_count();
  ASSERT_GT(before, 0);

  constexpr int kIdle = 300;
  std::vector<int> idle;
  idle.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) idle.push_back(connect_raw(fe->port()));
  // connections counts accepts: warm client + all idles.
  ASSERT_TRUE(wait_until([&] { return fe->stats().connections >= kIdle + 1; }));

  EXPECT_EQ(thread_count(), before)
      << "front-end thread count scaled with connections";

  // The loop still serves real traffic through the idle crowd.
  Client probe(fe->port());
  probe.send_line(evaluate_line("probe", sheet));
  const auto line = probe.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"status\":\"ok\""), std::string::npos);

  for (const int fd : idle) ::close(fd);
  fe->stop();
}

TEST(SvcServer, HundredsOfIdleConnectionsHoldWithConstantThreads) {
  hundreds_of_idle_connections_hold_with_constant_threads(Kind::kServer);
}
TEST(SvcRouter, HundredsOfIdleConnectionsHoldWithConstantThreads) {
  hundreds_of_idle_connections_hold_with_constant_threads(Kind::kRouter);
}

void emfile_accept_backs_off_and_recovers(Kind kind) {
  // accept(2) failing with EMFILE leaves the listen fd readable (the
  // connection stays queued); re-polling it at once would spin the loop
  // at 100% CPU for as long as fds stay exhausted. The failure counts
  // <prefix>.accept_failed and the listen fd sits out accept_backoff_ms
  // before retrying. The router's workers were spawned by start(), so
  // the clamp below never touches worker supervision.
  const auto fe = start(kind, {.accept_backoff_ms = 20});
  {
    Client warm(fe->port());
    warm.send_line("{\"id\":\"w\",\"op\":\"ping\"}");
    ASSERT_TRUE(warm.read_line().has_value());
  }

  // Ballast fds reserved before the count: if runtime fd drift (the
  // sanitizer opening or closing a descriptor between the count and the
  // clamp) eats the client's slot, closing one frees a slot for the
  // client socket while the front-end's accept stays exhausted.
  std::vector<int> ballast;
  for (int i = 0; i < 3; ++i) {
    const int b = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(b, 0);
    ballast.push_back(b);
  }

  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old_limit), 0);
  rlimit tight = old_limit;
  // Room for exactly one more fd: the client's socket. The accept then
  // has nothing left and fails with EMFILE.
  tight.rlim_cur = static_cast<rlim_t>(open_fd_count() + 1);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);

  // Provoke: connect until accept reports exhaustion. Drift the other
  // way can hand the first accept a free slot, so every retry burns one
  // more (connect(2) on loopback succeeds once the connection is queued
  // in the backlog — it never waits for the accept).
  std::vector<int> clients;
  auto try_connect = [&] {
    const int s = ::socket(AF_INET, SOCK_STREAM, 0);
    if (s < 0) return false;  // our own table is full — close ballast
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(fe->port()));
    if (::connect(s, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(s);
      return false;
    }
    clients.push_back(s);
    return true;
  };
  for (int attempt = 0; attempt < 4; ++attempt) {
    if (!try_connect() && !ballast.empty()) {
      ::close(ballast.back());
      ballast.pop_back();
      try_connect();
    }
    if (wait_until([&] { return fe->stats().accept_failures >= 1; },
                   attempt == 3 ? 10000 : 500)) {
      break;
    }
  }
  ASSERT_FALSE(clients.empty());
  EXPECT_GE(fe->stats().accept_failures, 1u)
      << "accept never reported fd exhaustion";

  // Free the fds again: the queued connection must be accepted on a
  // backoff retry — recovery, not a wedged listener. The newest client
  // is the one that was still pending when accept ran dry.
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old_limit), 0);
  const int fd = clients.back();
  send_best_effort(fd, "{\"id\":\"after\",\"op\":\"ping\"}\n");
  std::string line;
  char c;
  while (::read(fd, &c, 1) == 1 && c != '\n') line += c;
  EXPECT_NE(line.find("\"id\":\"after\""), std::string::npos);
  EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
  for (const int s : clients) ::close(s);
  for (const int b : ballast) ::close(b);

  fe->stop();
  EXPECT_GE(fe->stats().accept_failures, 1u);
}

TEST(SvcServer, EmfileAcceptBacksOffAndRecovers) {
  emfile_accept_backs_off_and_recovers(Kind::kServer);
}
TEST(SvcRouter, EmfileAcceptBacksOffAndRecovers) {
  emfile_accept_backs_off_and_recovers(Kind::kRouter);
}

void configurable_backlog_still_accepts_connections(Kind kind) {
  const auto fe = start(kind, {.backlog = 1});
  for (int i = 0; i < 8; ++i) {
    Client client(fe->port());
    client.send_line("{\"id\":\"p\",\"op\":\"ping\"}");
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_NE(line->find("\"status\":\"ok\""), std::string::npos);
  }
  fe->stop();
}

TEST(SvcServer, ConfigurableBacklogStillAcceptsConnections) {
  configurable_backlog_still_accepts_connections(Kind::kServer);
}
TEST(SvcRouter, ConfigurableBacklogStillAcceptsConnections) {
  configurable_backlog_still_accepts_connections(Kind::kRouter);
}

void accepted_sockets_turn_nagle_off(Kind kind) {
  // Every response is one small write the client waits for. With Nagle
  // on, a response written while the previous one is still unacked sits
  // in the kernel until the client's delayed ACK fires.
  const auto fe = start(kind);
  Client client(fe->port());
  client.send_line("{\"id\":\"n\",\"op\":\"ping\"}");
  ASSERT_TRUE(client.read_line().has_value());  // accepted by now
  const std::vector<int> fds = testing::accepted_sockets(fe->port());
  ASSERT_EQ(fds.size(), 1u);
  EXPECT_EQ(testing::tcp_nodelay(fds[0]), 1);
  fe->stop();
}

TEST(SvcServer, AcceptedSocketsTurnNagleOff) {
  accepted_sockets_turn_nagle_off(Kind::kServer);
}
TEST(SvcRouter, AcceptedClientSocketsTurnNagleOff) {
  accepted_sockets_turn_nagle_off(Kind::kRouter);
}

}  // namespace
}  // namespace rat::svc
