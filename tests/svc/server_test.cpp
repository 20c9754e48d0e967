// rat_serve's Server: end-to-end request/response over loopback, the
// graceful drain delivering every admitted response before the sockets
// close, the shutdown op, and the stdio connection's lifecycle. The
// client-transport policies it shares with the router run against both
// in frontend_test.cpp.
#include "svc/server.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "core/parameters.hpp"
#include "loopback_client.hpp"

namespace rat::svc {
namespace {

using testing::Client;
using testing::evaluate_line;

TEST(SvcServer, EvaluateOverLoopbackMatchesCacheSemantics) {
  Service service;
  Server server(service, {});
  server.start();
  ASSERT_GT(server.port(), 0);

  Client client(server.port());
  const std::string sheet = core::pdf1d_inputs().serialize();
  client.send_line(evaluate_line("a", sheet));
  const auto first = client.read_line();
  ASSERT_TRUE(first.has_value());
  client.send_line(evaluate_line("a", sheet));
  const auto second = client.read_line();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);  // byte-identical across miss and hit
  EXPECT_EQ(service.stats().cache.hits, 1u);

  server.trigger_stop();
  server.run();
  EXPECT_FALSE(client.read_line().has_value());  // server closed the socket
}

TEST(SvcServer, DrainDeliversEveryAdmittedResponse) {
  Service service;
  Server server(service, {});
  server.start();
  Client client(server.port());
  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i)
    client.send_line(evaluate_line("d" + std::to_string(i),
                                   core::pdf1d_inputs().serialize()));
  // Stop immediately: whatever was admitted must still be answered
  // through the open socket before it closes.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.trigger_stop();
  server.run();

  int answered = 0;
  while (client.read_line().has_value()) ++answered;
  const Service::Stats st = service.stats();
  EXPECT_EQ(static_cast<std::uint64_t>(answered),
            st.responses_ok + st.responses_error);
  EXPECT_EQ(st.in_flight, 0u);
  // No silent drops: every request the server read was answered.
  EXPECT_EQ(st.requests, st.responses_ok + st.responses_error);
}

TEST(SvcServer, ShutdownOpDrainsTheWholeServer) {
  Service service;
  Server server(service, {});
  server.start();
  std::thread runner([&] { server.run(); });
  Client client(server.port());
  client.send_line(evaluate_line("w", core::pdf1d_inputs().serialize()));
  ASSERT_TRUE(client.read_line().has_value());
  client.send_line("{\"id\":\"bye\",\"op\":\"shutdown\"}");
  const auto ack = client.read_line();
  ASSERT_TRUE(ack.has_value());
  EXPECT_NE(ack->find("\"draining\":true"), std::string::npos);
  runner.join();  // the shutdown op triggered the server's stop
  EXPECT_FALSE(client.read_line().has_value());
}

TEST(SvcServer, StdioReaderGoneDrainsCleanlyInsteadOfSigpipe) {
  // Regression: a --stdio server whose stdout reader exited used to die
  // of SIGPIPE from the plain write(2) on its stdout — rat_serve never
  // ignored the signal. Now the server's Frontend installs the
  // transport-owned SIG_IGN, write(2) returns EPIPE, and the server treats
  // it as a normal close + drain. The mere fact this test survives the write is
  // the SIGPIPE assertion: the default disposition would kill the whole
  // gtest binary.
  int to_server[2];   // test -> server stdin
  int from_server[2]; // server stdout -> test
  ASSERT_EQ(::pipe(to_server), 0);
  ASSERT_EQ(::pipe(from_server), 0);

  ServerConfig cfg;
  cfg.tcp = false;
  cfg.stdio = true;
  cfg.stdio_in_fd = to_server[0];
  cfg.stdio_out_fd = from_server[1];
  Service service;
  Server server(service, cfg);
  server.start();

  // Pipeline a burst sized so the requests fit in the stdin pipe's
  // buffer in one shot (~55 KiB < 64 KiB, so this write cannot block)
  // while the responses decisively overflow the stdout pipe's capacity
  // (~240 KiB >> 64 KiB): after the reader vanishes below, the server is
  // guaranteed to still have writes left to attempt — and those writes
  // are what must come back as EPIPE, not SIGPIPE.
  const std::string sheet = core::pdf1d_inputs().serialize();
  std::string burst;
  for (int i = 0; i < 150; ++i) {
    burst += evaluate_line("s" + std::to_string(i), sheet);
    burst += '\n';
  }
  for (std::size_t off = 0; off < burst.size();) {
    const ssize_t n =
        ::write(to_server[1], burst.data() + off, burst.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  char c;
  while (::read(from_server[0], &c, 1) == 1 && c != '\n') {
  }
  ::close(from_server[0]);

  // EPIPE on the next flush must read as "reader gone": the server
  // closes the stdio connection and stops on its own — no signal death,
  // no hang, and no write_failures (EPIPE is a normal close).
  server.run();
  EXPECT_EQ(server.stats().write_failures, 0u);

  ::close(to_server[1]);
  ::close(to_server[0]);
  ::close(from_server[1]);
}

}  // namespace
}  // namespace rat::svc
