// Test helpers shared by the svc transport suites: a blocking
// line-oriented loopback client, raw sockets for clients that misbehave
// on purpose, and a polling wait.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>

#include "io/json.hpp"

namespace rat::svc::testing {

/// Raw connected socket; rcvbuf (set before connect so it sizes the
/// receive window) shrinks how much the kernel buffers for a client
/// that never reads, making slow-client tests deterministic.
inline int connect_raw(int port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0)
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  return fd;
}

/// Best-effort pipelined send; stops quietly when the peer hangs up
/// mid-stream (expected once it drops us as a slow client).
inline void send_best_effort(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

/// Blocking line-oriented loopback client.
class Client {
 public:
  explicit Client(int port) : fd_(connect_raw(port)) {}

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send raw bytes exactly as given (no newline appended).
  void send_raw(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  void send_line(const std::string& line) { send_raw(line + '\n'); }

  /// Half-close: the peer sees EOF, answers what it owes, then closes.
  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  /// Next '\n'-terminated line, or nullopt on EOF.
  std::optional<std::string> read_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      if (!fill()) return std::nullopt;
    }
  }

  /// Every byte until the peer closes.
  std::string read_to_eof() {
    while (fill()) {
    }
    std::string all;
    all.swap(buffer_);
    return all;
  }

 private:
  bool fill() {
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

inline std::string evaluate_line(const std::string& id,
                                 const std::string& sheet,
                                 const std::string& extra = "") {
  return "{\"id\":" + io::json_str(id) +
         ",\"op\":\"evaluate\",\"worksheet\":" + io::json_str(sheet) + extra +
         "}";
}

inline bool wait_until(const std::function<bool()>& cond,
                       int timeout_ms = 10000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

}  // namespace rat::svc::testing
