// Test helper: inspect the sockets an in-process server or router has
// accepted, by walking this process's own descriptor table.
#pragma once

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <vector>

namespace rat::svc::testing {

/// Every connected (non-listening) TCP socket in this process whose
/// local port is @p port: the server side of each accepted connection.
inline std::vector<int> accepted_sockets(int port) {
  std::vector<int> fds;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    const int fd = std::atoi(entry.path().filename().c_str());
    int type = 0, listening = 0;
    socklen_t len = sizeof type;
    if (::getsockopt(fd, SOL_SOCKET, SO_TYPE, &type, &len) != 0 ||
        type != SOCK_STREAM)
      continue;
    len = sizeof listening;
    if (::getsockopt(fd, SOL_SOCKET, SO_ACCEPTCONN, &listening, &len) != 0 ||
        listening)
      continue;
    sockaddr_in addr{};
    len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0 &&
        addr.sin_family == AF_INET &&
        ntohs(addr.sin_port) == static_cast<std::uint16_t>(port))
      fds.push_back(fd);
  }
  return fds;
}

/// TCP_NODELAY on @p fd (1 = Nagle off), or -1 if it cannot be read.
inline int tcp_nodelay(int fd) {
  int on = 0;
  socklen_t len = sizeof on;
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len) != 0) return -1;
  return on;
}

}  // namespace rat::svc::testing
