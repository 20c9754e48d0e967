// Shared file-descriptor plumbing for the svc transports (server.cpp's
// readiness-driven event loop and router.cpp's worker-supervising one).
//
// Every fd the loops own must be non-blocking (the loops never block on
// I/O, only on poll(2)) and close-on-exec (the router fork+execs worker
// processes, and a leaked listen socket or pipe end in a child would
// keep dead connections alive and break EOF-based death detection).
//
// ignore_sigpipe() is here because it is transport-owned policy, not
// app-owned: any process that writes to pipes or sockets whose reader
// can vanish (a --stdio server whose consumer exited, a router whose
// worker died) must see EPIPE from write(2) — a recoverable error the
// flush path turns into a normal connection close — instead of dying
// from the default SIGPIPE disposition mid-drain.
#pragma once

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

namespace rat::svc {

inline void set_nonblock(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

inline void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

/// pipe2(O_CLOEXEC) where available, pipe + fcntl otherwise: internal
/// fds must never leak into an exec'd child. Returns false on failure
/// (errno set by pipe/pipe2).
inline bool make_pipe_cloexec(int fds[2]) {
#if defined(__linux__) && defined(O_CLOEXEC)
  if (::pipe2(fds, O_CLOEXEC) == 0) return true;
#endif
  if (::pipe(fds) != 0) return false;
  set_cloexec(fds[0]);
  set_cloexec(fds[1]);
  return true;
}

/// accept4(SOCK_NONBLOCK | SOCK_CLOEXEC) with a portable fallback. The
/// event loops require non-blocking fds from birth, and accepted sockets
/// must not leak into exec'd children.
inline int accept_nonblock_cloexec(int listen_fd) {
#if defined(SOCK_NONBLOCK) && defined(SOCK_CLOEXEC)
  return ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
#else
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd >= 0) {
    set_nonblock(fd);
    set_cloexec(fd);
  }
  return fd;
#endif
}

/// Options for a freshly accepted client socket. TCP_NODELAY always:
/// every response is one small write that the client is waiting for, and
/// with Nagle on, a write issued while an earlier segment is still
/// unacknowledged sits in the kernel until the client's delayed ACK
/// fires. SO_SNDBUF only when @p so_sndbuf > 0 (0 = OS default).
inline void configure_accepted_socket(int fd, int so_sndbuf) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (so_sndbuf > 0)
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &so_sndbuf, sizeof so_sndbuf);
}

/// Process-wide SIG_IGN for SIGPIPE (see file comment). Idempotent;
/// called by Server::start() and Router::start() so every transport is
/// covered no matter which entry point spun it up.
inline void ignore_sigpipe() {
  struct sigaction sa {};
  sa.sa_handler = SIG_IGN;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGPIPE, &sa, nullptr);
}

}  // namespace rat::svc
