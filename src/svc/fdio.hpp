// File-descriptor plumbing shared by the svc transports (the client
// Frontend in svc/frontend.cpp, the Server's completion pipe, the
// Router's worker pipes) and the rat_loadgen runner.
//
// Every fd an event loop owns must be non-blocking (the loops never
// block on I/O, only on poll(2)) and close-on-exec (the router fork+execs
// worker processes, and a leaked listen socket or pipe end in a child
// would keep dead connections alive and break EOF-based death
// detection).
//
// ignore_sigpipe() is here because it is transport-owned policy, not
// app-owned: any process that writes to pipes or sockets whose reader
// can vanish (a --stdio server whose consumer exited, a router whose
// worker died) must see EPIPE from write(2) — a recoverable error the
// flush path turns into a normal connection close — instead of dying
// from the default SIGPIPE disposition mid-drain.
#pragma once

#include <fcntl.h>
#include <signal.h>
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

/// Process-wide SIG_IGN for SIGPIPE (see file comment). Idempotent;
/// every Frontend installs it, so a Server and a Router are covered no
/// matter which one spun up first.
inline void ignore_sigpipe() {
  struct sigaction sa {};
  sa.sa_handler = SIG_IGN;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGPIPE, &sa, nullptr);
}

}  // namespace rat::svc
