#include "svc/frontend.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <system_error>
#include <utility>

#include "obs/metrics.hpp"
#include "svc/fdio.hpp"
#include "svc/protocol.hpp"

namespace rat::svc {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// accept4(SOCK_NONBLOCK | SOCK_CLOEXEC) with a portable fallback. The
/// event loops require non-blocking fds from birth, and accepted sockets
/// must not leak into exec'd children.
int accept_nonblock_cloexec(int listen_fd) {
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
void configure_accepted_socket(int fd, int so_sndbuf) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (so_sndbuf > 0)
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &so_sndbuf, sizeof so_sndbuf);
}

std::uint64_t ms_to_ns(int ms) {
  return static_cast<std::uint64_t>(ms > 0 ? ms : 0) * 1'000'000ull;
}

/// The end of the line buf[start, end) minus one trailing '\r': CRLF
/// clients frame exactly like LF ones.
std::size_t strip_cr(const std::string& buf, std::size_t start,
                     std::size_t end) {
  return end > start && buf[end - 1] == '\r' ? end - 1 : end;
}

}  // namespace

// ---- WriteQueue / LineReader ----

int WriteQueue::flush(int fd, bool is_socket) {
  while (pending() > 0) {
    const ssize_t n =
        is_socket ? ::send(fd, buf_.data() + off_, pending(), MSG_NOSIGNAL)
                  : ::write(fd, buf_.data() + off_, pending());
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return errno;
    }
    off_ += static_cast<std::size_t>(n);
  }
  if (pending() == 0) {
    clear();
  } else if (off_ >= 65536) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  return 0;
}

LineReader::Status LineReader::read(
    int fd, std::size_t max_line_bytes,
    const std::function<void(std::string)>& on_line) {
  char chunk[65536];
  const ssize_t n = ::read(fd, chunk, sizeof chunk);
  if (n < 0)
    return errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK
               ? Status::kOk
               : Status::kError;
  if (n == 0) return Status::kEof;
  buf_.append(chunk, static_cast<std::size_t>(n));
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = buf_.find('\n', start);
    if (nl == std::string::npos) break;
    if (nl - start > max_line_bytes) {
      buf_.clear();
      return Status::kOversize;
    }
    const std::size_t end = strip_cr(buf_, start, nl);
    // Blank keepalive lines are legal and answered with nothing.
    if (end > start) on_line(buf_.substr(start, end - start));
    start = nl + 1;
  }
  buf_.erase(0, start);
  // A partial line that can no longer fit is as much a violation as a
  // complete one over the limit.
  if (buf_.size() > max_line_bytes) {
    buf_.clear();
    return Status::kOversize;
  }
  return Status::kOk;
}

std::string LineReader::take_tail() {
  std::string tail;
  tail.swap(buf_);
  tail.resize(strip_cr(tail, 0, tail.size()));
  return tail;
}

// ---- Frontend ----

Frontend::Frontend(const TransportConfig& config, std::string metric_prefix,
                   LineHandler on_line)
    : config_(config),
      on_line_(std::move(on_line)),
      name_connections_(metric_prefix + ".connections"),
      name_slow_dropped_(metric_prefix + ".slow_client_dropped"),
      name_responses_dropped_(metric_prefix + ".responses_dropped"),
      name_write_failed_(metric_prefix + ".write_failed"),
      name_accept_failed_(metric_prefix + ".accept_failed") {
  // A --stdio server whose stdout reader exited, or a router whose
  // worker died, must see EPIPE (a normal close in flush()), not die of
  // SIGPIPE mid-response. MSG_NOSIGNAL covers sockets; this covers plain
  // write(2) on pipes.
  ignore_sigpipe();
  int fds[2];
  if (!make_pipe_cloexec(fds)) throw_errno("svc: wake pipe");
  wake_r_ = fds[0];
  wake_w_ = fds[1];
  // Non-blocking write end: a signal handler must never block on a full
  // pipe; one byte is enough to latch the stop request.
  set_nonblock(wake_w_);
}

Frontend::~Frontend() {
  close_all();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::close(wake_r_);
  ::close(wake_w_);
}

void Frontend::trigger_stop() {
  const char byte = 's';
  [[maybe_unused]] ssize_t n = ::write(wake_w_, &byte, 1);
}

void Frontend::listen() {
#if defined(SOCK_NONBLOCK) && defined(SOCK_CLOEXEC)
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
#else
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ >= 0) {
    set_nonblock(listen_fd_);
    set_cloexec(listen_fd_);
  }
#endif
  if (listen_fd_ < 0) throw_errno("svc: socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0)
    throw_errno("svc: bind 127.0.0.1");
  if (::listen(listen_fd_, config_.backlog > 0 ? config_.backlog : 1) != 0)
    throw_errno("svc: listen");
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0)
    throw_errno("svc: getsockname");
  port_ = ntohs(addr.sin_port);
}

void Frontend::add_stdio(int in_fd, int out_fd) {
  auto conn = std::make_shared<Conn>();
  conn->read_fd = in_fd;
  conn->write_fd = out_fd;
  set_nonblock(in_fd);
  set_nonblock(out_fd);
  conns_.push_back(std::move(conn));
}

TransportStats Frontend::stats() const {
  TransportStats st;
  st.connections = connections_.load(std::memory_order_relaxed);
  st.slow_clients_dropped =
      slow_clients_dropped_.load(std::memory_order_relaxed);
  st.responses_dropped = responses_dropped_.load(std::memory_order_relaxed);
  st.write_failures = write_failures_.load(std::memory_order_relaxed);
  st.accept_failures = accept_failures_.load(std::memory_order_relaxed);
  return st;
}

void Frontend::count(std::atomic<std::uint64_t>& counter,
                     const std::string& name) {
  counter.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) obs::Registry::global().add_counter(name);
}

int Frontend::add_poll_fds(std::vector<pollfd>& pfds) {
  // The wake pipe is latching (never read), so it is polled only until
  // the drain starts — afterwards it would spin the loop.
  wake_idx_ = -1;
  if (!draining_) {
    wake_idx_ = static_cast<int>(pfds.size());
    pfds.push_back({wake_r_, POLLIN, 0});
  }
  // After an EMFILE/ENFILE accept failure the listen fd stays readable
  // (the pending connection is still queued), so polling it would spin
  // the loop hot. Leave it out of the poll set until the backoff
  // expires; the queued connection is accepted on the retry.
  int timeout_ms = -1;
  if (accept_backoff_until_ns_ != 0) {
    const std::uint64_t now = obs::now_ns();
    if (now >= accept_backoff_until_ns_) {
      accept_backoff_until_ns_ = 0;
    } else {
      timeout_ms = std::max(
          1, static_cast<int>((accept_backoff_until_ns_ - now + 999'999) /
                              1'000'000));
    }
  }
  listen_idx_ = -1;
  if (!draining_ && listen_fd_ >= 0 && accept_backoff_until_ns_ == 0) {
    listen_idx_ = static_cast<int>(pfds.size());
    pfds.push_back({listen_fd_, POLLIN, 0});
  }
  conn_idx_ = pfds.size();
  slots_.clear();
  for (const auto& c : conns_) {
    if (c->dead) continue;
    const bool want_read = !c->read_shut;
    const bool want_write = c->out.pending() > 0;
    if (c->read_fd == c->write_fd) {
      if (want_read || want_write) {
        pfds.push_back({c->read_fd,
                        static_cast<short>((want_read ? POLLIN : 0) |
                                           (want_write ? POLLOUT : 0)),
                        0});
        slots_.push_back(c);
      }
    } else {  // stdio: distinct read/write fds, one slot each
      if (want_read) {
        pfds.push_back({c->read_fd, POLLIN, 0});
        slots_.push_back(c);
      }
      if (want_write) {
        pfds.push_back({c->write_fd, POLLOUT, 0});
        slots_.push_back(c);
      }
    }
  }
  return draining_ ? 20 : timeout_ms;
}

bool Frontend::dispatch(const std::vector<pollfd>& pfds) {
  bool stopped = false;
  if (wake_idx_ >= 0 && (pfds[wake_idx_].revents & POLLIN) != 0) {
    enter_drain();
    stopped = true;
  }
  if (listen_idx_ >= 0 && !draining_ &&
      (pfds[listen_idx_].revents & POLLIN) != 0)
    accept_all();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const auto& c = slots_[i];
    const short events = pfds[conn_idx_ + i].events;
    const short rev = pfds[conn_idx_ + i].revents;
    if (rev == 0 || c->dead) continue;
    if ((events & POLLIN) != 0 &&
        (rev & (POLLIN | POLLHUP | POLLERR)) != 0 && !c->read_shut)
      handle_readable(c);
    if (c->dead) continue;
    if ((events & POLLOUT) != 0 && (rev & (POLLOUT | POLLHUP | POLLERR)) != 0)
      flush(c);
    if (!c->dead && (rev & POLLNVAL) != 0) close_conn(*c);
  }
  return stopped;
}

void Frontend::enter_drain() {
  if (draining_) return;
  draining_ = true;
  // 1. Stop accepting.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // 2. Stop reading; connections stay open so responses still flow.
  for (const auto& c : conns_) c->read_shut = true;
  flush_deadline_ns_ = obs::now_ns() + ms_to_ns(config_.drain_flush_timeout_ms);
}

void Frontend::accept_all() {
  for (;;) {
    const int fd = accept_nonblock_cloexec(listen_fd_);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Fd (or buffer) exhaustion: the connection stays queued and the
        // listen fd stays readable, so back off instead of spinning.
        count(accept_failures_, name_accept_failed_);
        accept_backoff_until_ns_ =
            obs::now_ns() + ms_to_ns(std::max(1, config_.accept_backoff_ms));
      }
      return;  // EAGAIN: everything pending was accepted
    }
    configure_accepted_socket(fd, config_.so_sndbuf);
    count(connections_, name_connections_);
    auto conn = std::make_shared<Conn>();
    conn->read_fd = fd;
    conn->write_fd = fd;
    conn->is_socket = true;
    conns_.push_back(std::move(conn));
  }
}

void Frontend::handle_readable(const ConnPtr& conn) {
  const LineReader::Status st = conn->in.read(
      conn->read_fd, config_.max_line_bytes,
      [this, &conn](std::string line) { on_line_(conn, std::move(line)); });
  switch (st) {
    case LineReader::Status::kOk:
      return;
    case LineReader::Status::kError:
      close_conn(*conn);  // client went away; its responses drop
      return;
    case LineReader::Status::kEof:
      // A final unterminated line still counts as a request.
      if (std::string tail = conn->in.take_tail(); !tail.empty())
        on_line_(conn, std::move(tail));
      break;
    case LineReader::Status::kOversize:
      // The connection drops after its structured error and any owed
      // responses are flushed.
      respond(conn, error_response("", SvcErrorCode::kBadRequest,
                                   "request line exceeds " +
                                       std::to_string(config_.max_line_bytes) +
                                       " bytes"));
      break;
  }
  conn->read_shut = true;
  if (conn->is_socket) {
    // Half-close: flush every response the client is still owed, then
    // close once nothing is pending.
    conn->close_when_idle = true;
  } else {
    // stdin EOF or a stdio protocol violation: no more requests can
    // arrive, and a piped `rat_serve --stdio` must terminate rather than
    // hang. The connection stays open so in-flight responses still reach
    // stdout.
    trigger_stop();
  }
}

void Frontend::respond(const ConnPtr& conn, std::string_view line) {
  if (conn->dead) {
    count(responses_dropped_, name_responses_dropped_);
    return;
  }
  conn->out.push_line(line);
  flush(conn);
  if (!conn->dead && conn->out.pending() > config_.max_write_buffer_bytes)
    drop_slow_client(conn);
}

void Frontend::flush(const ConnPtr& conn) {
  const int err = conn->out.flush(conn->write_fd, conn->is_socket);
  if (err == 0) return;
  // EPIPE/ECONNRESET mean the reader is gone — a normal close (its
  // remaining responses drop), not a transport failure. With SIGPIPE
  // ignored (see the constructor) a vanished stdio reader arrives here as
  // EPIPE instead of killing the process.
  if (err != EPIPE && err != ECONNRESET)
    count(write_failures_, name_write_failed_);
  close_conn(*conn);
  // stdout unusable: no response can ever be delivered again, so a
  // --stdio server drains and exits instead of reading forever.
  if (!conn->is_socket) trigger_stop();
}

void Frontend::drop_slow_client(const ConnPtr& conn) {
  count(slow_clients_dropped_, name_slow_dropped_);
  close_conn(*conn);
}

void Frontend::close_conn(Conn& conn) {
  if (conn.dead) return;
  conn.dead = true;
  conn.out.clear();
  if (conn.is_socket) ::close(conn.read_fd);  // read_fd == write_fd
}

void Frontend::close_idle() {
  for (const auto& c : conns_)
    if (!c->dead && c->close_when_idle && c->outstanding == 0 &&
        c->out.pending() == 0)
      close_conn(*c);
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const auto& c) { return c->dead; }),
               conns_.end());
}

bool Frontend::flush_expired() const {
  return draining_ && obs::now_ns() > flush_deadline_ns_;
}

bool Frontend::drain_flushed() {
  // Flush budget exhausted: whoever still has unread responses is a slow
  // client; drop them so shutdown always terminates.
  const bool expired = flush_expired();
  bool flushed = true;
  for (const auto& c : conns_) {
    if (c->dead || c->out.pending() == 0) continue;
    if (expired)
      drop_slow_client(c);
    else
      flushed = false;
  }
  return flushed;
}

void Frontend::close_all() {
  for (const auto& c : conns_) close_conn(*c);
  conns_.clear();
}

}  // namespace rat::svc
