#include "svc/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <system_error>
#include <utility>

#include "obs/metrics.hpp"
#include "svc/fdio.hpp"

namespace rat::svc {

namespace {

void obs_count(const char* name) {
  if (obs::enabled()) obs::Registry::global().add_counter(name);
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void make_pipe(int fds[2]) {
  if (!make_pipe_cloexec(fds)) throw_errno("svc::Server: pipe");
}

}  // namespace

/// One client connection. Every field is owned by the event loop thread;
/// worker threads only ever hold the shared_ptr (to route a finished
/// response back through the completion queue) and never touch state.
struct Server::Connection {
  int read_fd = -1;
  int write_fd = -1;            ///< == read_fd for sockets; 1 for stdio
  bool is_socket = false;
  bool read_shut = false;       ///< stop reading: EOF, oversize, or drain
  bool close_when_idle = false; ///< close once flushed and nothing pending
  bool dead = false;            ///< fd closed; late responses are dropped
  std::size_t outstanding = 0;  ///< submitted requests awaiting a response
  std::string rbuf;             ///< bytes read, not yet a complete line
  std::string wbuf;             ///< outbound bytes; [woff, size) unsent
  std::size_t woff = 0;

  std::size_t pending() const { return wbuf.size() - woff; }
};

Server::Server(Service& service, ServerConfig config)
    : service_(service), config_(config) {
  int fds[2];
  make_pipe(fds);
  wake_r_ = fds[0];
  wake_w_ = fds[1];
  // Non-blocking write end: a signal handler must never block on a full
  // pipe; one byte is enough to latch the stop request.
  set_nonblock(wake_w_);
  make_pipe(fds);
  notify_r_ = fds[0];
  notify_w_ = fds[1];
  set_nonblock(notify_r_);
  set_nonblock(notify_w_);
}

Server::~Server() {
  if (started_ && !ran_) {
    // Backstop for tests/errors that never called run().
    trigger_stop();
    run();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::close(wake_r_);
  ::close(wake_w_);
  ::close(notify_r_);
  ::close(notify_w_);
}

void Server::trigger_stop() {
  const char byte = 's';
  [[maybe_unused]] ssize_t n = ::write(wake_w_, &byte, 1);
}

void Server::start() {
  // Server-owned, not app-owned: a --stdio server whose stdout reader
  // exited must see EPIPE (handled as a normal close + drain below), not
  // die of SIGPIPE mid-response. MSG_NOSIGNAL already covers sockets;
  // this covers plain write(2) on pipes — including a router's worker
  // pipes, whichever transport spun up first.
  ignore_sigpipe();
  if (config_.tcp) {
#if defined(SOCK_NONBLOCK) && defined(SOCK_CLOEXEC)
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
#else
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ >= 0) {
      set_nonblock(listen_fd_);
      set_cloexec(listen_fd_);
    }
#endif
    if (listen_fd_ < 0) throw_errno("svc::Server: socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0)
      throw_errno("svc::Server: bind 127.0.0.1");
    if (::listen(listen_fd_, config_.backlog > 0 ? config_.backlog : 1) != 0)
      throw_errno("svc::Server: listen");
    socklen_t len = sizeof addr;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0)
      throw_errno("svc::Server: getsockname");
    port_ = ntohs(addr.sin_port);
  }
  if (config_.stdio) {
    auto conn = std::make_shared<Connection>();
    conn->read_fd = config_.stdio_in_fd;
    conn->write_fd = config_.stdio_out_fd;
    conn->is_socket = false;
    set_nonblock(conn->read_fd);
    set_nonblock(conn->write_fd);
    conns_.push_back(std::move(conn));
  }
  // A shutdown op drains the whole server, not just the service.
  service_.set_shutdown_handler([this] { trigger_stop(); });
  loop_thread_ = std::thread([this] { event_loop(); });
  started_ = true;
}

void Server::run() {
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop exits only once the service reports no in-flight work, but
  // wait_drained() also covers direct library submissions that bypassed
  // the transport entirely.
  service_.begin_drain();
  service_.wait_drained();
  ran_ = true;
}

Server::Stats Server::stats() const {
  Stats st;
  st.connections = connections_.load(std::memory_order_relaxed);
  st.slow_clients_dropped =
      slow_clients_dropped_.load(std::memory_order_relaxed);
  st.responses_dropped = responses_dropped_.load(std::memory_order_relaxed);
  st.write_failures = write_failures_.load(std::memory_order_relaxed);
  st.accept_failures = accept_failures_.load(std::memory_order_relaxed);
  return st;
}

void Server::event_loop() {
  std::optional<obs::ScopedTimer> shutdown_timer;
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Connection>> slots;  // pfds[fixed+i] -> conn
  for (;;) {
    pfds.clear();
    slots.clear();
    // The wake pipe is latching (never read), so it is polled only until
    // the drain starts — afterwards it would spin the loop.
    int wake_idx = -1;
    if (!draining_) {
      wake_idx = static_cast<int>(pfds.size());
      pfds.push_back({wake_r_, POLLIN, 0});
    }
    const int notify_idx = static_cast<int>(pfds.size());
    pfds.push_back({notify_r_, POLLIN, 0});
    // After an EMFILE/ENFILE accept failure the listen fd stays readable
    // (the pending connection is still queued), so polling it would spin
    // the loop hot. Leave it out of the poll set until the backoff
    // expires; the queued connection is accepted on the retry.
    int backoff_ms = -1;
    if (accept_backoff_until_ns_ != 0) {
      const std::uint64_t now = obs::now_ns();
      if (now >= accept_backoff_until_ns_) {
        accept_backoff_until_ns_ = 0;
      } else {
        backoff_ms = static_cast<int>(
            (accept_backoff_until_ns_ - now + 999'999) / 1'000'000);
        if (backoff_ms < 1) backoff_ms = 1;
      }
    }
    int listen_idx = -1;
    if (!draining_ && listen_fd_ >= 0 && accept_backoff_until_ns_ == 0) {
      listen_idx = static_cast<int>(pfds.size());
      pfds.push_back({listen_fd_, POLLIN, 0});
    }
    const std::size_t fixed = pfds.size();
    for (const auto& c : conns_) {
      if (c->dead) continue;
      const bool want_read = !c->read_shut;
      const bool want_write = c->pending() > 0;
      if (c->read_fd == c->write_fd) {
        if (want_read || want_write) {
          pfds.push_back({c->read_fd,
                          static_cast<short>((want_read ? POLLIN : 0) |
                                             (want_write ? POLLOUT : 0)),
                          0});
          slots.push_back(c);
        }
      } else {  // stdio: distinct read/write fds, one slot each
        if (want_read) {
          pfds.push_back({c->read_fd, POLLIN, 0});
          slots.push_back(c);
        }
        if (want_write) {
          pfds.push_back({c->write_fd, POLLOUT, 0});
          slots.push_back(c);
        }
      }
    }

    // During drain the service's in-flight count can hit zero without
    // any fd becoming ready (workers only ping the notify pipe when a
    // response lands), so poll with a short timeout to re-check. An
    // active accept backoff also bounds the wait so the retry happens.
    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                          draining_ ? 20 : backoff_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }

    if (wake_idx >= 0 && (pfds[wake_idx].revents & POLLIN) != 0) {
      enter_drain();
      shutdown_timer.emplace("svc.server.shutdown");
    }
    if ((pfds[notify_idx].revents & POLLIN) != 0) {
      char buf[4096];
      while (::read(notify_r_, buf, sizeof buf) > 0) {
      }
    }
    process_completions();
    if (listen_idx >= 0 && !draining_ &&
        (pfds[listen_idx].revents & POLLIN) != 0)
      do_accept();

    for (std::size_t i = fixed; i < pfds.size(); ++i) {
      const auto& c = slots[i - fixed];
      const short events = pfds[i].events;
      const short rev = pfds[i].revents;
      if (rev == 0 || c->dead) continue;
      if ((events & POLLIN) != 0 &&
          (rev & (POLLIN | POLLHUP | POLLERR)) != 0 && !c->read_shut)
        handle_readable(c);
      if (c->dead) continue;
      if ((events & POLLOUT) != 0 &&
          (rev & (POLLOUT | POLLHUP | POLLERR)) != 0)
        flush_writes(c);
      if (c->dead) continue;
      if ((rev & POLLNVAL) != 0) close_connection(*c);
    }

    // Connections that said goodbye (EOF, oversize) close once their
    // last pending response is out the door.
    for (const auto& c : conns_)
      if (!c->dead && c->close_when_idle && c->outstanding == 0 &&
          c->pending() == 0)
        close_connection(*c);
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const auto& c) { return c->dead; }),
                 conns_.end());

    if (draining_) {
      if (obs::now_ns() > flush_deadline_ns_) {
        // Flush budget exhausted: whoever still has unread responses is
        // a slow client; drop them so shutdown always terminates.
        for (const auto& c : conns_)
          if (!c->dead && c->pending() > 0) drop_slow_client(c);
      }
      bool flushed = true;
      for (const auto& c : conns_)
        if (!c->dead && c->pending() > 0) flushed = false;
      // Order matters: once in_flight reads zero every respond() — and
      // therefore every enqueue — has completed, so a subsequent empty
      // completion queue really means nothing is pending anywhere.
      const bool in_flight_zero = service_.stats().in_flight == 0;
      bool queue_empty;
      {
        std::lock_guard lock(done_mu_);
        queue_empty = done_.empty();
      }
      if (flushed && in_flight_zero && queue_empty) break;
    }
  }
  // Now, and only now, tear the connections down (stdio fds 0/1 are left
  // to the process).
  for (const auto& c : conns_) close_connection(*c);
  conns_.clear();
}

void Server::enter_drain() {
  draining_ = true;
  // 1. Stop accepting.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // 2. Stop reading; connections stay open so responses still flow.
  for (const auto& c : conns_) c->read_shut = true;
  // 3. No new requests can arrive (reads stopped above, on this same
  //    thread); refuse stragglers submitted directly by library users.
  service_.begin_drain();
  flush_deadline_ns_ =
      obs::now_ns() +
      static_cast<std::uint64_t>(
          config_.drain_flush_timeout_ms > 0 ? config_.drain_flush_timeout_ms
                                             : 0) *
          1'000'000ull;
}

void Server::do_accept() {
  for (;;) {
    const int fd = accept_nonblock_cloexec(listen_fd_);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Fd (or buffer) exhaustion: the connection stays queued and the
        // listen fd stays readable, so back off instead of spinning.
        accept_failures_.fetch_add(1, std::memory_order_relaxed);
        obs_count("svc.server.accept_failed");
        accept_backoff_until_ns_ =
            obs::now_ns() +
            static_cast<std::uint64_t>(
                config_.accept_backoff_ms > 0 ? config_.accept_backoff_ms
                                              : 1) *
                1'000'000ull;
        return;
      }
      return;  // EAGAIN: everything pending was accepted
    }
    configure_accepted_socket(fd, config_.so_sndbuf);
    connections_.fetch_add(1, std::memory_order_relaxed);
    obs_count("svc.server.connections");
    auto conn = std::make_shared<Connection>();
    conn->read_fd = fd;
    conn->write_fd = fd;
    conn->is_socket = true;
    conns_.push_back(std::move(conn));
  }
}

void Server::handle_readable(const std::shared_ptr<Connection>& conn) {
  char chunk[65536];
  const ssize_t n = ::read(conn->read_fd, chunk, sizeof chunk);
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    close_connection(*conn);  // client went away; its responses drop
    return;
  }
  if (n == 0) {
    // EOF. A final unterminated line still counts as a request.
    if (!conn->rbuf.empty()) {
      std::string line;
      line.swap(conn->rbuf);
      submit_line(conn, std::move(line));
    }
    conn->read_shut = true;
    if (conn->is_socket) {
      // Half-close: flush every response the client is still owed, then
      // close once nothing is pending.
      conn->close_when_idle = true;
    } else {
      // stdin EOF: no more requests can ever arrive, and a piped
      // `rat_serve --stdio` must terminate rather than hang. Drain the
      // whole server — the connection stays open so in-flight responses
      // still reach stdout.
      trigger_stop();
    }
    return;
  }
  conn->rbuf.append(chunk, static_cast<std::size_t>(n));
  deliver_lines(conn);
}

void Server::deliver_lines(const std::shared_ptr<Connection>& conn) {
  std::size_t start = 0;
  bool oversize = false;
  for (;;) {
    const std::size_t nl = conn->rbuf.find('\n', start);
    if (nl == std::string::npos) break;
    if (nl - start > config_.max_line_bytes) {
      oversize = true;
      break;
    }
    submit_line(conn, conn->rbuf.substr(start, nl - start));
    start = nl + 1;
  }
  conn->rbuf.erase(0, start);
  // Both a complete line over the limit and a partial line that can no
  // longer fit under it are protocol violations; the connection drops
  // (after its structured error and any owed responses are flushed).
  if (oversize || conn->rbuf.size() > config_.max_line_bytes) {
    append_response(
        conn, error_response("", SvcErrorCode::kBadRequest,
                             "request line exceeds " +
                                 std::to_string(config_.max_line_bytes) +
                                 " bytes"));
    conn->rbuf.clear();
    conn->read_shut = true;
    if (conn->is_socket)
      conn->close_when_idle = true;
    else
      trigger_stop();  // a stdio protocol violation ends the process
  }
}

void Server::submit_line(const std::shared_ptr<Connection>& conn,
                         std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.empty()) return;  // blank keepalive lines are legal
  ++conn->outstanding;
  // The callback holds the connection alive until the response lands,
  // even if the loop's registry let go first.
  service_.submit(line, [this, conn](std::string response) {
    enqueue_response(conn, std::move(response));
  });
}

void Server::enqueue_response(std::shared_ptr<Connection> conn,
                              std::string line) {
  bool was_empty;
  {
    std::lock_guard lock(done_mu_);
    was_empty = done_.empty();
    done_.emplace_back(std::move(conn), std::move(line));
  }
  // One byte per batch is enough: the loop drains the pipe and swaps the
  // whole queue. Coalescing keeps the pipe from ever filling.
  if (was_empty) {
    const char byte = 'r';
    [[maybe_unused]] ssize_t n = ::write(notify_w_, &byte, 1);
  }
}

void Server::process_completions() {
  std::vector<std::pair<std::shared_ptr<Connection>, std::string>> batch;
  {
    std::lock_guard lock(done_mu_);
    batch.swap(done_);
  }
  for (auto& [conn, line] : batch) {
    if (conn->outstanding > 0) --conn->outstanding;
    append_response(conn, line);
  }
}

void Server::append_response(const std::shared_ptr<Connection>& conn,
                             const std::string& line) {
  if (conn->dead) {
    responses_dropped_.fetch_add(1, std::memory_order_relaxed);
    obs_count("svc.server.responses_dropped");
    return;
  }
  conn->wbuf += line;
  conn->wbuf += '\n';
  flush_writes(conn);
  if (!conn->dead && conn->pending() > config_.max_write_buffer_bytes)
    drop_slow_client(conn);
}

void Server::flush_writes(const std::shared_ptr<Connection>& conn) {
  while (conn->pending() > 0) {
    const ssize_t n =
        conn->is_socket
            ? ::send(conn->write_fd, conn->wbuf.data() + conn->woff,
                     conn->pending(), MSG_NOSIGNAL)
            : ::write(conn->write_fd, conn->wbuf.data() + conn->woff,
                      conn->pending());
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // EPIPE/ECONNRESET mean the reader is gone — a normal close (its
      // remaining responses drop), not a transport failure. With SIGPIPE
      // ignored (start()) a vanished stdio reader arrives here as EPIPE
      // instead of killing the process.
      if (errno != EPIPE && errno != ECONNRESET) {
        write_failures_.fetch_add(1, std::memory_order_relaxed);
        obs_count("svc.server.write_failed");
      }
      const bool stdio = !conn->is_socket;
      close_connection(*conn);
      // stdout unusable: no response can ever be delivered again, so a
      // --stdio server drains and exits instead of reading forever.
      if (stdio) trigger_stop();
      return;
    }
    conn->woff += static_cast<std::size_t>(n);
  }
  if (conn->pending() == 0) {
    conn->wbuf.clear();
    conn->woff = 0;
  } else if (conn->woff >= 65536) {
    conn->wbuf.erase(0, conn->woff);
    conn->woff = 0;
  }
}

void Server::drop_slow_client(const std::shared_ptr<Connection>& conn) {
  slow_clients_dropped_.fetch_add(1, std::memory_order_relaxed);
  obs_count("svc.server.slow_client_dropped");
  close_connection(*conn);
}

void Server::close_connection(Connection& conn) {
  if (conn.dead) return;
  conn.dead = true;
  conn.wbuf.clear();
  conn.woff = 0;
  if (conn.is_socket) ::close(conn.read_fd);  // read_fd == write_fd
  // stdio: leave fds 0/1 to the process.
}

}  // namespace rat::svc
