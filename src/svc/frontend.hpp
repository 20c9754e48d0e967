// The client side of the svc transports: one module that rat_serve's
// Server and rat_router's Router both drive from their event loops.
//
// A Frontend owns everything a client sees of either process:
//
//   - the latching wake pipe (trigger_stop(), wake_fd() for signal
//     handlers: write(2) is async-signal-safe, which is the entire reason
//     the pipe exists);
//   - the 127.0.0.1 listener, accept with EMFILE/ENFILE backoff, and
//     TCP_NODELAY (+ optional SO_SNDBUF) on every accepted socket;
//   - the connection set, including the server's stdio connection, whose
//     EOF, oversize line or dead stdout stops the whole process;
//   - '\n' framing (LineReader: max_line_bytes, '\r' stripped, blank
//     lines skipped), so a routed and a direct request stream are split
//     by the same code;
//   - the bounded per-connection write queue (WriteQueue) that drops a
//     client who stops reading instead of blocking the loop;
//   - half-close: a client that sent EOF is closed once every response
//     it is owed has been flushed;
//   - the drain: stop accepting, stop reading, then flush for at most
//     drain_flush_timeout_ms before dropping whoever still has unread
//     bytes;
//   - the transport counters, under the owner's metric prefix
//     (svc.server.* or svc.router.*).
//
// The owner keeps only what differs — the Server its Service submit and
// completion queue, the Router its routing and worker supervision — and
// both run the same loop skeleton on one thread:
//
//   for (;;) {
//     pfds.clear();
//     const int timeout = fe.add_poll_fds(pfds);  // front-end fds first
//     ...append the owner's fds...
//     ::poll(pfds.data(), pfds.size(), timeout);
//     if (fe.dispatch(pfds)) ...the stop latch fired: drain begins...
//     ...dispatch the owner's fds...
//     fe.close_idle();
//     if (fe.draining() && fe.drain_flushed() && ...owner idle...) break;
//   }
//   fe.close_all();
//
// Complete request lines reach the owner through the LineHandler; the
// owner answers through respond(). Everything except trigger_stop(),
// wake_fd(), port() and stats() is loop-thread-only.
#pragma once

#include <poll.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace rat::svc {

/// The client-transport settings rat_serve and rat_router share
/// (ServerConfig and RouterConfig derive from it, so the two defaults
/// cannot drift apart).
struct TransportConfig {
  int port = 0;     ///< loopback TCP (0 = ephemeral; read it via port())
  int backlog = 64; ///< listen(2) backlog (--backlog)
  /// Longer request lines are rejected with a structured error and the
  /// connection closed.
  std::size_t max_line_bytes = 4u << 20;
  /// Bounded per-connection outbound queue: when more than this many
  /// unsent response bytes pile up, the client has stopped reading and
  /// is disconnected (<prefix>.slow_client_dropped) instead of blocking
  /// the event loop behind a full socket buffer.
  std::size_t max_write_buffer_bytes = 4u << 20;
  /// SO_SNDBUF for accepted sockets (0 = OS default). Small values bound
  /// how much the kernel buffers on the server side, which makes the
  /// slow-client policy bite deterministically.
  int so_sndbuf = 0;
  /// Backoff after accept(2) fails with EMFILE/ENFILE (fd exhaustion):
  /// the listen fd stays readable while the pending connection waits, so
  /// without a pause the loop would poll-spin at 100% CPU. The listen fd
  /// is simply not polled for this long, then accept retries — the
  /// queued connection is still there if fds freed up.
  int accept_backoff_ms = 50;
  /// Flush budget during drain: pending responses may keep trickling to
  /// clients this long; whoever still has unread bytes afterwards is
  /// dropped as a slow client so shutdown always terminates.
  int drain_flush_timeout_ms = 5000;
};

/// Transport counters (the <prefix>.* metrics, readable without the obs
/// registry).
struct TransportStats {
  std::uint64_t connections = 0;          ///< sockets accepted
  std::uint64_t slow_clients_dropped = 0; ///< write queue bound exceeded
  std::uint64_t responses_dropped = 0;    ///< response to a gone client
  std::uint64_t write_failures = 0;       ///< hard send/write errors
  std::uint64_t accept_failures = 0;      ///< accept(2) EMFILE/ENFILE
};

/// Outbound bytes for one non-blocking fd: whole lines appended at the
/// back, [off, size) not yet written.
class WriteQueue {
 public:
  std::size_t pending() const { return buf_.size() - off_; }

  void push_line(std::string_view line) {
    buf_ += line;
    buf_ += '\n';
  }

  /// Write until the queue is empty or the fd would block: send(2) with
  /// MSG_NOSIGNAL on sockets, write(2) otherwise. Returns 0, or the
  /// errno of a hard failure (EPIPE when the reader is gone).
  int flush(int fd, bool is_socket);

  void clear() {
    buf_.clear();
    off_ = 0;
  }

 private:
  std::string buf_;
  std::size_t off_ = 0;
};

/// '\n' framing over a non-blocking read fd, for client requests and for
/// worker responses alike.
class LineReader {
 public:
  enum class Status {
    kOk,        ///< read something, or nothing yet (EAGAIN/EINTR)
    kEof,       ///< the writer closed; take_tail() holds any last line
    kError,     ///< hard read error
    kOversize,  ///< a line exceeded the limit; the buffer was discarded
  };

  /// One read(2) from @p fd; every complete line, minus a trailing '\r'
  /// and unless blank, goes to @p on_line. A complete line, or an
  /// unterminated tail, longer than @p max_line_bytes is kOversize (the
  /// lines before it in the same read are still delivered).
  Status read(int fd, std::size_t max_line_bytes,
              const std::function<void(std::string)>& on_line);

  /// The unterminated tail after EOF, with the same '\r' rule (empty
  /// when blank). Clears the buffer.
  std::string take_tail();

  void clear() { buf_.clear(); }

 private:
  std::string buf_;
};

class Frontend {
 public:
  /// One client connection. Worker threads may hold the shared_ptr (to
  /// route a finished response back to the loop) but every field belongs
  /// to the loop thread.
  struct Conn {
    int read_fd = -1;
    int write_fd = -1;             ///< == read_fd for sockets
    bool is_socket = false;
    bool read_shut = false;        ///< stop reading: EOF, oversize, drain
    bool close_when_idle = false;  ///< close once flushed and owed nothing
    bool dead = false;             ///< fd closed; late responses drop
    /// Lines handed to the owner that it has not answered yet; the owner
    /// counts up on receipt and down before respond().
    std::size_t outstanding = 0;
    LineReader in;
    WriteQueue out;
  };
  using ConnPtr = std::shared_ptr<Conn>;
  using LineHandler = std::function<void(const ConnPtr&, std::string)>;

  /// @p metric_prefix names the counters ("svc.server" ->
  /// svc.server.connections, ...). Creates the wake pipe; throws
  /// std::system_error when it cannot.
  Frontend(const TransportConfig& config, std::string metric_prefix,
           LineHandler on_line);
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Bind 127.0.0.1:config.port and listen. Throws std::system_error.
  void listen();

  /// Serve @p in_fd -> @p out_fd as one more connection (rat_serve
  /// --stdio). Its EOF, an oversize line or a dead @p out_fd stops the
  /// process; the fds are left open for their owner.
  void add_stdio(int in_fd, int out_fd);

  /// Bound TCP port (valid after listen()).
  int port() const { return port_; }

  /// Write end of the latching wake pipe: a signal handler may
  /// write(wake_fd(), "x", 1).
  int wake_fd() const { return wake_w_; }

  /// Request the drain from any thread.
  void trigger_stop();

  /// Append the front-end's poll fds and return the poll(2) timeout it
  /// needs: 20 ms while draining (owners must re-check their own drain
  /// conditions, which no fd signals), the remaining accept backoff, or
  /// -1.
  int add_poll_fds(std::vector<pollfd>& pfds);

  /// Handle readiness on the fds add_poll_fds() appended: enter the drain
  /// when the wake pipe fired, accept, read (lines go to the
  /// LineHandler), flush. Returns true when the drain began in this call.
  bool dispatch(const std::vector<pollfd>& pfds);

  /// Queue one response line (newline appended) and flush what the
  /// socket takes. A dead connection counts the response as dropped; a
  /// queue over max_write_buffer_bytes drops the client as slow.
  void respond(const ConnPtr& conn, std::string_view line);

  /// Close half-closed connections that are owed nothing and flushed,
  /// and forget closed ones. Call once per loop pass, after the owner
  /// has answered what it could.
  void close_idle();

  bool draining() const { return draining_; }

  /// True once the drain's flush budget has run out.
  bool flush_expired() const;

  /// During drain: drop every client still holding unread bytes once
  /// the flush budget has run out, then report whether every queue is
  /// empty.
  bool drain_flushed();

  /// Close every connection (stdio fds are left to their owner).
  void close_all();

  TransportStats stats() const;

 private:
  void enter_drain();
  void accept_all();
  void handle_readable(const ConnPtr& conn);
  void flush(const ConnPtr& conn);
  void drop_slow_client(const ConnPtr& conn);
  void close_conn(Conn& conn);
  void count(std::atomic<std::uint64_t>& counter, const std::string& name);

  TransportConfig config_;
  LineHandler on_line_;

  int listen_fd_ = -1;
  int wake_r_ = -1;  ///< stop latch: stays readable once stop was asked
  int wake_w_ = -1;
  int port_ = -1;

  // Loop-thread-only state.
  std::vector<ConnPtr> conns_;
  bool draining_ = false;
  std::uint64_t flush_deadline_ns_ = 0;
  std::uint64_t accept_backoff_until_ns_ = 0;  ///< EMFILE backoff window
  // Where this pass's fds sit in the caller's poll set.
  int wake_idx_ = -1;
  int listen_idx_ = -1;
  std::size_t conn_idx_ = 0;
  std::vector<ConnPtr> slots_;  ///< pfds[conn_idx_ + i] -> slots_[i]

  std::string name_connections_, name_slow_dropped_, name_responses_dropped_,
      name_write_failed_, name_accept_failed_;
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> slow_clients_dropped_{0};
  std::atomic<std::uint64_t> responses_dropped_{0};
  std::atomic<std::uint64_t> write_failures_{0};
  std::atomic<std::uint64_t> accept_failures_{0};
};

}  // namespace rat::svc
