#include "svc/router.hpp"

#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <system_error>

#include "core/parameters.hpp"
#include "io/diagnostics.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "svc/cache.hpp"
#include "svc/fdio.hpp"
#include "svc/fingerprint.hpp"

namespace rat::svc {

namespace {

void obs_count(const char* name) {
  if (obs::enabled()) obs::Registry::global().add_counter(name);
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// The canonical response-line prefix up to and including the opening
/// quote of a string id — every worker response to a forwarded request
/// starts with exactly these bytes, because the router's correlation
/// tokens are never empty (an empty id would render as null).
const std::string& response_head_prefix() {
  static const std::string head =
      std::string("{\"schema\":\"") + kProtocolSchema + "\",\"id\":\"";
  return head;
}

}  // namespace

// ---- Routing helpers ----

std::uint64_t route_fingerprint(const Request& req) {
  if (req.has_file) {
    // Server-side paths are resolved by the worker; the path string is
    // the only stable routing key available without touching the disk.
    return fnv1a64("file:" + req.file);
  }
  try {
    return fingerprint(core::RatInputs::parse(req.worksheet));
  } catch (const std::exception&) {
    // Unparseable worksheet: the owning worker will produce the
    // structured diagnostic. Hashing the raw text keeps repeats of the
    // same bad request on one worker (and its E_BAD_REQUEST formatting
    // deterministic) without the router duplicating parser policy.
    return fnv1a64(req.worksheet);
  }
}

std::string encode_forward(const std::string& token, const Request& req) {
  std::string out;
  // The worksheet text dominates; escapes add a few bytes per line.
  out.reserve(96 + token.size() + req.worksheet.size() +
              req.worksheet.size() / 8 + req.file.size());
  out += "{\"id\":";
  io::append_json_str(out, token);
  switch (req.op) {
    case Request::Op::kEvaluate: out += ",\"op\":\"evaluate\""; break;
    case Request::Op::kPing: out += ",\"op\":\"ping\""; break;
    case Request::Op::kStats: out += ",\"op\":\"stats\""; break;
    case Request::Op::kShutdown: out += ",\"op\":\"shutdown\""; break;
  }
  if (req.has_worksheet) {
    out += ",\"worksheet\":";
    io::append_json_str(out, req.worksheet);
  }
  if (req.has_file) {
    out += ",\"file\":";
    io::append_json_str(out, req.file);
  }
  if (req.deadline_ms > 0.0) {
    out += ",\"deadline_ms\":";
    io::append_json_number(out, req.deadline_ms);
  }
  if (req.no_cache) out += ",\"no_cache\":true";
  out += '}';
  return out;
}

std::string response_token(const std::string& line) {
  const std::string& head = response_head_prefix();
  if (line.size() <= head.size() ||
      line.compare(0, head.size(), head) != 0)
    return {};
  const std::size_t end = line.find('"', head.size());
  if (end == std::string::npos) return {};
  return line.substr(head.size(), end - head.size());
}

std::string restore_response_id(const std::string& line,
                                const std::string& orig_id) {
  const std::string& head = response_head_prefix();
  const std::size_t end = line.find('"', head.size());
  // Everything before the id value is append_response_head's fixed text,
  // so the splice reproduces a direct server's bytes exactly: ids render
  // via the same io::append_json_str, empty ids as null.
  std::string out;
  out.reserve(line.size() + orig_id.size());
  out.append(head, 0, head.size() - 1);  // drop the opening quote
  if (orig_id.empty())
    out += "null";
  else
    io::append_json_str(out, orig_id);
  out.append(line, end + 1, std::string::npos);
  return out;
}

// ---- Internal structures ----

/// One client connection; the mirror of Server::Connection, minus the
/// stdio special case (the router is TCP-only — its own stdio is the
/// operator's terminal, and its workers' stdio belongs to the router).
struct Router::Conn {
  int fd = -1;
  bool read_shut = false;
  bool close_when_idle = false;
  bool dead = false;
  std::size_t outstanding = 0;  ///< forwarded requests awaiting a response
  std::string rbuf;
  std::string wbuf;
  std::size_t woff = 0;

  std::size_t pending() const { return wbuf.size() - woff; }
};

/// One supervised worker process and its two pipe ends.
struct Router::Worker {
  pid_t pid = -1;
  int to_fd = -1;    ///< write end of the worker's stdin pipe
  int from_fd = -1;  ///< read end of the worker's stdout pipe
  bool alive = false;
  bool abandoned = false;     ///< fast-death budget exhausted; no respawn
  bool stdin_closed = false;  ///< drain: EOF sent, worker is exiting
  bool responded_since_spawn = false;
  int fast_deaths = 0;
  std::string rbuf;
  std::string wbuf;  ///< outbound request lines; [woff, size) unsent
  std::size_t woff = 0;

  std::size_t pending() const { return wbuf.size() - woff; }
};

/// One forwarded request awaiting its worker response.
struct Router::Pending {
  std::shared_ptr<Conn> conn;
  std::string orig_id;
  std::size_t worker = 0;
  std::string fwd_line;  ///< token-bearing request (no newline), kept so
                         ///< a worker death can re-forward it verbatim
  std::shared_ptr<Fanout> fanout;  ///< null for evaluate
};

/// A ping/stats broadcast in flight: one sub-request per live worker,
/// one aggregated client response once the last one lands. Internal
/// fanouts (the drain-time stats sweep feeding --metrics) have no
/// client connection; their aggregate goes to the obs registry instead.
struct Router::Fanout {
  std::shared_ptr<Conn> conn;  ///< null when internal
  std::string orig_id;
  Request::Op op = Request::Op::kPing;
  bool internal = false;
  std::size_t remaining = 0;
  // Summed worker stats (the stats op's aggregation).
  std::uint64_t requests = 0, responses_ok = 0, responses_error = 0,
                rejected_overloaded = 0, rejected_draining = 0,
                deadline_expired = 0, in_flight = 0;
  std::uint64_t hits = 0, misses = 0, evictions = 0, size = 0, bytes = 0,
                capacity = 0, warmed = 0;
};

// ---- Lifecycle ----

Router::Router(RouterConfig config) : config_(std::move(config)) {
  if (config_.n_workers == 0) config_.n_workers = 1;
  int fds[2];
  if (!make_pipe_cloexec(fds)) throw_errno("svc::Router: pipe");
  wake_r_ = fds[0];
  wake_w_ = fds[1];
  // Non-blocking write end: a signal handler must never block on a full
  // pipe; one byte is enough to latch the stop request.
  set_nonblock(wake_w_);
}

Router::~Router() {
  if (started_ && !ran_) {
    // Backstop for tests/errors that never called run().
    trigger_stop();
    run();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::close(wake_r_);
  ::close(wake_w_);
}

void Router::trigger_stop() {
  const char byte = 's';
  [[maybe_unused]] ssize_t n = ::write(wake_w_, &byte, 1);
}

void Router::start() {
  if (config_.worker_argv.empty())
    throw std::invalid_argument("svc::Router: worker_argv must not be empty");
  // Router-owned for the same reason it is server-owned: a dead worker's
  // stdin pipe must surface as EPIPE from write(2) (handled as a death,
  // respawn + re-forward), never as a fatal SIGPIPE.
  ignore_sigpipe();

  {
    std::lock_guard lock(pids_mu_);
    pids_.assign(config_.n_workers, -1);
  }
  workers_.clear();
  for (std::size_t i = 0; i < config_.n_workers; ++i)
    workers_.push_back(std::make_unique<Worker>());
  for (std::size_t i = 0; i < config_.n_workers; ++i)
    if (!spawn_worker(i)) throw_errno("svc::Router: spawn worker");

#if defined(SOCK_NONBLOCK) && defined(SOCK_CLOEXEC)
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
#else
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ >= 0) {
    set_nonblock(listen_fd_);
    set_cloexec(listen_fd_);
  }
#endif
  if (listen_fd_ < 0) throw_errno("svc::Router: socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0)
    throw_errno("svc::Router: bind 127.0.0.1");
  if (::listen(listen_fd_, config_.backlog > 0 ? config_.backlog : 1) != 0)
    throw_errno("svc::Router: listen");
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0)
    throw_errno("svc::Router: getsockname");
  port_ = ntohs(addr.sin_port);

  loop_thread_ = std::thread([this] { event_loop(); });
  started_ = true;
}

void Router::run() {
  if (loop_thread_.joinable()) loop_thread_.join();
  ran_ = true;
}

Router::Stats Router::stats() const {
  Stats st;
  st.connections = connections_.load(std::memory_order_relaxed);
  st.requests = requests_.load(std::memory_order_relaxed);
  st.forwarded = forwarded_.load(std::memory_order_relaxed);
  st.rerouted = rerouted_.load(std::memory_order_relaxed);
  st.worker_deaths = worker_deaths_.load(std::memory_order_relaxed);
  st.respawns = respawns_.load(std::memory_order_relaxed);
  st.overloaded_local = overloaded_local_.load(std::memory_order_relaxed);
  st.slow_clients_dropped =
      slow_clients_dropped_.load(std::memory_order_relaxed);
  st.responses_dropped = responses_dropped_.load(std::memory_order_relaxed);
  st.accept_failures = accept_failures_.load(std::memory_order_relaxed);
  return st;
}

std::vector<pid_t> Router::worker_pids() const {
  std::lock_guard lock(pids_mu_);
  return pids_;
}

// ---- Worker supervision ----

bool Router::spawn_worker(std::size_t slot) {
  Worker& w = *workers_[slot];
  int in_pipe[2];   // router -> worker stdin
  int out_pipe[2];  // worker stdout -> router
  if (!make_pipe_cloexec(in_pipe)) return false;
  if (!make_pipe_cloexec(out_pipe)) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return false;
  }

  // Build argv before fork: between fork and exec only async-signal-safe
  // calls are allowed (and the sanitizers enforce the spirit of that),
  // so no allocation may happen in the child.
  std::vector<std::string> args = config_.worker_argv;
  if (!config_.cache_dir.empty())
    args.push_back("--cache-dir=" + config_.cache_dir + "/shard-" +
                   std::to_string(slot));
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return false;
  }
  if (pid == 0) {
    // Child: wire the pipes onto stdio and become the worker. dup2
    // clears CLOEXEC on the duplicates; every other router fd (pipes,
    // sockets, other workers' ends) is CLOEXEC and vanishes at exec.
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::execvp(argv[0], argv.data());
    _exit(127);  // exec failed; the fast-death budget reports it
  }

  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  set_nonblock(in_pipe[1]);
  set_nonblock(out_pipe[0]);
  w.pid = pid;
  w.to_fd = in_pipe[1];
  w.from_fd = out_pipe[0];
  w.alive = true;
  w.abandoned = false;
  w.stdin_closed = false;
  w.responded_since_spawn = false;
  w.rbuf.clear();
  w.wbuf.clear();
  w.woff = 0;
  {
    std::lock_guard lock(pids_mu_);
    pids_[slot] = pid;
  }
  write_pid_file();
  return true;
}

void Router::write_pid_file() {
  if (config_.worker_pid_file.empty()) return;
  std::vector<pid_t> pids;
  {
    std::lock_guard lock(pids_mu_);
    pids = pids_;
  }
  // Write-then-rename so a script killing workers never reads a torn
  // file mid-respawn.
  const std::string tmp = config_.worker_pid_file + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    for (pid_t pid : pids) out << pid << '\n';
  }
  std::rename(tmp.c_str(), config_.worker_pid_file.c_str());
}

void Router::forward_to(std::size_t slot, const std::string& line) {
  Worker& w = *workers_[slot];
  w.wbuf += line;
  w.wbuf += '\n';
  flush_worker(slot);
}

void Router::flush_worker(std::size_t slot) {
  Worker& w = *workers_[slot];
  if (!w.alive || w.stdin_closed) return;
  while (w.pending() > 0) {
    const ssize_t n =
        ::write(w.to_fd, w.wbuf.data() + w.woff, w.pending());
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // EPIPE: the worker died with requests still queued toward it.
      // Death handling (respawn + re-forward from the pending map) runs
      // off the stdout EOF, which is already on its way; the stale
      // queue is dropped here.
      w.wbuf.clear();
      w.woff = 0;
      return;
    }
    w.woff += static_cast<std::size_t>(n);
  }
  if (w.pending() == 0) {
    w.wbuf.clear();
    w.woff = 0;
  } else if (w.woff >= 65536) {
    w.wbuf.erase(0, w.woff);
    w.woff = 0;
  }
}

void Router::handle_worker_readable(std::size_t slot) {
  Worker& w = *workers_[slot];
  char chunk[65536];
  const ssize_t n = ::read(w.from_fd, chunk, sizeof chunk);
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    worker_died(slot);
    return;
  }
  if (n == 0) {
    // EOF is the death signal: the worker's stdout write end only closes
    // when the process exits (or execs away every fd, which a worker
    // never does). A partial trailing line is corruption and drops.
    worker_died(slot);
    return;
  }
  w.rbuf.append(chunk, static_cast<std::size_t>(n));
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = w.rbuf.find('\n', start);
    if (nl == std::string::npos) break;
    handle_worker_line(slot, w.rbuf.substr(start, nl - start));
    start = nl + 1;
  }
  w.rbuf.erase(0, start);
  if (w.rbuf.size() > config_.max_line_bytes) {
    // A worker emitting an unbounded non-line is broken protocol; kill
    // it and let the death path take over.
    kill_worker(slot);
  }
}

void Router::handle_worker_line(std::size_t slot, std::string line) {
  Worker& w = *workers_[slot];
  const std::string token = response_token(line);
  if (token.empty()) return;  // not a correlated response line; drop
  const auto it = pending_.find(token);
  if (it == pending_.end()) return;  // duplicate or stale; drop
  w.responded_since_spawn = true;
  Pending p = std::move(it->second);
  pending_.erase(it);

  if (p.fanout) {
    Fanout& f = *p.fanout;
    if (f.op == Request::Op::kStats) {
      // Best-effort accumulation: a malformed worker stats line simply
      // contributes nothing to the sums.
      try {
        const io::JsonValue doc = io::parse_json(line);
        if (const io::JsonValue* st = doc.find("stats");
            st && st->is_object()) {
          for (const auto& [key, value] : st->object) {
            if (key == "cache" && value.is_object()) {
              for (const auto& [ck, cv] : value.object) {
                if (!cv.is_number()) continue;
                const auto v = static_cast<std::uint64_t>(cv.number);
                if (ck == "hits") f.hits += v;
                else if (ck == "misses") f.misses += v;
                else if (ck == "evictions") f.evictions += v;
                else if (ck == "size") f.size += v;
                else if (ck == "bytes") f.bytes += v;
                else if (ck == "capacity") f.capacity += v;
                else if (ck == "warmed") f.warmed += v;
              }
              continue;
            }
            if (!value.is_number()) continue;
            const auto v = static_cast<std::uint64_t>(value.number);
            if (key == "requests") f.requests += v;
            else if (key == "responses_ok") f.responses_ok += v;
            else if (key == "responses_error") f.responses_error += v;
            else if (key == "rejected_overloaded") f.rejected_overloaded += v;
            else if (key == "rejected_draining") f.rejected_draining += v;
            else if (key == "deadline_expired") f.deadline_expired += v;
            else if (key == "in_flight") f.in_flight += v;
          }
        }
      } catch (const std::exception&) {
      }
    }
    if (f.remaining > 0) --f.remaining;
    if (f.remaining == 0) finish_fanout(p.fanout);
    return;
  }

  --p.conn->outstanding;
  respond_client(p.conn, restore_response_id(line, p.orig_id));
}

void Router::worker_died(std::size_t slot) {
  Worker& w = *workers_[slot];
  if (!w.alive) return;
  w.alive = false;
  ::close(w.from_fd);
  w.from_fd = -1;
  if (!w.stdin_closed) {
    ::close(w.to_fd);
    w.to_fd = -1;
    w.stdin_closed = true;
  }
  w.rbuf.clear();
  w.wbuf.clear();
  w.woff = 0;
  zombies_.push_back(w.pid);
  {
    std::lock_guard lock(pids_mu_);
    pids_[slot] = -1;
  }
  if (workers_stopping_) return;  // drain: this EOF is the expected exit

  worker_deaths_.fetch_add(1, std::memory_order_relaxed);
  obs_count("svc.router.worker_death");
  if (w.responded_since_spawn)
    w.fast_deaths = 0;
  else
    ++w.fast_deaths;
  if (w.fast_deaths >= config_.max_fast_deaths) {
    // Dying over and over without a single response means the worker
    // binary itself is broken (bad path, bad flags, instant crash);
    // respawning forever would be a fork storm, not fault tolerance.
    abandon_worker(slot);
    return;
  }
  if (!spawn_worker(slot)) {
    abandon_worker(slot);
    return;
  }
  respawns_.fetch_add(1, std::memory_order_relaxed);
  obs_count("svc.router.respawn");
  reforward_pending(slot);
}

void Router::reforward_pending(std::size_t slot) {
  // The replacement inherits the dead worker's hash range, so every
  // in-flight request re-forwards to the same slot — deterministic
  // rebalance, and deterministic evaluation makes the retried response
  // byte-identical to what the dead worker would have sent. The pending
  // map guarantees exactly-once delivery to the client either way.
  for (const auto& [token, p] : pending_) {
    if (p.worker != slot) continue;
    rerouted_.fetch_add(1, std::memory_order_relaxed);
    obs_count("svc.router.rerouted");
    forward_to(slot, p.fwd_line);
  }
}

void Router::abandon_worker(std::size_t slot) {
  Worker& w = *workers_[slot];
  w.abandoned = true;
  obs_count("svc.router.worker_abandoned");
  // Answer everything that was in flight to the shard; an admitted
  // request is never silently dropped.
  std::vector<std::string> tokens;
  for (const auto& [token, p] : pending_)
    if (p.worker == slot) tokens.push_back(token);
  for (const auto& token : tokens) {
    const auto it = pending_.find(token);
    if (it == pending_.end()) continue;
    Pending p = std::move(it->second);
    pending_.erase(it);
    if (p.fanout) {
      if (p.fanout->remaining > 0) --p.fanout->remaining;
      if (p.fanout->remaining == 0) finish_fanout(p.fanout);
      continue;
    }
    --p.conn->outstanding;
    respond_client(p.conn,
                   internal_error_response(
                       p.orig_id, "worker for this shard is unavailable"));
  }
}

void Router::close_worker_stdin(std::size_t slot) {
  Worker& w = *workers_[slot];
  if (!w.alive || w.stdin_closed) return;
  // EOF on stdin is the worker's own graceful-drain trigger: it answers
  // what it admitted, flushes stdout, and exits 0.
  ::close(w.to_fd);
  w.to_fd = -1;
  w.stdin_closed = true;
  w.wbuf.clear();
  w.woff = 0;
}

void Router::kill_worker(std::size_t slot) {
  Worker& w = *workers_[slot];
  if (w.alive && w.pid > 0) ::kill(w.pid, SIGKILL);
}

void Router::reap_zombies(bool block) {
  auto it = zombies_.begin();
  while (it != zombies_.end()) {
    int status = 0;
    const pid_t r = ::waitpid(*it, &status, block ? 0 : WNOHANG);
    if (r == *it || (r < 0 && errno == ECHILD))
      it = zombies_.erase(it);
    else
      ++it;
  }
}

// ---- Client side ----

void Router::do_accept() {
  for (;;) {
    const int fd = accept_nonblock_cloexec(listen_fd_);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Same policy as the server: back off instead of poll-spinning
        // on the still-readable listen fd.
        accept_failures_.fetch_add(1, std::memory_order_relaxed);
        obs_count("svc.router.accept_failed");
        accept_backoff_until_ns_ =
            obs::now_ns() +
            static_cast<std::uint64_t>(config_.accept_backoff_ms > 0
                                           ? config_.accept_backoff_ms
                                           : 1) *
                1'000'000ull;
        return;
      }
      return;  // EAGAIN: everything pending was accepted
    }
    configure_accepted_socket(fd, config_.so_sndbuf);
    connections_.fetch_add(1, std::memory_order_relaxed);
    obs_count("svc.router.connections");
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conns_.push_back(std::move(conn));
  }
}

void Router::handle_client_readable(const std::shared_ptr<Conn>& conn) {
  char chunk[65536];
  const ssize_t n = ::read(conn->fd, chunk, sizeof chunk);
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    close_client(*conn);  // client went away; its responses drop
    return;
  }
  if (n == 0) {
    // EOF. A final unterminated line still counts as a request, then the
    // connection half-closes: every owed response still flushes.
    if (!conn->rbuf.empty()) {
      std::string line;
      line.swap(conn->rbuf);
      route_line(conn, std::move(line));
    }
    conn->read_shut = true;
    conn->close_when_idle = true;
    return;
  }
  conn->rbuf.append(chunk, static_cast<std::size_t>(n));
  deliver_lines(conn);
}

void Router::deliver_lines(const std::shared_ptr<Conn>& conn) {
  std::size_t start = 0;
  bool oversize = false;
  for (;;) {
    const std::size_t nl = conn->rbuf.find('\n', start);
    if (nl == std::string::npos) break;
    if (nl - start > config_.max_line_bytes) {
      oversize = true;
      break;
    }
    route_line(conn, conn->rbuf.substr(start, nl - start));
    start = nl + 1;
  }
  conn->rbuf.erase(0, start);
  if (oversize || conn->rbuf.size() > config_.max_line_bytes) {
    respond_client(
        conn, error_response("", SvcErrorCode::kBadRequest,
                             "request line exceeds " +
                                 std::to_string(config_.max_line_bytes) +
                                 " bytes"));
    conn->rbuf.clear();
    conn->read_shut = true;
    conn->close_when_idle = true;
  }
}

void Router::route_line(const std::shared_ptr<Conn>& conn,
                        std::string line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  obs_count("svc.router.requests");

  Request req;
  try {
    req = parse_request(line);
  } catch (const ProtocolError& e) {
    // Same renderer + same parser => the same bytes a direct worker
    // would have produced; no need to burn a round-trip on it.
    respond_client(conn, error_response(e.id(), e.code(), e.what()));
    return;
  }

  switch (req.op) {
    case Request::Op::kPing:
    case Request::Op::kStats:
      start_fanout(conn, req);
      return;
    case Request::Op::kShutdown:
      // Ack first (the bytes a direct server sends), then drain the
      // whole fleet via the wake pipe — the same latch signals use —
      // so the response still flushes: drain only stops reads.
      respond_client(conn, shutdown_response(req.id));
      trigger_stop();
      return;
    case Request::Op::kEvaluate:
      break;
  }

  const std::uint64_t fp = route_fingerprint(req);
  const std::size_t slot = static_cast<std::size_t>(fp % config_.n_workers);
  Worker& w = *workers_[slot];
  if (w.abandoned) {
    respond_client(conn,
                   internal_error_response(
                       req.id, "worker for this shard is unavailable"));
    return;
  }
  if (w.pending() > config_.max_worker_pipe_bytes) {
    // The shard owner has stopped draining its stdin: local admission
    // control, same contract as the service's bounded queue.
    overloaded_local_.fetch_add(1, std::memory_order_relaxed);
    obs_count("svc.router.overloaded_local");
    respond_client(conn,
                   error_response(req.id, SvcErrorCode::kOverloaded,
                                  "worker pipe full; retry later"));
    return;
  }

  const std::string token = next_token();
  Pending p;
  p.conn = conn;
  p.orig_id = req.id;
  p.worker = slot;
  p.fwd_line = encode_forward(token, req);
  ++conn->outstanding;
  forwarded_.fetch_add(1, std::memory_order_relaxed);
  obs_count("svc.router.forwarded");
  const std::string& fwd = pending_.emplace(token, std::move(p))
                               .first->second.fwd_line;
  forward_to(slot, fwd);
}

void Router::start_fanout(const std::shared_ptr<Conn>& conn,
                          const Request& req) {
  auto fanout = std::make_shared<Fanout>();
  fanout->conn = conn;
  fanout->orig_id = req.id;
  fanout->op = req.op;
  ++conn->outstanding;
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    Worker& w = *workers_[slot];
    if (!w.alive || w.abandoned || w.stdin_closed) continue;
    const std::string token = next_token();
    Pending p;
    p.conn = conn;
    p.orig_id = req.id;
    p.worker = slot;
    p.fwd_line = encode_forward(token, req);
    p.fanout = fanout;
    ++fanout->remaining;
    forwarded_.fetch_add(1, std::memory_order_relaxed);
    obs_count("svc.router.forwarded");
    const std::string& fwd = pending_.emplace(token, std::move(p))
                                 .first->second.fwd_line;
    forward_to(slot, fwd);
  }
  if (fanout->remaining == 0) finish_fanout(fanout);
}

void Router::start_internal_stats_fanout() {
  // Same wire mechanics as a client stats broadcast, but conn-less: the
  // sub-requests ride the normal Pending map, so drain phase 1's
  // "pending_ empty" gate naturally waits for the answers before worker
  // stdins close (and the flush-deadline backstop cancels them the same
  // way if a worker hangs).
  auto fanout = std::make_shared<Fanout>();
  fanout->op = Request::Op::kStats;
  fanout->internal = true;
  Request req;
  req.op = Request::Op::kStats;
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    Worker& w = *workers_[slot];
    if (!w.alive || w.abandoned || w.stdin_closed) continue;
    const std::string token = next_token();
    Pending p;
    p.orig_id = req.id;
    p.worker = slot;
    p.fwd_line = encode_forward(token, req);
    p.fanout = fanout;
    ++fanout->remaining;
    const std::string& fwd = pending_.emplace(token, std::move(p))
                                 .first->second.fwd_line;
    forward_to(slot, fwd);
  }
  if (fanout->remaining == 0) finish_fanout(fanout);
}

void Router::finish_fanout(const std::shared_ptr<Fanout>& fanout) {
  Fanout& f = *fanout;
  if (f.internal) {
    // Drain-time sweep: flush the fleet-wide sums into the registry so
    // the --metrics file carries what the workers saw, not just the
    // front-end's own counters. Gauges, not counters: these are
    // terminal absolute values read once at export.
    obs::Registry& r = obs::Registry::global();
    r.set_gauge("svc.fleet.requests", static_cast<double>(f.requests));
    r.set_gauge("svc.fleet.responses_ok",
                static_cast<double>(f.responses_ok));
    r.set_gauge("svc.fleet.responses_error",
                static_cast<double>(f.responses_error));
    r.set_gauge("svc.fleet.rejected_overloaded",
                static_cast<double>(f.rejected_overloaded));
    r.set_gauge("svc.fleet.rejected_draining",
                static_cast<double>(f.rejected_draining));
    r.set_gauge("svc.fleet.deadline_expired",
                static_cast<double>(f.deadline_expired));
    r.set_gauge("svc.fleet.cache.hits", static_cast<double>(f.hits));
    r.set_gauge("svc.fleet.cache.misses", static_cast<double>(f.misses));
    r.set_gauge("svc.fleet.cache.evictions",
                static_cast<double>(f.evictions));
    r.set_gauge("svc.fleet.cache.size", static_cast<double>(f.size));
    r.set_gauge("svc.fleet.cache.bytes", static_cast<double>(f.bytes));
    r.set_gauge("svc.fleet.cache.warmed", static_cast<double>(f.warmed));
    std::size_t alive = 0;
    for (const auto& w : workers_)
      if (w->alive && !w->abandoned) ++alive;
    r.set_gauge("svc.fleet.workers_alive", static_cast<double>(alive));
    return;
  }
  --f.conn->outstanding;
  if (f.op == Request::Op::kPing) {
    respond_client(f.conn, pong_response(f.orig_id));
    return;
  }
  std::size_t alive = 0;
  for (const auto& w : workers_)
    if (w->alive && !w->abandoned) ++alive;
  ResultCache::Stats cs;
  cs.hits = f.hits;
  cs.misses = f.misses;
  std::string out;
  append_response_head(out, f.orig_id, "ok");
  auto field = [&out](std::string_view key, std::uint64_t v) {
    out += key;
    io::append_json_int(out, v);
  };
  // The "stats" object sums the workers' counters in the worker key
  // order; "router" carries the front-end's own.
  field(",\"op\":\"stats\",\"stats\":{\"requests\":", f.requests);
  field(",\"responses_ok\":", f.responses_ok);
  field(",\"responses_error\":", f.responses_error);
  field(",\"rejected_overloaded\":", f.rejected_overloaded);
  field(",\"rejected_draining\":", f.rejected_draining);
  field(",\"deadline_expired\":", f.deadline_expired);
  field(",\"in_flight\":", f.in_flight);
  field(",\"cache\":{\"hits\":", f.hits);
  field(",\"misses\":", f.misses);
  field(",\"evictions\":", f.evictions);
  field(",\"size\":", f.size);
  field(",\"bytes\":", f.bytes);
  field(",\"capacity\":", f.capacity);
  out += ",\"hit_ratio\":";
  io::append_json_number(out, hit_ratio(cs));
  field(",\"warmed\":", f.warmed);
  field("}},\"router\":{\"workers\":", config_.n_workers);
  field(",\"alive\":", alive);
  auto counter = [&field](std::string_view key,
                          const std::atomic<std::uint64_t>& c) {
    field(key, c.load(std::memory_order_relaxed));
  };
  counter(",\"connections\":", connections_);
  counter(",\"requests\":", requests_);
  counter(",\"forwarded\":", forwarded_);
  counter(",\"rerouted\":", rerouted_);
  counter(",\"worker_deaths\":", worker_deaths_);
  counter(",\"respawns\":", respawns_);
  counter(",\"overloaded_local\":", overloaded_local_);
  counter(",\"slow_clients_dropped\":", slow_clients_dropped_);
  counter(",\"responses_dropped\":", responses_dropped_);
  counter(",\"accept_failures\":", accept_failures_);
  out += "}}";
  respond_client(f.conn, out);
}

void Router::respond_client(const std::shared_ptr<Conn>& conn,
                            const std::string& line) {
  if (conn->dead) {
    responses_dropped_.fetch_add(1, std::memory_order_relaxed);
    obs_count("svc.router.responses_dropped");
    return;
  }
  conn->wbuf += line;
  conn->wbuf += '\n';
  flush_client(conn);
  if (!conn->dead && conn->pending() > config_.max_write_buffer_bytes)
    drop_slow_client(conn);
}

void Router::flush_client(const std::shared_ptr<Conn>& conn) {
  while (conn->pending() > 0) {
    const ssize_t n = ::send(conn->fd, conn->wbuf.data() + conn->woff,
                             conn->pending(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_client(*conn);  // reader gone; remaining responses drop
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

void Router::drop_slow_client(const std::shared_ptr<Conn>& conn) {
  slow_clients_dropped_.fetch_add(1, std::memory_order_relaxed);
  obs_count("svc.router.slow_client_dropped");
  close_client(*conn);
}

void Router::close_client(Conn& conn) {
  if (conn.dead) return;
  conn.dead = true;
  conn.wbuf.clear();
  conn.woff = 0;
  ::close(conn.fd);
  conn.fd = -1;
}

// ---- Event loop ----

void Router::enter_drain() {
  if (draining_) return;
  draining_ = true;
  // 1. Stop accepting.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // 2. Stop reading; connections stay open so responses still flow.
  for (const auto& c : conns_) c->read_shut = true;
  flush_deadline_ns_ =
      obs::now_ns() +
      static_cast<std::uint64_t>(config_.drain_flush_timeout_ms > 0
                                     ? config_.drain_flush_timeout_ms
                                     : 0) *
          1'000'000ull;
}

void Router::event_loop() {
  std::optional<obs::ScopedTimer> shutdown_timer;
  struct Slot {
    enum Kind { kConn, kWorkerIn, kWorkerOut } kind;
    std::size_t index;
  };
  std::vector<pollfd> pfds;
  std::vector<Slot> slots;  // pfds[fixed+i] -> slots[i]
  std::vector<std::shared_ptr<Conn>> conn_refs;

  for (;;) {
    reap_zombies(false);

    pfds.clear();
    slots.clear();
    conn_refs.clear();

    // The wake pipe is latching (never read), so it is polled only until
    // the drain starts — afterwards it would spin the loop.
    int wake_idx = -1;
    if (!draining_) {
      wake_idx = static_cast<int>(pfds.size());
      pfds.push_back({wake_r_, POLLIN, 0});
    }
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

    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const auto& c = conns_[i];
      if (c->dead) continue;
      const bool want_read = !c->read_shut;
      const bool want_write = c->pending() > 0;
      if (!want_read && !want_write) continue;
      pfds.push_back({c->fd,
                      static_cast<short>((want_read ? POLLIN : 0) |
                                         (want_write ? POLLOUT : 0)),
                      0});
      slots.push_back({Slot::kConn, conn_refs.size()});
      conn_refs.push_back(c);
    }
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const Worker& w = *workers_[i];
      if (!w.alive) continue;
      pfds.push_back({w.from_fd, POLLIN, 0});
      slots.push_back({Slot::kWorkerOut, i});
      if (!w.stdin_closed && w.pending() > 0) {
        pfds.push_back({w.to_fd, POLLOUT, 0});
        slots.push_back({Slot::kWorkerIn, i});
      }
    }

    const int timeout = draining_ ? 20 : backoff_ms;
    const int rc = ::poll(pfds.data(), pfds.size(), timeout);
    if (rc < 0 && errno != EINTR) break;  // unrecoverable; bail out

    if (wake_idx >= 0 && (pfds[wake_idx].revents & POLLIN) != 0) {
      enter_drain();
      shutdown_timer.emplace("svc.router.shutdown");
    }
    if (listen_idx >= 0 && !draining_ &&
        (pfds[listen_idx].revents & POLLIN) != 0)
      do_accept();

    for (std::size_t i = fixed; i < pfds.size(); ++i) {
      const Slot& slot = slots[i - fixed];
      const short events = pfds[i].events;
      const short rev = pfds[i].revents;
      if (rev == 0) continue;
      switch (slot.kind) {
        case Slot::kConn: {
          const auto& c = conn_refs[slot.index];
          if (c->dead) break;
          if ((events & POLLIN) != 0 &&
              (rev & (POLLIN | POLLHUP | POLLERR)) != 0 && !c->read_shut)
            handle_client_readable(c);
          if (c->dead) break;
          if ((events & POLLOUT) != 0 &&
              (rev & (POLLOUT | POLLHUP | POLLERR)) != 0)
            flush_client(c);
          if (!c->dead && (rev & POLLNVAL) != 0) close_client(*c);
          break;
        }
        case Slot::kWorkerOut:
          if (workers_[slot.index]->alive &&
              (rev & (POLLIN | POLLHUP | POLLERR)) != 0)
            handle_worker_readable(slot.index);
          break;
        case Slot::kWorkerIn:
          if (workers_[slot.index]->alive &&
              (rev & (POLLOUT | POLLHUP | POLLERR)) != 0)
            flush_worker(slot.index);
          break;
      }
    }

    // Half-closed clients leave once their last owed response is out.
    for (const auto& c : conns_)
      if (!c->dead && c->close_when_idle && c->outstanding == 0 &&
          c->pending() == 0)
        close_client(*c);
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const auto& c) { return c->dead; }),
                 conns_.end());

    if (!draining_) continue;

    const std::uint64_t now = obs::now_ns();
    if (!workers_stopping_) {
      // Drain phase 1: answer everything admitted, flush every client.
      if (!final_stats_sent_) {
        final_stats_sent_ = true;
        if (obs::enabled()) start_internal_stats_fanout();
      }
      if (now > flush_deadline_ns_) {
        // Budget exhausted. Whatever a worker still owes is answered
        // with a structured error (a hung worker must not hang
        // shutdown), and whoever is not reading their responses drops.
        std::vector<std::string> tokens;
        tokens.reserve(pending_.size());
        for (const auto& [token, p] : pending_) tokens.push_back(token);
        for (const auto& token : tokens) {
          const auto it = pending_.find(token);
          if (it == pending_.end()) continue;
          Pending p = std::move(it->second);
          pending_.erase(it);
          if (p.fanout) {
            if (p.fanout->remaining > 0) --p.fanout->remaining;
            if (p.fanout->remaining == 0) finish_fanout(p.fanout);
            continue;
          }
          --p.conn->outstanding;
          respond_client(p.conn,
                         internal_error_response(
                             p.orig_id, "router shut down before the "
                                        "worker answered"));
        }
        for (const auto& c : conns_)
          if (!c->dead && c->pending() > 0) drop_slow_client(c);
      }
      bool flushed = true;
      for (const auto& c : conns_)
        if (!c->dead && c->pending() > 0) flushed = false;
      if (pending_.empty() && flushed) {
        // Phase 2: the fleet winds down. Closing a worker's stdin is its
        // graceful-drain trigger (mirrors piping into rat_serve --stdio).
        for (const auto& c : conns_) close_client(*c);
        conns_.clear();
        for (std::size_t i = 0; i < workers_.size(); ++i)
          close_worker_stdin(i);
        workers_stopping_ = true;
        worker_exit_deadline_ns_ =
            now + static_cast<std::uint64_t>(
                      config_.worker_exit_timeout_ms > 0
                          ? config_.worker_exit_timeout_ms
                          : 0) *
                      1'000'000ull;
      }
    } else {
      bool any_alive = false;
      for (const auto& w : workers_)
        if (w->alive) any_alive = true;
      if (!any_alive) break;
      if (now > worker_exit_deadline_ns_) {
        for (std::size_t i = 0; i < workers_.size(); ++i) kill_worker(i);
        worker_exit_deadline_ns_ = ~0ull;  // kill once; EOFs follow
      }
    }
  }

  for (const auto& c : conns_) close_client(*c);
  conns_.clear();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = *workers_[i];
    if (!w.alive) continue;
    kill_worker(i);
    worker_died(i);
  }
  reap_zombies(/*block=*/true);
}

std::string Router::next_token() {
  // Tokens are the correlation ids on the worker wire: short, strictly
  // alphanumeric (so io::json_str never escapes them and response_token
  // can scan to the bare closing quote), unique per router lifetime.
  char buf[24];
  std::snprintf(buf, sizeof buf, "t%llx",
                static_cast<unsigned long long>(token_counter_++));
  return std::string(buf);
}

}  // namespace rat::svc
