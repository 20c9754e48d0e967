#include "svc/router.hpp"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

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
  LineReader in;   ///< response lines from the worker's stdout
  WriteQueue out;  ///< request lines toward the worker's stdin
};

/// One forwarded request awaiting its worker response.
struct Router::Pending {
  ConnPtr conn;
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
  ConnPtr conn;  ///< null for the drain-time sweep
  std::string orig_id;
  Request::Op op = Request::Op::kPing;
  std::size_t remaining = 0;
  // Summed worker stats (the stats op's aggregation).
  std::uint64_t requests = 0, responses_ok = 0, responses_error = 0,
                rejected_overloaded = 0, rejected_draining = 0,
                deadline_expired = 0, in_flight = 0;
  std::uint64_t hits = 0, misses = 0, evictions = 0, size = 0, bytes = 0,
                capacity = 0;
};

// ---- Lifecycle ----

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      frontend_(config_, "svc.router",
                [this](const ConnPtr& conn, std::string line) {
                  route_line(conn, std::move(line));
                }) {
  if (config_.n_workers == 0) config_.n_workers = 1;
}

Router::~Router() {
  if (started_ && !ran_) {
    // Backstop for tests/errors that never called run().
    trigger_stop();
    run();
  }
}

void Router::start() {
  if (config_.worker_argv.empty())
    throw std::invalid_argument("svc::Router: worker_argv must not be empty");
  {
    std::lock_guard lock(pids_mu_);
    pids_.assign(config_.n_workers, -1);
  }
  workers_.clear();
  for (std::size_t i = 0; i < config_.n_workers; ++i)
    workers_.push_back(std::make_unique<Worker>());
  for (std::size_t i = 0; i < config_.n_workers; ++i)
    if (!spawn_worker(i)) throw_errno("svc::Router: spawn worker");

  frontend_.listen();
  loop_thread_ = std::thread([this] { event_loop(); });
  started_ = true;
}

void Router::run() {
  if (loop_thread_.joinable()) loop_thread_.join();
  ran_ = true;
}

Router::Stats Router::stats() const {
  Stats st;
  static_cast<TransportStats&>(st) = frontend_.stats();
  st.requests = requests_.load(std::memory_order_relaxed);
  st.forwarded = forwarded_.load(std::memory_order_relaxed);
  st.rerouted = rerouted_.load(std::memory_order_relaxed);
  st.worker_deaths = worker_deaths_.load(std::memory_order_relaxed);
  st.respawns = respawns_.load(std::memory_order_relaxed);
  st.overloaded_local = overloaded_local_.load(std::memory_order_relaxed);
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
  std::vector<char*> argv;
  argv.reserve(config_.worker_argv.size() + 1);
  for (auto& a : config_.worker_argv) argv.push_back(a.data());
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
  w.in.clear();
  w.out.clear();
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
  workers_[slot]->out.push_line(line);
  flush_worker(slot);
}

void Router::flush_worker(std::size_t slot) {
  Worker& w = *workers_[slot];
  if (!w.alive || w.stdin_closed) return;
  // EPIPE: the worker died with requests still queued toward it. Death
  // handling (respawn + re-forward from the pending map) runs off the
  // stdout EOF, which is already on its way; the stale queue is dropped
  // here.
  if (w.out.flush(w.to_fd, /*is_socket=*/false) != 0) w.out.clear();
}

void Router::handle_worker_readable(std::size_t slot) {
  Worker& w = *workers_[slot];
  switch (w.in.read(w.from_fd, config_.max_line_bytes,
                    [this, slot](std::string line) {
                      handle_worker_line(slot, std::move(line));
                    })) {
    case LineReader::Status::kOk:
      return;
    case LineReader::Status::kEof:
    case LineReader::Status::kError:
      // EOF is the death signal: the worker's stdout write end only
      // closes when the process exits (or execs away every fd, which a
      // worker never does). A partial trailing line is corruption and
      // drops.
      worker_died(slot);
      return;
    case LineReader::Status::kOversize:
      // A worker emitting an unbounded non-line is broken protocol; kill
      // it and let the death path take over.
      kill_worker(slot);
      return;
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
  frontend_.respond(p.conn, restore_response_id(line, p.orig_id));
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
  w.in.clear();
  w.out.clear();
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
    fail_pending(std::move(p), "worker for this shard is unavailable");
  }
}

void Router::fail_pending(Pending p, const char* why) {
  if (p.fanout) {
    if (p.fanout->remaining > 0) --p.fanout->remaining;
    if (p.fanout->remaining == 0) finish_fanout(p.fanout);
    return;
  }
  --p.conn->outstanding;
  frontend_.respond(p.conn, internal_error_response(p.orig_id, why));
}

void Router::close_worker_stdin(std::size_t slot) {
  Worker& w = *workers_[slot];
  if (!w.alive || w.stdin_closed) return;
  // EOF on stdin is the worker's own graceful-drain trigger: it answers
  // what it admitted, flushes stdout, and exits 0.
  ::close(w.to_fd);
  w.to_fd = -1;
  w.stdin_closed = true;
  w.out.clear();
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

void Router::route_line(const ConnPtr& conn, std::string line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  obs_count("svc.router.requests");

  Request req;
  try {
    req = parse_request(line);
  } catch (const ProtocolError& e) {
    // Same renderer + same parser => the same bytes a direct worker
    // would have produced; no need to burn a round-trip on it.
    frontend_.respond(conn, error_response(e.id(), e.code(), e.what()));
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
      frontend_.respond(conn, shutdown_response(req.id));
      trigger_stop();
      return;
    case Request::Op::kEvaluate:
      break;
  }

  const std::uint64_t fp = route_fingerprint(req);
  const std::size_t slot = static_cast<std::size_t>(fp % config_.n_workers);
  Worker& w = *workers_[slot];
  if (w.abandoned) {
    frontend_.respond(conn,
                      internal_error_response(
                          req.id, "worker for this shard is unavailable"));
    return;
  }
  if (w.out.pending() > config_.max_worker_pipe_bytes) {
    // The shard owner has stopped draining its stdin: local admission
    // control, same contract as the service's bounded queue.
    overloaded_local_.fetch_add(1, std::memory_order_relaxed);
    obs_count("svc.router.overloaded_local");
    frontend_.respond(conn,
                      error_response(req.id, SvcErrorCode::kOverloaded,
                                     "worker pipe full; retry later"));
    return;
  }

  ++conn->outstanding;
  forward_pending(slot, conn, req, nullptr);
}

void Router::forward_pending(std::size_t slot, const ConnPtr& conn,
                             const Request& req,
                             std::shared_ptr<Fanout> fanout) {
  // Only client requests count as forwarded; the conn-less drain sweep
  // is the router's own.
  if (conn) {
    forwarded_.fetch_add(1, std::memory_order_relaxed);
    obs_count("svc.router.forwarded");
  }
  const std::string token = next_token();
  Pending p;
  p.conn = conn;
  p.orig_id = req.id;
  p.worker = slot;
  p.fwd_line = encode_forward(token, req);
  p.fanout = std::move(fanout);
  const std::string& fwd = pending_.emplace(token, std::move(p))
                               .first->second.fwd_line;
  forward_to(slot, fwd);
}

void Router::start_fanout(const ConnPtr& conn, const Request& req) {
  // A conn-less fanout rides the same Pending map as a client's, so drain
  // phase 1's "pending_ empty" gate waits for its answers before worker
  // stdins close (and the flush-deadline backstop cancels them the same
  // way if a worker hangs).
  auto fanout = std::make_shared<Fanout>();
  fanout->conn = conn;
  fanout->orig_id = req.id;
  fanout->op = req.op;
  if (conn) ++conn->outstanding;
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    Worker& w = *workers_[slot];
    if (!w.alive || w.abandoned || w.stdin_closed) continue;
    ++fanout->remaining;
    forward_pending(slot, conn, req, fanout);
  }
  if (fanout->remaining == 0) finish_fanout(fanout);
}

void Router::finish_fanout(const std::shared_ptr<Fanout>& fanout) {
  Fanout& f = *fanout;
  if (!f.conn) {
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
    std::size_t alive = 0;
    for (const auto& w : workers_)
      if (w->alive && !w->abandoned) ++alive;
    r.set_gauge("svc.fleet.workers_alive", static_cast<double>(alive));
    return;
  }
  --f.conn->outstanding;
  if (f.op == Request::Op::kPing) {
    frontend_.respond(f.conn, pong_response(f.orig_id));
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
  field("}},\"router\":{\"workers\":", config_.n_workers);
  field(",\"alive\":", alive);
  auto counter = [&field](std::string_view key,
                          const std::atomic<std::uint64_t>& c) {
    field(key, c.load(std::memory_order_relaxed));
  };
  const TransportStats ts = frontend_.stats();
  field(",\"connections\":", ts.connections);
  counter(",\"requests\":", requests_);
  counter(",\"forwarded\":", forwarded_);
  counter(",\"rerouted\":", rerouted_);
  counter(",\"worker_deaths\":", worker_deaths_);
  counter(",\"respawns\":", respawns_);
  counter(",\"overloaded_local\":", overloaded_local_);
  field(",\"slow_clients_dropped\":", ts.slow_clients_dropped);
  field(",\"responses_dropped\":", ts.responses_dropped);
  field(",\"accept_failures\":", ts.accept_failures);
  out += "}}";
  frontend_.respond(f.conn, out);
}

// ---- Event loop ----

void Router::event_loop() {
  std::optional<obs::ScopedTimer> shutdown_timer;
  struct Slot {
    bool to_worker;  ///< POLLOUT on its stdin pipe, else POLLIN on stdout
    std::size_t worker;
  };
  std::vector<pollfd> pfds;
  std::vector<Slot> slots;  // pfds[fixed+i] -> slots[i]

  for (;;) {
    reap_zombies(false);

    pfds.clear();
    slots.clear();
    const int timeout = frontend_.add_poll_fds(pfds);
    const std::size_t fixed = pfds.size();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const Worker& w = *workers_[i];
      if (!w.alive) continue;
      pfds.push_back({w.from_fd, POLLIN, 0});
      slots.push_back({false, i});
      if (!w.stdin_closed && w.out.pending() > 0) {
        pfds.push_back({w.to_fd, POLLOUT, 0});
        slots.push_back({true, i});
      }
    }

    if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout) < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable; bail out
    }

    if (frontend_.dispatch(pfds))
      shutdown_timer.emplace("svc.router.shutdown");
    for (std::size_t i = fixed; i < pfds.size(); ++i) {
      const Slot& slot = slots[i - fixed];
      const short rev = pfds[i].revents;
      if (rev == 0 || !workers_[slot.worker]->alive) continue;
      if (slot.to_worker && (rev & (POLLOUT | POLLHUP | POLLERR)) != 0)
        flush_worker(slot.worker);
      else if (!slot.to_worker && (rev & (POLLIN | POLLHUP | POLLERR)) != 0)
        handle_worker_readable(slot.worker);
    }
    frontend_.close_idle();

    if (!frontend_.draining()) continue;

    const std::uint64_t now = obs::now_ns();
    if (!workers_stopping_) {
      // Drain phase 1: answer everything admitted, flush every client.
      if (!final_stats_sent_) {
        final_stats_sent_ = true;
        if (obs::enabled()) {
          Request sweep;
          sweep.op = Request::Op::kStats;
          start_fanout(nullptr, sweep);
        }
      }
      if (frontend_.flush_expired()) {
        // Budget exhausted. Whatever a worker still owes is answered
        // with a structured error (a hung worker must not hang
        // shutdown); the front-end then drops whoever is not reading.
        std::map<std::string, Pending> owed;
        owed.swap(pending_);
        for (auto& [token, p] : owed)
          fail_pending(std::move(p),
                       "router shut down before the worker answered");
      }
      if (frontend_.drain_flushed() && pending_.empty()) {
        // Phase 2: the fleet winds down. Closing a worker's stdin is its
        // graceful-drain trigger (mirrors piping into rat_serve --stdio).
        frontend_.close_all();
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

  frontend_.close_all();
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
