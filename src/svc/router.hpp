// rat_router: the scale-out front-end for the prediction service.
//
// One router process speaks the existing rat.svc.v1 newline-JSON
// protocol to clients and fans the work out across N rat_serve worker
// processes it spawns and supervises itself (fork + exec, stdio pipes:
// the workers run `--stdio --no-tcp`, so a worker's whole transport is
// two pipe ends owned by the router's event loop). Each worker owns a
// fixed shard of the rat.fp.v1 fingerprint space — requests route by
// `fingerprint % n_workers` — so a given worksheet always lands on the
// worker whose in-memory result cache already holds it. A respawned
// worker starts with an empty cache.
//
// Clients reach the router through the same Frontend (svc/frontend.hpp)
// as a direct rat_serve: the same listener and accept backoff, the same
// line framing (blank and CRLF lines included), bounded write queues that
// drop slow clients, half-close and drain flush budget, counted as
// svc.router.*. The worker pipes reuse the front-end's WriteQueue and
// LineReader, and both run under the one poll(2) loop. Everything runs
// on the single loop thread — routing a request is a parse + hash, never
// an evaluation, so the router needs no thread pool.
//
// Forwarding and byte identity: the router rewrites each request's id
// to a private correlation token before forwarding and splices the
// original id back into the worker's response line. Because every
// response head is rendered by the same append_response_head emitter
// (svc/protocol.cpp), the spliced line is byte-identical to what a
// direct rat_serve would have produced — cache hit or miss, success or
// structured E_* diagnostic, E_OVERLOADED backpressure included, the
// worker's bytes pass through verbatim apart from the id slot.
//
// Supervision: a worker's death (EOF on its stdout pipe) triggers an
// immediate in-place respawn; the replacement deterministically
// inherits the dead worker's hash range, and every request that was
// in flight to the dead worker is re-forwarded to the replacement, so
// an admitted request is answered exactly once even across a kill -9
// (re-evaluation is deterministic and responses carry no hit/miss
// marker, so the retried bytes are identical). A worker that keeps
// dying without ever answering (a broken worker binary) exhausts a
// fast-death budget and its shard is abandoned with structured
// E_INTERNAL responses instead of a respawn storm.
//
// ping / stats fan out to every live worker; stats responses aggregate
// the workers' counters plus the router's own (svc.router.* in obs).
// A shutdown op — or SIGINT/SIGTERM via wake_fd(), exactly like the
// server — drains: stop accepting, stop reading, answer everything in
// flight, then close the workers' stdins so each worker runs its own
// graceful EOF drain, reap them, and exit.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/frontend.hpp"
#include "svc/protocol.hpp"

namespace rat::svc {

/// The client-facing settings (port, backlog, line and write-queue
/// bounds, accept backoff, drain flush budget) are the TransportConfig a
/// direct rat_serve uses.
struct RouterConfig : TransportConfig {
  std::size_t n_workers = 4;
  /// argv to exec one worker (typically {rat_serve, "--stdio",
  /// "--no-tcp", ...}); every worker runs the same command line.
  std::vector<std::string> worker_argv;
  /// When set, rewritten (atomically) after every spawn/respawn: one
  /// worker pid per line in shard order, for scripts that kill workers.
  std::string worker_pid_file;
  /// Per-worker bound on bytes queued toward the worker's stdin. A full
  /// worker pipe means the worker has stopped keeping up; new requests
  /// routed to it are rejected with E_OVERLOADED instead of buffering
  /// unboundedly (requests re-forwarded after a death are exempt — they
  /// were already admitted).
  std::size_t max_worker_pipe_bytes = 4u << 20;
  /// Drain: how long workers get to EOF-drain and exit after their
  /// stdins close before they are SIGKILLed so shutdown terminates.
  int worker_exit_timeout_ms = 5000;
  /// Consecutive deaths without a single response before a shard is
  /// abandoned (guards against respawn-storming a broken worker binary).
  int max_fast_deaths = 5;
};

class Router {
 public:
  /// Router counters on top of the client transport's (the svc.router.*
  /// metrics, readable without the obs registry).
  struct Stats : TransportStats {
    std::uint64_t requests = 0;        ///< client lines parsed
    std::uint64_t forwarded = 0;       ///< sub-requests sent to workers
    std::uint64_t rerouted = 0;        ///< re-forwarded after a death
    std::uint64_t worker_deaths = 0;   ///< unexpected worker EOFs
    std::uint64_t respawns = 0;        ///< replacement workers spawned
    std::uint64_t overloaded_local = 0;  ///< full worker pipe rejections
  };

  explicit Router(RouterConfig config);

  /// Stops, drains and reaps as a backstop when run() never happened.
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Spawn the workers, bind/listen, and start the event loop. Throws
  /// std::system_error when a socket, pipe or fork fails.
  void start();

  /// Bound TCP port (valid after start()).
  int port() const { return frontend_.port(); }

  /// Write end of the wake pipe for async-signal-safe stop requests,
  /// exactly as Server::wake_fd().
  int wake_fd() const { return frontend_.wake_fd(); }

  void trigger_stop() { frontend_.trigger_stop(); }

  /// Join the loop: blocks until stopped, drained, and every worker has
  /// exited (or been killed after worker_exit_timeout_ms).
  void run();

  Stats stats() const;

  /// Current worker pids in shard order (-1 for an abandoned shard).
  std::vector<pid_t> worker_pids() const;

 private:
  using ConnPtr = Frontend::ConnPtr;
  struct Worker;
  struct Pending;
  struct Fanout;

  void event_loop();
  void route_line(const ConnPtr& conn, std::string line);
  /// Send @p req to worker @p slot under a fresh token and remember it
  /// in pending_; @p fanout is null for an evaluate.
  void forward_pending(std::size_t slot, const ConnPtr& conn,
                       const Request& req, std::shared_ptr<Fanout> fanout);
  /// Broadcast a ping/stats to every live worker. With a null @p conn it
  /// is the drain-time stats sweep whose aggregate lands in the obs
  /// registry (svc.fleet.* gauges) for the --metrics export.
  void start_fanout(const ConnPtr& conn, const Request& req);
  void finish_fanout(const std::shared_ptr<Fanout>& fanout);
  /// Resolve a pending request without a worker answer: a fan-out share
  /// counts as done, an evaluate gets E_INTERNAL @p why.
  void fail_pending(Pending p, const char* why);

  bool spawn_worker(std::size_t slot);
  void forward_to(std::size_t slot, const std::string& line);
  void flush_worker(std::size_t slot);
  void handle_worker_readable(std::size_t slot);
  void handle_worker_line(std::size_t slot, std::string line);
  void worker_died(std::size_t slot);
  void abandon_worker(std::size_t slot);
  void reforward_pending(std::size_t slot);
  void close_worker_stdin(std::size_t slot);
  void kill_worker(std::size_t slot);
  void reap_zombies(bool block);
  void write_pid_file();
  std::string next_token();

  RouterConfig config_;
  Frontend frontend_;

  std::thread loop_thread_;

  // Loop-thread-only state.
  std::vector<std::unique_ptr<Worker>> workers_;
  std::map<std::string, Pending> pending_;  ///< token -> in-flight request
  std::uint64_t token_counter_ = 0;
  bool workers_stopping_ = false;  ///< drain: worker stdins closed
  bool final_stats_sent_ = false;  ///< drain-time fleet stats sweep done
  std::uint64_t worker_exit_deadline_ns_ = 0;
  std::vector<pid_t> zombies_;  ///< dead workers not yet reaped

  mutable std::mutex pids_mu_;
  std::vector<pid_t> pids_;  ///< shard-order snapshot for worker_pids()

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> rerouted_{0};
  std::atomic<std::uint64_t> worker_deaths_{0};
  std::atomic<std::uint64_t> respawns_{0};
  std::atomic<std::uint64_t> overloaded_local_{0};

  bool started_ = false;
  bool ran_ = false;
};

// ---- Routing helpers (unit-tested and benchmarked directly) ----

/// The routing key for one parsed request: the rat.fp.v1 canonical
/// fingerprint when the inline worksheet parses (so every formatting of
/// one design routes to the worker holding its cached result), the hash
/// of the raw worksheet text when it does not (the owning worker will
/// produce the structured diagnostic), and the hash of the path for
/// server-side `file` requests.
std::uint64_t route_fingerprint(const Request& req);

/// Re-encode @p req as a rat.svc.v1 line carrying @p token as its id.
/// Faithful: worksheet/file text verbatim (so the worker's diagnostics
/// and fingerprints match a direct submission), deadline and no_cache
/// preserved.
std::string encode_forward(const std::string& token, const Request& req);

/// The correlation token a worker response line carries, or empty when
/// the line does not start with the canonical response head (corrupt or
/// non-protocol output — the router drops such lines).
std::string response_token(const std::string& line);

/// @p line with its leading "id":"<token>" replaced by the original
/// client id (JSON string, or null when the client sent none) — the
/// exact bytes append_response_head would have rendered for a direct request.
std::string restore_response_id(const std::string& line,
                                const std::string& orig_id);

}  // namespace rat::svc
