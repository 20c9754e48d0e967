// Transport for the prediction service: newline-delimited JSON over
// stdio and/or a loopback TCP listener, served by one readiness-driven
// event loop.
//
// The client side — listener, accept backoff, line framing, bounded
// write queues, half-close, the drain's flush budget and the
// svc.server.* transport counters — is the shared Frontend
// (svc/frontend.hpp), the same code rat_router's clients go through.
// The Server adds what is its own: request lines are handed to the
// Service; evaluations run on the shared ThreadPool, and completed
// responses are handed back to the loop through a notify pipe — worker
// threads never touch sockets, so a response is never lost to a racing
// connection teardown and a blocked send can never stall a worker.
//
// Lifecycle:
//
//   start()  bind 127.0.0.1:<port> (port 0 = ephemeral; port() tells
//            you what was bound), register the stdio connection when
//            configured, and spawn the event loop;
//   run()    join the loop. The loop exits only after a stop trigger,
//            then drains gracefully:
//            1. stop accepting and stop reading (connections stay open),
//            2. service.begin_drain() — late arrivals get
//               E_SHUTTING_DOWN,
//            3. every admitted request's response is flushed through the
//               still-open connections; clients that refuse to read get
//               drain_flush_timeout_ms before being dropped as slow,
//            4. sockets close, the loop thread exits.
//
// Stop triggers: trigger_stop() from any thread, a shutdown op (the
// server installs itself as the Service's shutdown handler), stdin EOF
// in stdio mode, or a signal handler writing one byte to wake_fd().
// rat_serve wires SIGINT/SIGTERM to exactly that.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "svc/frontend.hpp"
#include "svc/service.hpp"

namespace rat::svc {

struct ServerConfig : TransportConfig {
  bool tcp = true;     ///< listen on loopback TCP (TransportConfig::port)
  bool stdio = false;  ///< also serve stdin -> stdout
  /// The fds served in stdio mode (defaults: the process's stdin and
  /// stdout). Tests point these at pipes to exercise stdio lifecycle —
  /// reader-gone EPIPE, EOF drain — without touching the real fds 0/1.
  int stdio_in_fd = 0;
  int stdio_out_fd = 1;
};

class Server {
 public:
  /// Transport counters (the svc.server.* metrics).
  using Stats = TransportStats;

  Server(Service& service, ServerConfig config);

  /// Joins the loop; trigger_stop() + run() must have completed (the
  /// destructor stops and joins as a backstop).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind/listen and spawn the event loop. Throws std::system_error when
  /// the socket cannot be bound.
  void start();

  /// Bound TCP port (valid after start() when config.tcp).
  int port() const { return frontend_.port(); }

  /// Write end of the wake pipe, for async-signal-safe stop requests:
  /// a signal handler may write(wake_fd(), "x", 1).
  int wake_fd() const { return frontend_.wake_fd(); }

  /// Request stop from normal (non-signal) context.
  void trigger_stop() { frontend_.trigger_stop(); }

  /// Block until stopped and fully drained (see file comment).
  void run();

  Stats stats() const { return frontend_.stats(); }

 private:
  using ConnPtr = Frontend::ConnPtr;

  void event_loop();
  void submit_line(const ConnPtr& conn, std::string line);
  /// Any-thread handoff of a finished response line into the loop.
  void enqueue_response(ConnPtr conn, std::string line);
  void process_completions();

  Service& service_;
  ServerConfig config_;
  Frontend frontend_;

  int notify_r_ = -1;  ///< completion handoff: workers ping the loop
  int notify_w_ = -1;

  std::thread loop_thread_;

  // Completed responses, handed from any thread to the loop.
  std::mutex done_mu_;
  std::vector<std::pair<ConnPtr, std::string>> done_;

  bool started_ = false;
  bool ran_ = false;
};

}  // namespace rat::svc
