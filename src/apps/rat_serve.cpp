// rat_serve — long-running RAT prediction service.
//
// Serves rat.svc.v1 newline-delimited JSON requests (docs/SERVICE.md)
// over a loopback TCP listener and, with --stdio, over stdin/stdout.
// Worksheets are validated by the strict parser, evaluated on the
// shared thread pool, and memoized in a sharded LRU keyed by canonical
// worksheet fingerprint, so iterative design-space drivers pay for each
// distinct design once.
//
// Usage:
//   rat_serve [--port=N]            loopback TCP port (default 0 =
//                                   ephemeral; the bound port is
//                                   announced on stdout and via
//                                   --port-file)
//             [--port-file=<path>]  write the bound port, for scripts
//             [--stdio]             also serve stdin -> stdout
//             [--no-tcp]            stdio only (requires --stdio)
//             [--threads=N]         worker threads (sets RAT_THREADS
//                                   before the pool exists; 0 = auto)
//             [--cache-capacity=N]  result-cache entries (default 1024,
//                                   0 disables caching)
//             [--queue-capacity=N]  admission limit: max queued+running
//                                   evaluations (default 256); excess
//                                   requests get E_OVERLOADED
//             [--deadline-ms=X]     default per-request deadline
//                                   (default 0 = none)
//             [--backlog=N]         listen(2) backlog (default 64)
//             [--write-buffer-bytes=N]
//                                   per-connection bound on unsent
//                                   response bytes (default 4 MiB);
//                                   clients that exceed it are dropped
//                                   as slow instead of blocking others
//             [--so-sndbuf=N]       SO_SNDBUF for accepted sockets
//                                   (default 0 = OS default)
//             [--metrics=<path>]    rat.metrics.v1 JSON on exit
//                                   (RAT_METRICS env is the fallback);
//                                   summary table on stderr
//
// Graceful shutdown: SIGINT/SIGTERM (or a {"op":"shutdown"} request)
// stop accepting, drain every admitted request, flush --metrics, exit 0.
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s [--port=N] [--port-file=<path>] [--stdio] "
               "[--no-tcp] [--threads=N] [--cache-capacity=N] "
               "[--queue-capacity=N] [--deadline-ms=X] [--backlog=N] "
               "[--write-buffer-bytes=N] [--so-sndbuf=N] "
               "[--metrics=<path>]\n",
               program);
  return 1;
}

// Stop plumbing: the handler may only do async-signal-safe work, so it
// writes one byte to the server's wake pipe and nothing else.
int g_wake_fd = -1;

void on_stop_signal(int) {
  if (g_wake_fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] ssize_t n = ::write(g_wake_fd, &byte, 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rat;
  const util::Cli cli(argc, argv);

  static const std::vector<std::string> known{
      "port", "port-file", "stdio", "no-tcp", "threads", "cache-capacity",
      "queue-capacity", "deadline-ms", "backlog", "write-buffer-bytes",
      "so-sndbuf", "metrics", "help"};
  for (const std::string& k : cli.keys()) {
    bool ok = false;
    for (const std::string& kn : known) ok |= (k == kn);
    if (!ok) {
      std::fprintf(stderr, "rat_serve: unknown flag --%s\n", k.c_str());
      return usage(argv[0]);
    }
  }
  if (cli.has("help")) return usage(argv[0]);
  if (!cli.positional().empty()) {
    std::fprintf(stderr, "rat_serve: unexpected positional argument\n");
    return usage(argv[0]);
  }

  svc::ServiceConfig svc_cfg;
  svc::ServerConfig srv_cfg;
  std::size_t n_threads = 0;
  try {
    srv_cfg.port = static_cast<int>(cli.get_size_t("port", 0, 0, 65535));
    n_threads = cli.get_size_t("threads", 0, 0, 256);
    svc_cfg.cache_capacity =
        cli.get_size_t("cache-capacity", svc_cfg.cache_capacity);
    svc_cfg.queue_capacity =
        cli.get_size_t("queue-capacity", svc_cfg.queue_capacity, 1);
    const long long backlog = cli.get_int("backlog", srv_cfg.backlog);
    if (backlog < 1 || backlog > 65535)
      throw std::invalid_argument("Cli: --backlog outside [1, 65535]");
    srv_cfg.backlog = static_cast<int>(backlog);
    srv_cfg.max_write_buffer_bytes = cli.get_size_t(
        "write-buffer-bytes", srv_cfg.max_write_buffer_bytes, 1);
    srv_cfg.so_sndbuf = static_cast<int>(
        cli.get_size_t("so-sndbuf", 0, 0, std::size_t{1} << 30));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rat_serve: %s\n", e.what());
    return usage(argv[0]);
  }
  svc_cfg.default_deadline_ms = cli.get_double("deadline-ms", 0.0);
  if (!std::isfinite(svc_cfg.default_deadline_ms) ||
      svc_cfg.default_deadline_ms < 0.0) {
    std::fprintf(stderr, "rat_serve: --deadline-ms must be finite and >= 0\n");
    return usage(argv[0]);
  }
  srv_cfg.stdio = cli.has("stdio");
  srv_cfg.tcp = !cli.has("no-tcp");
  if (!srv_cfg.tcp && !srv_cfg.stdio) {
    std::fprintf(stderr, "rat_serve: --no-tcp requires --stdio\n");
    return usage(argv[0]);
  }

  // The shared pool sizes itself from RAT_THREADS on first use; export
  // the flag before anything touches the pool.
  if (n_threads > 0)
    ::setenv("RAT_THREADS", std::to_string(n_threads).c_str(), 1);

  std::string metrics_path = cli.get_or("metrics", "");
  if (cli.has("metrics") && metrics_path.empty()) {
    std::fprintf(stderr, "rat_serve: --metrics needs a path\n");
    return usage(argv[0]);
  }
  if (metrics_path.empty())
    if (const char* env = obs::env_metrics_path()) metrics_path = env;
  if (!metrics_path.empty()) obs::set_enabled(true);

  svc::Service service(svc_cfg);
  svc::Server server(service, srv_cfg);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rat_serve: %s\n", e.what());
    return 1;
  }

  g_wake_fd = server.wake_fd();
  struct sigaction sa{};
  sa.sa_handler = on_stop_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  if (srv_cfg.tcp) {
    // Announced on stdout (and flushed) so scripts can scrape the
    // ephemeral port; --port-file is the race-free variant.
    std::printf("rat_serve: listening on 127.0.0.1:%d\n", server.port());
    std::fflush(stdout);
    if (cli.has("port-file")) {
      std::ofstream f(cli.get("port-file").value());
      if (f) {
        f << server.port() << '\n';
      } else {
        std::fprintf(stderr, "rat_serve: cannot write port file\n");
        return 1;
      }
    }
  }
  if (srv_cfg.stdio)
    std::fprintf(stderr, "rat_serve: serving stdin/stdout\n");

  server.run();  // blocks until SIGINT/SIGTERM/shutdown op, then drains

  const svc::Service::Stats st = service.stats();
  std::fprintf(stderr,
               "rat_serve: drained: %llu requests (%llu ok, %llu error), "
               "cache %llu hit / %llu miss / %llu evicted\n",
               static_cast<unsigned long long>(st.requests),
               static_cast<unsigned long long>(st.responses_ok),
               static_cast<unsigned long long>(st.responses_error),
               static_cast<unsigned long long>(st.cache.hits),
               static_cast<unsigned long long>(st.cache.misses),
               static_cast<unsigned long long>(st.cache.evictions));

  if (!metrics_path.empty()) {
    // Quiesce the pool so no worker's trailing counters miss the export.
    if (util::ThreadPool* pool = util::ThreadPool::shared_if_created())
      pool->wait_idle();
    if (!obs::write_metrics_file(metrics_path)) return 1;
    std::fprintf(stderr, "metrics (%s):\n%s", metrics_path.c_str(),
                 obs::summary_table().c_str());
  }
  return 0;
}
