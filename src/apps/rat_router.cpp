// rat_router — fingerprint-sharded front-end for rat_serve fleets.
//
// Speaks the same rat.svc.v1 newline-JSON protocol as rat_serve
// (docs/SERVICE.md) on a loopback TCP listener, but evaluates nothing
// itself: it spawns N rat_serve worker processes (--stdio --no-tcp,
// supervised over stdin/stdout pipes) and sends every evaluate request
// to worker fp % N, where fp is its rat.fp.v1 worksheet fingerprint —
// so each distinct design is evaluated and cached exactly once across
// the fleet, in the owning worker's in-memory result cache. (Plain
// modulo, not consistent hashing: a different N moves most designs to
// another shard.) Workers that die are respawned in
// place and their in-flight requests re-forwarded; ping/stats fan out
// and aggregate. Responses are byte-identical to a direct rat_serve.
//
// Usage:
//   rat_router [--workers=N]         worker processes (default 4)
//              [--port=N]            loopback TCP port (default 0 =
//                                    ephemeral; announced on stdout)
//              [--port-file=<path>]  write the bound port, for scripts
//              [--worker-bin=<path>] worker executable (default: the
//                                    rat_serve next to this binary, or
//                                    $PATH when argv[0] has no slash)
//              [--worker-pid-file=<path>]
//                                    rewritten after every (re)spawn:
//                                    one pid per line in shard order
//              [--cache-capacity=N]  forwarded to each worker
//              [--queue-capacity=N]  forwarded to each worker
//              [--deadline-ms=X]     forwarded to each worker
//              [--threads=N]         forwarded to each worker
//              [--backlog=N]         listen(2) backlog (default 64)
//              [--write-buffer-bytes=N]
//                                    per-client bound on unsent response
//                                    bytes (default 4 MiB)
//              [--worker-buffer-bytes=N]
//                                    per-worker bound on queued request
//                                    bytes; beyond it the shard answers
//                                    E_OVERLOADED locally (default 4 MiB)
//              [--so-sndbuf=N]       SO_SNDBUF for client sockets
//              [--metrics=<path>]    rat.metrics.v1 JSON on exit
//
// Graceful shutdown: SIGINT/SIGTERM (or a {"op":"shutdown"} request)
// stop accepting, answer every admitted request, close the workers'
// stdins so each drains and exits cleanly, reap them, exit 0.
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/router.hpp"
#include "util/cli.hpp"

namespace {

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s [--workers=N] [--port=N] [--port-file=<path>] "
               "[--worker-bin=<path>] [--worker-pid-file=<path>] "
               "[--cache-capacity=N] [--queue-capacity=N] "
               "[--deadline-ms=X] [--threads=N] [--backlog=N] "
               "[--write-buffer-bytes=N] [--worker-buffer-bytes=N] "
               "[--so-sndbuf=N] [--metrics=<path>]\n",
               program);
  return 1;
}

// Stop plumbing: the handler may only do async-signal-safe work, so it
// writes one byte to the router's wake pipe and nothing else.
int g_wake_fd = -1;

void on_stop_signal(int) {
  if (g_wake_fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] ssize_t n = ::write(g_wake_fd, &byte, 1);
  }
}

/// Default worker binary: the rat_serve sitting next to this executable
/// (the normal build-tree layout); a bare name falls back to $PATH via
/// execvp.
std::string sibling_rat_serve(const char* argv0) {
  const std::string self(argv0 ? argv0 : "");
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "rat_serve";
  return self.substr(0, slash + 1) + "rat_serve";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rat;
  const util::Cli cli(argc, argv);

  static const std::vector<std::string> known{
      "workers", "port", "port-file", "worker-bin", "worker-pid-file",
      "cache-capacity", "queue-capacity", "deadline-ms", "threads",
      "backlog", "write-buffer-bytes", "worker-buffer-bytes", "so-sndbuf",
      "metrics", "help"};
  for (const std::string& k : cli.keys()) {
    bool ok = false;
    for (const std::string& kn : known) ok |= (k == kn);
    if (!ok) {
      std::fprintf(stderr, "rat_router: unknown flag --%s\n", k.c_str());
      return usage(argv[0]);
    }
  }
  if (cli.has("help")) return usage(argv[0]);
  if (!cli.positional().empty()) {
    std::fprintf(stderr, "rat_router: unexpected positional argument\n");
    return usage(argv[0]);
  }

  svc::RouterConfig cfg;
  try {
    cfg.n_workers = cli.get_size_t("workers", 4, 1, 256);
    cfg.port = static_cast<int>(cli.get_size_t("port", 0, 0, 65535));
    const long long backlog = cli.get_int("backlog", cfg.backlog);
    if (backlog < 1 || backlog > 65535)
      throw std::invalid_argument("Cli: --backlog outside [1, 65535]");
    cfg.backlog = static_cast<int>(backlog);
    cfg.max_write_buffer_bytes = cli.get_size_t(
        "write-buffer-bytes", cfg.max_write_buffer_bytes, 1);
    cfg.max_worker_pipe_bytes = cli.get_size_t(
        "worker-buffer-bytes", cfg.max_worker_pipe_bytes, 1);
    cfg.so_sndbuf = static_cast<int>(
        cli.get_size_t("so-sndbuf", 0, 0, std::size_t{1} << 30));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rat_router: %s\n", e.what());
    return usage(argv[0]);
  }
  cfg.worker_pid_file = cli.get_or("worker-pid-file", "");

  // Worker command line: the stdio transport plus whichever service
  // flags the operator wants the whole fleet to share.
  cfg.worker_argv = {cli.get_or("worker-bin", sibling_rat_serve(argv[0])),
                     "--stdio", "--no-tcp"};
  for (const char* fwd :
       {"cache-capacity", "queue-capacity", "threads", "deadline-ms"}) {
    if (!cli.has(fwd)) continue;
    const auto value = cli.get(fwd);
    if (!value || value->empty()) {
      std::fprintf(stderr, "rat_router: --%s needs a value\n", fwd);
      return usage(argv[0]);
    }
    cfg.worker_argv.push_back(std::string("--") + fwd + "=" + *value);
  }

  std::string metrics_path = cli.get_or("metrics", "");
  if (cli.has("metrics") && metrics_path.empty()) {
    std::fprintf(stderr, "rat_router: --metrics needs a path\n");
    return usage(argv[0]);
  }
  if (metrics_path.empty())
    if (const char* env = obs::env_metrics_path()) metrics_path = env;
  if (!metrics_path.empty()) obs::set_enabled(true);

  svc::Router router(cfg);
  try {
    router.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rat_router: %s\n", e.what());
    return 1;
  }

  g_wake_fd = router.wake_fd();
  struct sigaction sa{};
  sa.sa_handler = on_stop_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::printf("rat_router: listening on 127.0.0.1:%d (%zu workers)\n",
              router.port(), cfg.n_workers);
  std::fflush(stdout);
  if (cli.has("port-file")) {
    std::ofstream f(cli.get("port-file").value());
    if (f) {
      f << router.port() << '\n';
    } else {
      std::fprintf(stderr, "rat_router: cannot write port file\n");
      return 1;
    }
  }

  router.run();  // blocks until SIGINT/SIGTERM/shutdown op, then drains

  const svc::Router::Stats st = router.stats();
  std::fprintf(stderr,
               "rat_router: drained: %llu requests, %llu forwarded "
               "(%llu rerouted), %llu worker death(s), %llu respawn(s)\n",
               static_cast<unsigned long long>(st.requests),
               static_cast<unsigned long long>(st.forwarded),
               static_cast<unsigned long long>(st.rerouted),
               static_cast<unsigned long long>(st.worker_deaths),
               static_cast<unsigned long long>(st.respawns));

  if (!metrics_path.empty()) {
    if (!obs::write_metrics_file(metrics_path)) return 1;
    std::fprintf(stderr, "metrics (%s):\n%s", metrics_path.c_str(),
                 obs::summary_table().c_str());
  }
  return 0;
}
