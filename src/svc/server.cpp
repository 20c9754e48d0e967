#include "svc/server.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <optional>
#include <system_error>
#include <utility>

#include "obs/metrics.hpp"
#include "svc/fdio.hpp"

namespace rat::svc {

Server::Server(Service& service, ServerConfig config)
    : service_(service),
      config_(config),
      frontend_(config_, "svc.server",
                [this](const ConnPtr& conn, std::string line) {
                  submit_line(conn, std::move(line));
                }) {
  int fds[2];
  if (!make_pipe_cloexec(fds))
    throw std::system_error(errno, std::generic_category(),
                            "svc::Server: pipe");
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
  ::close(notify_r_);
  ::close(notify_w_);
}

void Server::start() {
  if (config_.tcp) frontend_.listen();
  if (config_.stdio)
    frontend_.add_stdio(config_.stdio_in_fd, config_.stdio_out_fd);
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

void Server::event_loop() {
  std::optional<obs::ScopedTimer> shutdown_timer;
  std::vector<pollfd> pfds;
  for (;;) {
    pfds.clear();
    // While draining the front-end's timeout is short: the service's
    // in-flight count can hit zero without any fd becoming ready
    // (workers only ping the notify pipe when a response lands).
    const int timeout = frontend_.add_poll_fds(pfds);
    const std::size_t notify_idx = pfds.size();
    pfds.push_back({notify_r_, POLLIN, 0});
    if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout) < 0) {
      if (errno == EINTR) continue;
      break;
    }

    if (frontend_.dispatch(pfds)) {
      // No new requests can arrive (the front-end stopped reading, on
      // this same thread); refuse stragglers submitted directly by
      // library users.
      service_.begin_drain();
      shutdown_timer.emplace("svc.server.shutdown");
    }
    if ((pfds[notify_idx].revents & POLLIN) != 0) {
      char buf[4096];
      while (::read(notify_r_, buf, sizeof buf) > 0) {
      }
    }
    process_completions();
    frontend_.close_idle();

    // Order matters: once in_flight reads zero every respond() — and
    // therefore every enqueue — has completed, so a subsequent empty
    // completion queue really means nothing is pending anywhere.
    if (frontend_.draining() && frontend_.drain_flushed() &&
        service_.stats().in_flight == 0) {
      std::lock_guard lock(done_mu_);
      if (done_.empty()) break;
    }
  }
  // Now, and only now, tear the connections down (stdio fds 0/1 are left
  // to the process).
  frontend_.close_all();
}

void Server::submit_line(const ConnPtr& conn, std::string line) {
  ++conn->outstanding;
  // The callback holds the connection alive until the response lands,
  // even if the loop's registry let go first.
  service_.submit(line, [this, conn](std::string response) {
    enqueue_response(conn, std::move(response));
  });
}

void Server::enqueue_response(ConnPtr conn, std::string line) {
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
  std::vector<std::pair<ConnPtr, std::string>> batch;
  {
    std::lock_guard lock(done_mu_);
    batch.swap(done_);
  }
  for (auto& [conn, line] : batch) {
    if (conn->outstanding > 0) --conn->outstanding;
    frontend_.respond(conn, line);
  }
}

}  // namespace rat::svc
