#include "bench_util.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace ratbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// ---- Report ----

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  for (auto& [n, m] : metrics_)
    if (n == name) {
      m = Metric{value, unit, samples};
      return;
    }
  metrics_.emplace_back(name, Metric{value, unit, samples});
}

void Report::info(const std::string& name, double value,
                  const std::string& unit, std::size_t samples) {
  infos_.emplace_back(name, Metric{value, unit, samples});
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
  return ok;
}

void Report::note(const std::string& key, const std::string& json_value) {
  notes_.emplace_back(key, json_value);
}

// ---- Tracer ----

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t trace)
    : tracer_(tracer), active_(tracer.enabled_) {
  if (!active_) return;
  Span s;
  s.id = tracer_.spans_.size() + 1;
  s.parent = tracer_.stack_.empty() ? 0 : tracer_.stack_.back();
  s.trace = trace;
  s.name = name;
  s.start_ns = now_ns();
  index_ = tracer_.spans_.size();
  tracer_.spans_.push_back(std::move(s));
  tracer_.stack_.push_back(tracer_.spans_.back().id);
}

Tracer::Scope::~Scope() {
  if (!active_) return;
  tracer_.spans_[index_].end_ns = now_ns();
  tracer_.stack_.pop_back();
}

bool Tracer::write(const std::filesystem::path& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  f << "{\"schema\":\"ratbench.spans.v1\",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) f << ",\n";
    f << "{\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"trace\":" << s.trace << ",\"name\":\"" << s.name
      << "\",\"start_ns\":" << (s.start_ns - base)
      << ",\"dur_ns\":" << (s.end_ns - s.start_ns) << "}";
  }
  f << "]}\n";
  return f.good();
}

// ---- Child ----

Child::~Child() {
  if (pid_ > 0) stop(5.0);
}

void Child::spawn(const std::vector<std::string>& argv,
                  const std::filesystem::path& log_path,
                  const std::map<std::string, std::string>& env) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe2 failed");
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    throw std::runtime_error("cannot open " + log_path.string());
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::vector<std::string> env_strings;
  for (char** e = environ; *e; ++e) {
    const std::string kv(*e);
    const std::string key = kv.substr(0, kv.find('='));
    if (!env.count(key)) env_strings.push_back(kv);
  }
  for (const auto& [k, v] : env) env_strings.push_back(k + "=" + v);
  std::vector<char*> envp;
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    ::close(log_fd);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    ::execve(args[0], args.data(), envp.data());
    ::_exit(127);
  }
  ::close(pipefd[1]);
  ::close(log_fd);
  pid_ = pid;
  out_fd_ = pipefd[0];
}

int Child::read_port(double timeout_s) {
  const std::uint64_t t0 = now_ns();
  const std::string marker = "127.0.0.1:";
  for (;;) {
    const std::size_t at = out_buf_.find(marker);
    if (at != std::string::npos) {
      const std::size_t nl = out_buf_.find_first_not_of("0123456789",
                                                         at + marker.size());
      if (nl != std::string::npos)
        return std::atoi(out_buf_.c_str() + at + marker.size());
    }
    const double left = timeout_s - seconds_since(t0);
    if (left <= 0) throw std::runtime_error("server did not announce a port");
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n <= 0) throw std::runtime_error("server exited before listening");
    out_buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Child::stop(double timeout_s) {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  const std::uint64_t t0 = now_ns();
  int status = 0;
  bool exited_cleanly = false;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      exited_cleanly = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      break;
    }
    if (r < 0) break;
    if (seconds_since(t0) > timeout_s) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    ::usleep(1000);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  pid_ = -1;
  return exited_cleanly;
}

double process_cpu_s(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line (11 and 12 after the name).
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i == 12) utime = std::atof(field.c_str());
    if (i == 13) stime = std::atof(field.c_str());
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// ---- LineClient ----

LineClient::LineClient(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  for (int attempt = 0; attempt < 200; ++attempt) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) break;
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
      return;
    ::close(fd_);
    fd_ = -1;
    ::usleep(5000);
  }
  throw std::runtime_error("cannot connect to port " + std::to_string(port));
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

void LineClient::send(const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send failed");
    off += static_cast<std::size_t>(n);
  }
}

std::string LineClient::read_line(double timeout_s) {
  const std::uint64_t t0 = now_ns();
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    const double left = timeout_s - seconds_since(t0);
    if (left <= 0) throw std::runtime_error("response timed out");
    pollfd p{fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("connection closed");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string LineClient::call(const std::string& line, double timeout_s) {
  send(line + "\n");
  return read_line(timeout_s);
}

}  // namespace ratbench
