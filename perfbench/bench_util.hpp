// Shared plumbing of the ratbench harness: clocks and medians, the
// metric report, the span tracer, child processes and a small blocking
// line client for the rat.svc.v1 protocol.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace ratbench {

// ---- clocks and statistics ----

std::uint64_t now_ns();
double seconds_since(std::uint64_t t0_ns);
/// CPU time of the calling thread, in seconds.
double thread_cpu_s();
double median(std::vector<double> xs);

// ---- report ----

/// One named result: the value with its unit and the number of samples
/// the value summarises (1 for a single measurement or an exact count).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// Everything one run produces: metrics in insertion order, request
/// accounting and the correctness verdict with the reason of every
/// failed check.
class Report {
 public:
  /// A metric of the result object (the benchmark's gated set).
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1);
  /// A figure printed in the report and kept in the run record but left
  /// out of the result object.
  void info(const std::string& name, double value, const std::string& unit,
            std::size_t samples = 1);

  /// Records a failed check when @p ok is false; returns @p ok.
  bool check(bool ok, const std::string& what);
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  /// Free-form provenance and per-step details for the run's JSON file.
  void note(const std::string& key, const std::string& json_value);
  /// A line for the human-readable report.
  void say(std::string line) { lines_.push_back(std::move(line)); }
  const std::vector<std::string>& lines() const { return lines_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  const std::vector<std::pair<std::string, Metric>>& metrics() const {
    return metrics_;
  }
  const std::vector<std::pair<std::string, Metric>>& infos() const {
    return infos_;
  }
  const std::vector<std::pair<std::string, std::string>>& notes() const {
    return notes_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> metrics_;
  std::vector<std::pair<std::string, Metric>> infos_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> lines_;
};

// ---- spans ----

/// In-memory span recorder for the traced run. Spans nest on one thread
/// (the harness is single-threaded apart from the layers it calls);
/// spans of one request share a trace id. Disabled tracers record
/// nothing, so untraced runs pay one branch per span site.
class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t trace = 0;   ///< request id; 0 = not request-scoped
    const char* name = "";  ///< a string literal
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t trace);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;
    bool active_ = false;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  Scope span(const char* name, std::uint64_t trace = 0) {
    return Scope(*this, name, trace);
  }
  std::uint64_t next_trace_id() { return ++trace_counter_; }

  /// Writes every span as JSON (one object per span) to @p path.
  bool write(const std::filesystem::path& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> stack_;
  std::uint64_t trace_counter_ = 0;
};

// ---- child processes ----

/// A spawned server process whose stdout is a pipe (the harness reads
/// the "listening on" line from it) and whose stderr goes to a log file.
/// The destructor terminates and reaps it, so no path leaks a process.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// fork + exec @p argv. Throws std::runtime_error on failure.
  void spawn(const std::vector<std::string>& argv,
             const std::filesystem::path& log_path,
             const std::map<std::string, std::string>& env = {});
  /// Reads stdout until a line containing "127.0.0.1:" and returns the
  /// port after it. Throws on EOF or after @p timeout_s.
  int read_port(double timeout_s);
  /// SIGTERM (graceful drain), then SIGKILL after @p timeout_s; reaps.
  /// Returns true when the process exited 0 on its own terms.
  bool stop(double timeout_s = 10.0);
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string out_buf_;
};

/// user+sys CPU seconds of @p pid (all its threads), from /proc.
double process_cpu_s(pid_t pid);

// ---- protocol client ----

/// Blocking loopback client: send lines, read newline-terminated
/// responses. Throws std::runtime_error on connection failure or EOF.
class LineClient {
 public:
  explicit LineClient(int port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void send(const std::string& data);
  std::string read_line(double timeout_s = 30.0);
  /// send(@p line + "\n") then read_line().
  std::string call(const std::string& line, double timeout_s = 30.0);

 private:
  int fd_ = -1;
  std::string buf_;
};

}  // namespace ratbench
