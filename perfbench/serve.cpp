// The serving phase: drives the real rat_serve / rat_router binaries over
// loopback TCP with one open-loop generator thread (load::run_step) and
// measures what a client sees at two fixed rates and on a capacity
// ladder, then verifies responses byte for byte against the in-process
// request path.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "harness.hpp"
#include "io/json.hpp"
#include "load/mix.hpp"
#include "load/runner.hpp"
#include "load/schedule.hpp"
#include "util/rng.hpp"

namespace ratbench {

namespace {

using namespace rat;
namespace fs = std::filesystem;

/// The fixed rates the result object's requests are sent at. The server
/// keeps its default --queue-capacity of 256, and the open-loop generator
/// catches up after a stall of the host (60-130 ms are seen on a shared
/// VM) with one burst of every overdue request: above 2000 req/s such a
/// burst can pass 256 and end in E_OVERLOADED rejections. At 8000 req/s
/// that happened in 8 of 129 runs; at 2000 req/s in none of about 130.
/// Higher rates are offered by the capacity ladder, whose failures are
/// counted apart.
constexpr double kLightRate = 1000.0;
constexpr double kBusyRate = 2000.0;
constexpr double kP99LimitMs = 10.0;
constexpr double kAchievedFloor = 0.95;
constexpr std::size_t kConnections = 4;
/// Spawns timed for setup_s: half before the measurement, half after.
constexpr int kSetupSpawns = 6;
/// Capacity ladder: rung k offers round(1000 * 2^(k/10)) req/s, so
/// neighbouring rungs are 7.2% apart. The ladder starts at rung 30.
constexpr int kStartRung = 30;  // 8000 req/s
constexpr int kMinRung = 10;  // 2000 req/s
constexpr int kMaxRung = 60;  // 64000 req/s
constexpr int kGallop = 3;
constexpr int kMaxLadderSteps = 12;
/// load::run_step polls with a zero timeout between sends less than 1 ms
/// apart, so at every rate used here the generator thread stays on its
/// core for the whole send window. Off-CPU time above this share of the
/// window means it was descheduled and sent late: the step is invalid.
constexpr double kGeneratorOffCpuLimit = 0.1;

/// Phase lengths as shares of the run's measuring time.
constexpr double kWarmShare = 0.05;
constexpr double kLightShare = 0.4;
constexpr double kBusyShare = 0.25;
constexpr double kRungShare = 0.06;  // traced runs only

const ServeSpec kSpecs[] = {
    {"serve_unique", 0.0, false},
    {"serve_repeat", 1.0, false},
    {"serve_routed", 0.5, true},
};

double rung_rate(int k) { return std::round(1000.0 * std::pow(2.0, k / 10.0)); }

std::size_t pool_threads(const Env& env) {
  // The server's event loop and the generator thread take one core each.
  return env.nproc > 3 ? env.nproc - 2 : 1;
}

/// One running system under test: a rat_serve, or a rat_router with two
/// single-threaded rat_serve stdio workers.
class System {
 public:
  System(const Env& env, bool routed, std::string tag, bool traced)
      : env_(env), routed_(routed), tag_(std::move(tag)), traced_(traced) {}

  /// Spawns the system and returns the seconds from spawn to the first
  /// answered ping.
  double start() {
    const fs::path dir = env_.out_dir;
    metrics_path_ = dir / ("metrics-" + tag_ + ".json");
    pid_file_ = dir / ("workers-" + tag_ + ".pids");
    worker_metrics_dir_ = dir / ("worker-metrics-" + tag_);
    fs::remove(metrics_path_);
    std::vector<std::string> argv;
    if (routed_) {
      argv = {(env_.bin_dir / "rat_router").string(), "--workers=2",
              "--threads=1", "--port=0",
              "--worker-pid-file=" + pid_file_.string()};
      if (traced_) {
        // Each worker writes its own rat.metrics.v1 file: the worker
        // binary is a wrapper that adds a per-pid --metrics flag.
        fs::remove_all(worker_metrics_dir_);
        fs::create_directories(worker_metrics_dir_);
        const fs::path wrapper = dir / ("worker-" + tag_ + ".sh");
        std::ofstream w(wrapper);
        w << "#!/bin/sh\nexec '" << (env_.bin_dir / "rat_serve").string()
          << "' \"$@\" '--metrics=" << worker_metrics_dir_.string()
          << "/worker-'$$'.json'\n";
        w.close();
        ::chmod(wrapper.c_str(), 0755);
        argv.push_back("--worker-bin=" + wrapper.string());
      }
    } else {
      argv = {(env_.bin_dir / "rat_serve").string(),
              "--threads=" + std::to_string(pool_threads(env_)), "--port=0"};
    }
    if (traced_) argv.push_back("--metrics=" + metrics_path_.string());
    const std::uint64_t t0 = now_ns();
    child_.spawn(argv, dir / ("server-" + tag_ + ".log"));
    port_ = child_.read_port(30.0);
    LineClient client(port_);
    const std::string pong = client.call("{\"id\":\"setup\",\"op\":\"ping\"}");
    const double setup_s = seconds_since(t0);
    if (pong.find("\"status\":\"ok\"") == std::string::npos)
      throw std::runtime_error("ping failed: " + pong);
    return setup_s;
  }

  /// Graceful stop (drain, flush --metrics); true on a clean exit.
  bool stop() { return child_.stop(30.0); }

  int port() const { return port_; }
  bool routed() const { return routed_; }

  /// user+sys CPU of the whole process tree (router plus workers).
  double cpu_s() const {
    double total = process_cpu_s(child_.pid());
    if (routed_) {
      std::ifstream f(pid_file_);
      long pid = 0;
      while (f >> pid)
        if (pid > 0) total += process_cpu_s(static_cast<pid_t>(pid));
    }
    return total;
  }

  std::string call(const std::string& line) {
    LineClient client(port_);
    return client.call(line);
  }

  const fs::path& metrics_path() const { return metrics_path_; }
  const fs::path& worker_metrics_dir() const { return worker_metrics_dir_; }

 private:
  const Env& env_;
  bool routed_;
  std::string tag_;
  bool traced_;
  Child child_;
  int port_ = 0;
  fs::path metrics_path_, pid_file_, worker_metrics_dir_;
};

/// One open-loop step with the generator's own health figures.
struct Step {
  std::string label;
  load::StepResult r;
  std::size_t requests = 0;
  double span_s = 0.0;        ///< first to last scheduled send
  double client_cpu_s = 0.0;  ///< generator thread CPU during the step
  double server_cpu_s = 0.0;  ///< process-tree CPU during the step

  double ms(double pct) const { return r.latency.percentile(pct) / 1e6; }
  double achieved_ratio() const {
    return r.offered_rate_hz > 0 ? r.achieved_rate_hz / r.offered_rate_hz
                                 : 0.0;
  }
  double overrun_ms() const { return (r.duration_sec - span_s) * 1e3; }
  bool generator_behind() const {
    return span_s - client_cpu_s > kGeneratorOffCpuLimit * span_s;
  }
  bool failures() const {
    return r.errors + r.lost + r.connection_drops > 0 || r.timed_out;
  }
  /// The capacity condition: p99 within the limit, nothing failed, the
  /// achieved rate keeps up, and the generator was not the bottleneck.
  bool passes() const {
    return !generator_behind() && !failures() && ms(99.0) <= kP99LimitMs &&
           achieved_ratio() >= kAchievedFloor;
  }
  std::string json() const {
    std::ostringstream os;
    os << "{\"label\":\"" << label << "\",\"offered\":"
       << io::json_number(r.offered_rate_hz)
       << ",\"achieved_ratio\":" << io::json_number(achieved_ratio())
       << ",\"requests\":" << requests << ",\"ok\":" << r.ok
       << ",\"errors\":" << r.errors << ",\"lost\":" << r.lost
       << ",\"drops\":" << r.connection_drops << ",\"p50_ms\":"
       << io::json_number(ms(50.0)) << ",\"p99_ms\":"
       << io::json_number(ms(99.0)) << ",\"max_ms\":"
       << io::json_number(static_cast<double>(r.latency.max()) / 1e6)
       << ",\"overrun_ms\":" << io::json_number(overrun_ms())
       << ",\"client_cpu_s\":" << io::json_number(client_cpu_s)
       << ",\"server_cpu_s\":" << io::json_number(server_cpu_s)
       << ",\"valid\":" << (generator_behind() ? "false" : "true")
       << ",\"passes\":" << (passes() ? "true" : "false") << "}";
    return os.str();
  }
};

/// Request accounting across the steps of one phase.
struct Tally {
  std::uint64_t attempted = 0, failed = 0, ok = 0, errors = 0, lost = 0,
                drops = 0;
  std::map<std::string, std::uint64_t> codes;
  std::vector<std::string> steps;

  void add(const Step& s, Report& report) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "step %-14s %7.0f/s ok %6llu err %4llu lost %3llu  "
                  "p50 %7.3f ms  p99 %7.3f ms  achieved %.3f  overrun "
                  "%6.1f ms  client cpu %.2f s%s%s",
                  s.label.c_str(), s.r.offered_rate_hz,
                  static_cast<unsigned long long>(s.r.ok),
                  static_cast<unsigned long long>(s.r.errors),
                  static_cast<unsigned long long>(s.r.lost), s.ms(50.0),
                  s.ms(99.0), s.achieved_ratio(), s.overrun_ms(),
                  s.client_cpu_s, s.passes() ? "  pass" : "",
                  s.generator_behind() ? "  INVALID (generator behind)" : "");
    report.say(line);
    attempted += s.requests;
    failed += s.r.errors + s.r.lost;
    ok += s.r.ok;
    errors += s.r.errors;
    lost += s.r.lost;
    drops += s.r.connection_drops;
    for (const auto& [code, n] : s.r.error_codes) codes[code] += n;
    steps.push_back(s.json());
  }
  /// "attempted N ok N failed N (E_X n, ...) lost N drops N".
  std::string summary() const {
    std::string out = "attempted " + std::to_string(attempted) + " ok " +
                      std::to_string(ok) + " failed " + std::to_string(failed);
    if (!codes.empty()) {
      out += " (";
      for (const auto& [code, n] : codes)
        out += (out.back() == '(' ? "" : ", ") + code + " " + std::to_string(n);
      out += ")";
    }
    return out + " lost " + std::to_string(lost) + " drops " +
           std::to_string(drops);
  }
  std::string json() const {
    std::ostringstream os;
    os << "{\"attempted\":" << attempted << ",\"ok\":" << ok
       << ",\"failed\":" << failed << ",\"errors\":" << errors
       << ",\"lost\":" << lost << ",\"connection_drops\":" << drops
       << ",\"error_codes\":{";
    bool first = true;
    for (const auto& [code, n] : codes) {
      os << (first ? "" : ",") << io::json_str(code) << ":" << n;
      first = false;
    }
    os << "},\"steps\":[";
    for (std::size_t i = 0; i < steps.size(); ++i)
      os << (i ? "," : "") << steps[i];
    os << "]}";
    return os.str();
  }
};

load::Mix make_mix(const Env& env) {
  load::Mix mix;
  for (const char* name : {"md.rat", "pdf1d.rat", "pdf2d.rat"}) {
    std::ifstream f(env.fixtures_dir / name);
    if (!f) throw std::runtime_error("missing fixture " + std::string(name));
    std::ostringstream text;
    text << f.rdbuf();
    mix.add(name, text.str());
  }
  return mix;
}

/// Request lines exactly as load::run_step renders them.
std::vector<std::string> make_lines(load::Mix& mix, double dup,
                                    std::uint64_t seed, std::size_t n,
                                    const std::string& id_prefix) {
  util::Rng rng(seed);
  std::vector<std::string> lines;
  lines.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    lines.push_back("{\"id\":\"" + id_prefix + std::to_string(i) +
                    "\",\"op\":\"evaluate\",\"worksheet\":" +
                    io::json_str(mix.next(rng, dup)) + "}");
  return lines;
}

class ServeRun {
 public:
  ServeRun(const Env& env, const ServeSpec& spec, Report& report,
           Tracer& tracer, const std::function<void()>& interlude)
      : env_(env), spec_(spec), report_(report), tracer_(tracer),
        interlude_(interlude), mix_(make_mix(env)) {}

  Step step(System& sys, const std::string& label, double rate,
            double seconds) {
    auto span = tracer_.span("load.run_step");
    load::RunConfig cfg;
    cfg.port = sys.port();
    cfg.connections = kConnections;
    cfg.requests = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(rate * seconds)));
    cfg.rate_hz = rate;
    cfg.seed = env_.seed * 1000003ull + (++step_counter_);
    cfg.duplicate_ratio = spec_.duplicate_ratio;
    cfg.timeout_sec = 10.0;
    Step s;
    s.label = label;
    s.requests = cfg.requests;
    s.span_s = static_cast<double>(
                   load::build_schedule(cfg.arrival, rate, cfg.requests,
                                        cfg.seed)
                       .back()) /
               1e9;
    const double server0 = sys.cpu_s();
    const double client0 = thread_cpu_s();
    s.r = load::run_step(cfg, mix_);
    s.client_cpu_s = thread_cpu_s() - client0;
    s.server_cpu_s = sys.cpu_s() - server0;
    return s;
  }

  double phase_seconds(double share) const { return env_.seconds * share; }

  /// Spawns and stops @p spawns throwaway instances of the system;
  /// returns their setup times.
  std::vector<double> setup_probes(bool routed, int spawns,
                                   const std::string& tag) {
    auto span = tracer_.span("serve.setup_probes");
    std::vector<double> setup;
    for (int i = 0; i < spawns; ++i) {
      System probe(env_, routed, tag + "-setup" + std::to_string(i), false);
      setup.push_back(probe.start());
      report_.check(probe.stop(), "setup instance exits cleanly");
    }
    return setup;
  }

  /// A ramp from the light to the busy rate on a fresh instance. Its
  /// requests are counted apart (warmup in the run record): a cold
  /// server's first second is not what the fixed-rate steps measure.
  void warm(System& sys) {
    auto span = tracer_.span("serve.warmup");
    const double w = phase_seconds(kWarmShare) / 3.0;
    for (double rate : {kLightRate, (kLightRate + kBusyRate) / 2, kBusyRate})
      warmup_.add(step(sys, "warmup-" + std::to_string(std::lround(rate)),
                       rate, w),
                  report_);
  }

  /// The capacity ladder (see kStartRung): gallop from the start rung in
  /// steps of kGallop rungs, then climb one rung at a time from the
  /// highest pass until two consecutive rungs fail. Capacity is the
  /// highest passing rung; the ladder's own requests are reported apart
  /// from the fixed-rate ones because rungs above capacity fail by
  /// design.
  double capacity(System& sys, std::size_t* rungs) {
    auto span = tracer_.span("serve.capacity_ladder");
    std::map<int, bool> pass;
    int new_steps = 0;
    const double rung_s = phase_seconds(kRungShare);
    auto test = [&](int k) {
      if (!pass.count(k)) {
        if (new_steps >= kMaxLadderSteps) return false;
        ++new_steps;
        const Step s = step(sys, "rung-" + std::to_string(k), rung_rate(k),
                            rung_s);
        ladder_.add(s, report_);
        pass[k] = s.passes();
      }
      return pass[k];
    };
    int base = kStartRung;
    if (test(base)) {
      while (base + kGallop <= kMaxRung && test(base + kGallop))
        base += kGallop;
    } else {
      while (base - kGallop >= kMinRung && !test(base - kGallop))
        base -= kGallop;
      base -= kGallop;
    }
    int consecutive_fails = 0;
    for (int k = base + 1; k <= kMaxRung && consecutive_fails < 2; ++k)
      consecutive_fails = test(k) ? 0 : consecutive_fails + 1;
    int best = -1;
    for (const auto& [k, ok] : pass)
      if (ok) best = k;
    *rungs = pass.size();
    return best < 0 ? 0.0 : rung_rate(best);
  }

  /// Replays @p count fresh requests of the workload's stream through
  /// @p sys and compares every response with the in-process rendering
  /// (and, when @p twin is set, with the twin's bytes).
  void verify(System& sys, System* twin, std::size_t count) {
    auto span = tracer_.span("serve.verify");
    const auto lines = make_lines(mix_, spec_.duplicate_ratio,
                                  env_.seed ^ 0x5eedf00dull, count, "v");
    LineClient client(sys.port());
    std::optional<LineClient> twin_client;
    if (twin) twin_client.emplace(twin->port());
    std::size_t mismatched = 0, bad_ids = 0, twin_mismatched = 0;
    const std::size_t batch = 64;
    for (std::size_t start = 0; start < lines.size(); start += batch) {
      const std::size_t end = std::min(lines.size(), start + batch);
      std::string payload;
      for (std::size_t i = start; i < end; ++i) payload += lines[i] + "\n";
      client.send(payload);
      if (twin_client) twin_client->send(payload);
      std::map<std::string, std::string> got, twin_got;
      for (std::size_t i = start; i < end; ++i) {
        const std::string line = client.read_line();
        got[response_id(line)] = line;
        if (twin_client) {
          const std::string t = twin_client->read_line();
          twin_got[response_id(t)] = t;
        }
      }
      for (std::size_t i = start; i < end; ++i) {
        const std::string id = std::string("v").append(std::to_string(i));
        auto it = got.find(id);
        if (it == got.end()) {
          ++bad_ids;
          continue;
        }
        std::string response = it->second;
        if (env_.inject == "response" && i == 0) response[response.size() / 2] ^= 1;
        if (response != expected_response(lines[i])) ++mismatched;
        if (twin_client && twin_got[id] != response) ++twin_mismatched;
      }
    }
    report_.attempted += lines.size();
    report_.check(mismatched == 0,
                  std::to_string(mismatched) + " of " +
                      std::to_string(lines.size()) +
                      " responses differ from the in-process rendering");
    report_.check(bad_ids == 0, std::to_string(bad_ids) +
                                    " responses echoed a wrong or no id");
    if (twin)
      report_.check(twin_mismatched == 0,
                    std::to_string(twin_mismatched) +
                        " routed responses differ from a direct rat_serve");
    verified_ = lines.size();
  }

  static std::string response_id(const std::string& line) {
    const std::size_t key = line.find("\"id\":\"");
    if (key == std::string::npos) return {};
    const std::size_t end = line.find('"', key + 6);
    return end == std::string::npos ? std::string{}
                                    : line.substr(key + 6, end - key - 6);
  }

  /// The stats op's counters: {hit_ratio, evictions, rejected_overloaded}.
  struct ServerStats {
    double hit_ratio = 0, evictions = 0, rejected_overloaded = 0;
  };
  ServerStats stats(System& sys) {
    const io::JsonValue doc =
        io::parse_json(sys.call("{\"id\":\"stats\",\"op\":\"stats\"}"));
    ServerStats out;
    const io::JsonValue* st = doc.find("stats");
    if (!st) return out;
    if (const auto* v = st->find("rejected_overloaded"))
      out.rejected_overloaded = v->number;
    if (const auto* cache = st->find("cache")) {
      const double hits = cache->find("hits") ? cache->find("hits")->number : 0;
      const double misses =
          cache->find("misses") ? cache->find("misses")->number : 0;
      out.hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
      if (const auto* e = cache->find("evictions")) out.evictions = e->number;
    }
    return out;
  }

  /// The fixed-rate steps and the capacity ladder on a running system.
  struct Drive {
    Step light, busy;
    double capacity_rps = 0.0;
    std::size_t rungs = 0;  ///< ladder steps behind capacity_rps
    ServerStats stats;
    double cpu_us_per_req() const {
      return (light.server_cpu_s + busy.server_cpu_s) /
             static_cast<double>(light.r.ok + light.r.errors + busy.r.ok +
                                 busy.r.errors) *
             1e6;
    }
  };

  Drive drive(System& sys, const std::string& prefix, bool with_ladder) {
    Drive d;
    warm(sys);
    d.light = step(sys, prefix + "light", kLightRate,
                   phase_seconds(kLightShare));
    fixed_.add(d.light, report_);
    interlude_();
    d.busy =
        step(sys, prefix + "busy", kBusyRate, phase_seconds(kBusyShare));
    fixed_.add(d.busy, report_);
    interlude_();
    if (with_ladder) d.capacity_rps = capacity(sys, &d.rungs);
    d.stats = stats(sys);
    for (const Step* s : {&d.light, &d.busy})
      if (s->generator_behind())
        report_.say("WARNING: the generator fell behind in step " + s->label +
                    "; its latencies are not the server's alone");
    return d;
  }

  void untraced() {
    std::vector<double> setup =
        setup_probes(spec_.routed, kSetupSpawns / 2, env_.workload);
    System sys(env_, spec_.routed, env_.workload, false);
    setup.push_back(sys.start());
    const Drive d = drive(sys, "", false);
    std::optional<System> twin;
    if (spec_.routed) {
      twin.emplace(env_, false, env_.workload + "-twin", false);
      twin->start();
    }
    verify(sys, twin ? &*twin : nullptr, verify_count());
    if (twin) report_.check(twin->stop(), "direct twin exits cleanly");
    report_.check(sys.stop(), "server exits cleanly after draining");
    for (double t : setup_probes(spec_.routed, kSetupSpawns / 2 - 1,
                                 env_.workload + "-after"))
      setup.push_back(t);

    report_.set("cpu_us_per_req", d.cpu_us_per_req(), "us",
                d.light.r.latency.count() + d.busy.r.latency.count());
    report_.set("setup_s", median(setup), "s", setup.size());
    // Too unsteady to gate (README.md, "Ungated").
    report_.info("p50_ms", d.light.ms(50.0), "ms", d.light.r.latency.count());
    report_.info("p50_busy_ms", d.busy.ms(50.0), "ms",
                 d.busy.r.latency.count());
    report_.info("p99_ms", d.light.ms(99.0), "ms", d.light.r.latency.count());
    report_.info("p99_busy_ms", d.busy.ms(99.0), "ms",
                 d.busy.r.latency.count());
    finish(d.stats);
  }

  void traced() {
    // Untraced reference: the tail and capacity figures, and the base of
    // the overhead ratios and the transport gap.
    Drive plain;
    double plain_setup_s = 0.0;
    {
      System sys(env_, spec_.routed, env_.workload + "-plain", false);
      plain_setup_s = sys.start();
      plain = drive(sys, "plain-", true);
      report_.check(sys.stop(), "server exits cleanly after draining");
    }
    // The traced system: the server's own obs instrumentation on.
    System sys(env_, spec_.routed, env_.workload + "-traced", true);
    sys.start();
    const Drive traced = drive(sys, "traced-", true);
    verify(sys, nullptr, verify_count());
    report_.check(sys.stop(), "traced server exits cleanly");

    // The other side of the router hop at the same mix and light rate.
    Step other_light;
    {
      System other(env_, !spec_.routed, env_.workload + "-hop", false);
      other.start();
      warm(other);
      other_light =
          step(other, "hop-light", kLightRate, phase_seconds(kLightShare));
      fixed_.add(other_light, report_);
      report_.check(other.stop(), "hop comparison server exits cleanly");
    }
    const double routed_p50 =
        spec_.routed ? plain.light.ms(50.0) : other_light.ms(50.0);
    const double direct_p50 =
        spec_.routed ? other_light.ms(50.0) : plain.light.ms(50.0);

    const std::size_t n_lines = env_.seconds < 5.0 ? 50 : 1000;
    const auto lines = make_lines(mix_, spec_.duplicate_ratio,
                                  env_.seed ^ 0x1ed9e5ull, n_lines, "r");
    const RequestLedger path = measure_request_path(lines, report_, tracer_);

    report_.set("serve.p50_ms", plain.light.ms(50.0), "ms",
                plain.light.r.latency.count());
    report_.set("serve.p50_busy_ms", plain.busy.ms(50.0), "ms",
                plain.busy.r.latency.count());
    report_.set("serve.p99_ms", plain.light.ms(99.0), "ms",
                plain.light.r.latency.count());
    report_.set("serve.p99_busy_ms", plain.busy.ms(99.0), "ms",
                plain.busy.r.latency.count());
    report_.set("serve.capacity_rps", plain.capacity_rps, "1/s", plain.rungs);
    const double server_p50_us = server_request_p50_us(sys);
    report_.set("svc.request_p50_us", server_p50_us, "us");
    report_.set("ledger.unaccounted_ratio",
                server_p50_us > 0
                    ? (server_p50_us - path.stage_sum_us) / server_p50_us
                    : 0.0,
                "ratio");
    report_.set("svc.transport_us",
                plain.light.ms(50.0) * 1e3 - path.submit_rtt_us, "us",
                plain.light.r.latency.count());
    report_.set("svc.router_hop_us", (routed_p50 - direct_p50) * 1e3, "us");
    report_.set("svc.queue_depth_max", server_queue_depth_max(sys), "count");
    report_.set("svc.rejected_overloaded", traced.stats.rejected_overloaded,
                "count");
    report_.set("svc.cache.hit_ratio", traced.stats.hit_ratio, "ratio");
    report_.set("svc.cache.evictions", traced.stats.evictions, "count");
    report_.set("trace.overhead_ratio.cpu",
                traced.cpu_us_per_req() / plain.cpu_us_per_req(), "x");
    report_.set("trace.overhead_ratio.p50_busy",
                traced.busy.ms(50.0) / plain.busy.ms(50.0), "x");
    report_.set("load.achieved_ratio", plain.busy.achieved_ratio(), "ratio");
    report_.set("load.overrun_ms", plain.busy.overrun_ms(), "ms");
    report_.set("load.client_cpu_s", plain.busy.client_cpu_s, "s");
    // The gated serving figures of this run's untraced instance, so that a
    // traced run prints every serving metric in one report.
    report_.info("cpu_us_per_req", plain.cpu_us_per_req(), "us",
                 plain.light.r.latency.count() + plain.busy.r.latency.count());
    report_.info("setup_s", plain_setup_s, "s");
    finish(traced.stats);
  }

 private:
  std::size_t verify_count() const { return env_.seconds < 5.0 ? 64 : 512; }

  /// Reads the svc.request p50 from the server's (or, behind the router,
  /// each worker's) --metrics export; the workers' values are averaged.
  double server_request_p50_us(const System& sys) {
    std::vector<double> p50;
    for (const fs::path& file : metrics_files(sys)) {
      const io::JsonValue doc = read_json(file);
      const io::JsonValue* hists = doc.find("hists");
      const io::JsonValue* req = hists ? hists->find("svc.request") : nullptr;
      const io::JsonValue* v = req ? req->find("p50_sec") : nullptr;
      if (v) p50.push_back(v->number * 1e6);
    }
    report_.check(!p50.empty(), "the server exported its svc.request histogram");
    double sum = 0;
    for (double v : p50) sum += v;
    return p50.empty() ? 0.0 : sum / static_cast<double>(p50.size());
  }

  double server_queue_depth_max(const System& sys) {
    double depth = 0;
    for (const fs::path& file : metrics_files(sys)) {
      const io::JsonValue doc = read_json(file);
      const io::JsonValue* gauges = doc.find("gauges");
      const io::JsonValue* v = gauges ? gauges->find("svc.queue_depth") : nullptr;
      if (v) depth = std::max(depth, v->number);
    }
    return depth;
  }

  std::vector<fs::path> metrics_files(const System& sys) {
    std::vector<fs::path> files;
    if (!sys.routed()) {
      files.push_back(sys.metrics_path());
    } else {
      std::error_code ec;
      for (const auto& e : fs::directory_iterator(sys.worker_metrics_dir(), ec))
        files.push_back(e.path());
      std::sort(files.begin(), files.end());
    }
    return files;
  }

  static io::JsonValue read_json(const fs::path& file) {
    std::ifstream f(file);
    std::ostringstream text;
    text << f.rdbuf();
    try {
      return io::parse_json(text.str());
    } catch (const std::exception&) {
      return {};
    }
  }

  void finish(const ServerStats& st) {
    report_.attempted += fixed_.attempted;
    report_.failed += fixed_.failed;
    report_.say("requests  measured " + fixed_.summary() + "; warm-up " +
                warmup_.summary() + "; ladder " + ladder_.summary() +
                "; verified " + std::to_string(verified_));
    std::ostringstream requests;
    requests << "{\"fixed_rates\":" << fixed_.json()
             << ",\"warmup\":" << warmup_.json()
             << ",\"ladder\":" << ladder_.json()
             << ",\"verified\":" << verified_
             << ",\"stats\":{\"hit_ratio\":" << io::json_number(st.hit_ratio)
             << ",\"evictions\":" << io::json_number(st.evictions)
             << ",\"rejected_overloaded\":"
             << io::json_number(st.rejected_overloaded) << "}}";
    report_.note("requests", requests.str());
    std::ostringstream cfg;
    cfg << "{\"system\":\"" << (spec_.routed ? "rat_router" : "rat_serve")
        << "\",\"pool_threads\":"
        << (spec_.routed ? 1 : pool_threads(env_))
        << ",\"workers\":" << (spec_.routed ? 2 : 0)
        << ",\"connections\":" << kConnections
        << ",\"duplicate_ratio\":" << io::json_number(spec_.duplicate_ratio)
        << ",\"light_rate\":" << io::json_number(kLightRate)
        << ",\"busy_rate\":" << io::json_number(kBusyRate)
        << ",\"p99_limit_ms\":" << io::json_number(kP99LimitMs) << "}";
    report_.note("serve", cfg.str());
  }

  const Env& env_;
  const ServeSpec& spec_;
  Report& report_;
  Tracer& tracer_;
  const std::function<void()>& interlude_;
  load::Mix mix_;
  std::uint64_t step_counter_ = 0;
  /// Request accounting: the fixed-rate steps are the run's attempted
  /// and failed counts; warm-up ramps and ladder rungs are reported apart.
  Tally fixed_, warmup_, ladder_;
  std::size_t verified_ = 0;
};

}  // namespace

const ServeSpec* find_serve_spec(const std::string& name) {
  for (const ServeSpec& s : kSpecs)
    if (name == s.name) return &s;
  return nullptr;
}

void run_serve_phase(const Env& env, const ServeSpec& spec, Report& report,
                     Tracer& tracer, const std::function<void()>& interlude) {
  auto phase = tracer.span("serve");
  ServeRun run(env, spec, report, tracer, interlude);
  if (env.trace)
    run.traced();
  else
    run.untraced();
}

}  // namespace ratbench
