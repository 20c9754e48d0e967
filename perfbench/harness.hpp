// The ratbench workloads. ratbench.cpp parses the command line into an
// Env and calls the serving phase and the campaign phase; each phase
// adds its metrics and checks to the run's Report.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace ratbench {

/// Everything a phase needs to know about the run.
struct Env {
  std::filesystem::path bin_dir;       ///< rat_serve and rat_router
  std::filesystem::path fixtures_dir;  ///< the worksheet fixtures
  std::filesystem::path out_dir;       ///< logs, metrics files, spans
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;  ///< measuring time of the whole run
  bool trace = false;
  /// Self-test fault injection: "response" corrupts one verified serve
  /// response, "explore" perturbs the pruned explorer's result. Both
  /// must turn the run's verdict to incorrect.
  std::string inject;
  unsigned nproc = 1;
};

/// One serving workload: the traffic mix and the system under test.
struct ServeSpec {
  const char* name;
  double duplicate_ratio;
  bool routed;
};

/// Looks up a serving workload by name; nullptr when there is none.
const ServeSpec* find_serve_spec(const std::string& name);

/// The serving phase: start the system, drive the fixed rates and the
/// capacity ladder, verify responses. Untraced runs add the end-to-end
/// serving metrics; traced runs add the serving per-layer metrics.
/// @p interlude runs after each light and busy step, while the system
/// under test sits idle.
void run_serve_phase(const Env& env, const ServeSpec& spec, Report& report,
                     Tracer& tracer, const std::function<void()>& interlude);

/// The response rat_serve must send for @p request_line, rendered through
/// the public path: parse_request -> RatInputs::parse/validate ->
/// predict_all -> evaluate_response.
std::string expected_response(const std::string& request_line);

/// Medians of the in-process request path (layers.cpp).
struct RequestLedger {
  double stage_sum_us = 0.0;   ///< the stages the server's svc.request covers
  double submit_rtt_us = 0.0;  ///< Service::submit -> on_response
};

/// Times every request-path stage around its layer's public function on
/// @p lines (the workload's own request stream) and adds the stage
/// metrics, the Service::submit round trip and the pool handoff.
RequestLedger measure_request_path(const std::vector<std::string>& lines,
                                   Report& report, Tracer& tracer);

/// The offline design campaign: pruned exploration of a seeded grid plus
/// Monte-Carlo bands on the three case-study worksheets, all in-process.
/// Construction runs the correctness checks; run_for() adds timed
/// repetitions (called more than once, the samples spread over the run);
/// finish() adds the campaign metrics, or the campaign layers when traced.
class CampaignPhase {
 public:
  CampaignPhase(const Env& env, Report& report, Tracer& tracer);
  ~CampaignPhase();
  CampaignPhase(const CampaignPhase&) = delete;
  CampaignPhase& operator=(const CampaignPhase&) = delete;

  void run_for(double seconds);
  void finish();

 private:
  struct State;
  const Env& env_;
  Report& report_;
  Tracer& tracer_;
  std::unique_ptr<State> s_;
};

}  // namespace ratbench
