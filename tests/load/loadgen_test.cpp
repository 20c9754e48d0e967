// End-to-end: the open-loop runner against a real in-process svc::Server
// on loopback TCP. A fixed request count must come back fully answered
// with consistent report totals — and the server side must expose the
// matching svc.request histogram when observability is on.
#include "load/runner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/parameters.hpp"
#include "io/json.hpp"
#include "load/mix.hpp"
#include "obs/metrics.hpp"
#include "svc/server.hpp"

namespace rat::load {
namespace {

Mix pdf_mix() {
  Mix mix;
  mix.add("pdf1d", core::pdf1d_inputs().serialize());
  mix.add("pdf2d", core::pdf2d_inputs().serialize());
  return mix;
}

TEST(LoadGen, AllRequestsAnsweredAndTotalsConsistent) {
  svc::Service service;
  svc::Server server(service, {});
  server.start();
  ASSERT_GT(server.port(), 0);

  RunConfig cfg;
  cfg.port = server.port();
  cfg.connections = 8;
  cfg.requests = 300;
  cfg.arrival = Arrival::kPoisson;
  cfg.rate_hz = 5000.0;
  cfg.seed = 11;
  cfg.duplicate_ratio = 0.5;
  cfg.timeout_sec = 60.0;

  Mix mix = pdf_mix();
  const StepResult step = run_step(cfg, mix);

  EXPECT_EQ(step.sent, 300u);
  EXPECT_EQ(step.ok, 300u);  // every payload is a valid worksheet
  EXPECT_EQ(step.errors, 0u);
  EXPECT_EQ(step.lost, 0u);
  EXPECT_EQ(step.connection_drops, 0u);
  EXPECT_FALSE(step.timed_out);
  EXPECT_TRUE(step.error_codes.empty());
  EXPECT_EQ(step.latency.count(), 300u);
  EXPECT_GT(step.achieved_rate_hz, 0.0);
  EXPECT_GE(step.latency.percentile(99.0), step.latency.percentile(50.0));

  server.trigger_stop();
  server.run();
}

TEST(LoadGen, ReportJsonIsWellFormedAndSloGates) {
  svc::Service service;
  svc::Server server(service, {});
  server.start();

  RunConfig cfg;
  cfg.port = server.port();
  cfg.connections = 4;
  cfg.requests = 50;
  cfg.rate_hz = 2000.0;
  cfg.seed = 3;

  Mix mix = pdf_mix();
  const StepResult step = run_step(cfg, mix);
  server.trigger_stop();
  server.run();

  // A generous SLO passes; an impossible one trips both gates.
  EXPECT_TRUE(slo_violations(step, {.p99_ms = 60000.0, .error_rate = 0.5})
                  .empty());
  SloConfig harsh;
  harsh.p99_ms = 1e-6;
  EXPECT_FALSE(slo_violations(step, harsh).empty());

  const std::vector<StepResult> steps{step};
  const std::string report =
      load_report_json(cfg, steps, {.p99_ms = 60000.0, .error_rate = 0.5},
                       {});
  const io::JsonValue doc = io::parse_json(report);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->string, "rat.load.v1");
  const io::JsonValue* parsed_steps = doc.find("steps");
  ASSERT_TRUE(parsed_steps && parsed_steps->is_array());
  ASSERT_EQ(parsed_steps->items.size(), 1u);
  const io::JsonValue& s0 = parsed_steps->items[0];
  EXPECT_EQ(static_cast<std::uint64_t>(s0.find("ok")->number), step.ok);
  EXPECT_TRUE(s0.find("latency_ms")->find("p99")->is_number());
  EXPECT_TRUE(doc.find("slo")->find("violations")->items.empty());
}

TEST(LoadGen, ServerSideHistogramMatchesRequestCount) {
  obs::Registry::global().reset();
  obs::set_enabled(true);
  {
    svc::Service service;
    svc::Server server(service, {});
    server.start();

    RunConfig cfg;
    cfg.port = server.port();
    cfg.connections = 4;
    cfg.requests = 80;
    cfg.rate_hz = 4000.0;
    cfg.no_cache = true;  // every request takes the evaluate path
    Mix mix = pdf_mix();
    const StepResult step = run_step(cfg, mix);
    EXPECT_EQ(step.ok, 80u);

    server.trigger_stop();
    server.run();
  }
  obs::set_enabled(false);

  const auto hists = obs::Registry::global().hists();
  const auto it = hists.find("svc.request");
  ASSERT_NE(it, hists.end());
  EXPECT_EQ(it->second.count(), 80u);
  EXPECT_GT(it->second.percentile(99.0), 0.0);
  obs::Registry::global().reset();
}

}  // namespace
}  // namespace rat::load
