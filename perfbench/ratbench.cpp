// ratbench — the repository benchmark harness (perfbench/README.md).
//
// Usage:
//   ratbench --workload=<serve_unique|serve_repeat|serve_routed>
//            --seed=N --seconds=S --trace=0|1
//            --bin-dir=<dir with rat_serve, rat_router>
//            --fixtures=<tests/fixtures/worksheets> --out-dir=<dir>
//            [--commit=<id>] [--inject=response|explore]
//
// One run = the workload's serving phase followed by the offline design
// campaign. The last stdout line is the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// carrying the end-to-end metrics (--trace=0) or the per-layer ledger
// (--trace=1). The lines before it are a human-readable report; the full
// record (provenance, per-step details, failed checks) is written to
// <out-dir>/result-<workload>-<seed>-t<trace>.json and, when traced, the
// spans to <out-dir>/spans-<workload>-<seed>.json.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/batch.hpp"
#include "harness.hpp"
#include "io/json.hpp"
#include "util/cli.hpp"

#ifndef RATBENCH_BUILD_TYPE
#define RATBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ratbench;

/// Share of the run's measuring time that goes to the campaign phase.
constexpr double kCampaignShare = 0.3;

std::string result_line(const Report& report) {
  std::string out = "{\"correct\":";
  out += report.correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(report.attempted);
  out += ",\"failed\":" + std::to_string(report.failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : report.metrics()) {
    if (!first) out += ',';
    first = false;
    out += rat::io::json_str(name) + ":{\"value\":" +
           rat::io::json_number(m.value) +
           ",\"unit\":" + rat::io::json_str(m.unit) + "}";
  }
  out += "}}";
  return out;
}

void write_record(const std::filesystem::path& path, const Env& env,
                  const Report& report) {
  std::ofstream f(path);
  f << "{\"schema\":\"ratbench.result.v1\",\"workload\":"
    << rat::io::json_str(env.workload) << ",\"seed\":" << env.seed
    << ",\"seconds\":" << rat::io::json_number(env.seconds)
    << ",\"trace\":" << (env.trace ? "true" : "false");
  for (const auto& [key, value] : report.notes())
    f << "," << rat::io::json_str(key) << ":" << value;
  auto metrics = [&f](const char* key, const auto& list) {
    f << ",\"" << key << "\":{";
    bool first = true;
    for (const auto& [name, m] : list) {
      if (!first) f << ',';
      first = false;
      f << rat::io::json_str(name) << ":{\"value\":"
        << rat::io::json_number(m.value) << ",\"unit\":"
        << rat::io::json_str(m.unit) << ",\"samples\":" << m.samples << "}";
    }
    f << "}";
  };
  metrics("metrics", report.metrics());
  metrics("info", report.infos());
  f << ",\"failures\":[";
  for (std::size_t i = 0; i < report.failures().size(); ++i)
    f << (i ? "," : "") << rat::io::json_str(report.failures()[i]);
  f << "],\"correct\":" << (report.correct() ? "true" : "false")
    << ",\"attempted\":" << report.attempted << ",\"failed\":"
    << report.failed << "}\n";
}

void print_human(const Env& env, const Report& report) {
  std::printf("ratbench %s seed=%llu seconds=%g trace=%d\n",
              env.workload.c_str(),
              static_cast<unsigned long long>(env.seed), env.seconds,
              env.trace ? 1 : 0);
  for (const auto& [key, value] : report.notes())
    if (key == "host" || key == "serve" || key == "campaign")
      std::printf("  %s: %s\n", key.c_str(), value.c_str());
  for (const std::string& line : report.lines())
    std::printf("  %s\n", line.c_str());
  std::printf("  %-34s %14s  %-8s %s\n", "metric", "value", "unit",
              "samples");
  for (const auto& [name, m] : report.metrics())
    std::printf("  %-34s %14.6g  %-8s %zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  for (const auto& [name, m] : report.infos())
    std::printf("  %-34s %14.6g  %-8s %zu  (not in the result object)\n",
                name.c_str(), m.value, m.unit.c_str(), m.samples);
  std::printf("  attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.correct() ? "yes" : "NO");
  for (const std::string& f : report.failures())
    std::printf("  FAILED CHECK: %s\n", f.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const rat::util::Cli cli(argc, argv);
  Env env;
  try {
    env.workload = cli.get_or("workload", "");
    env.seed = cli.get_size_t("seed", 1);
    env.seconds = cli.get_double("seconds", 25.0);
    env.trace = cli.get_size_t("trace", 0, 0, 1) == 1;
    env.bin_dir = cli.get_or("bin-dir", "");
    env.fixtures_dir = cli.get_or("fixtures", "");
    env.out_dir = cli.get_or("out-dir", "");
    env.inject = cli.get_or("inject", "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ratbench: %s\n", e.what());
    return 2;
  }
  const ServeSpec* spec = find_serve_spec(env.workload);
  if (!spec || env.bin_dir.empty() || env.fixtures_dir.empty() ||
      env.out_dir.empty() || !(env.seconds > 0.0) ||
      (env.inject != "" && env.inject != "response" &&
       env.inject != "explore")) {
    std::fprintf(stderr,
                 "usage: ratbench --workload=<serve_unique|serve_repeat|"
                 "serve_routed> --seed=N --seconds=S --trace=0|1 "
                 "--bin-dir=D --fixtures=D --out-dir=D [--commit=ID] "
                 "[--inject=response|explore]\n");
    return 2;
  }
  env.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::filesystem::create_directories(env.out_dir);

  Report report;
  Tracer tracer(env.trace);
  {
    std::ostringstream host;
    host << "{\"nproc\":" << env.nproc << ",\"simd_backend\":\""
         << rat::core::simd_backend() << "\",\"simd_width\":"
         << rat::core::simd_width() << ",\"build_type\":\""
         << RATBENCH_BUILD_TYPE << "\",\"commit\":"
         << rat::io::json_str(cli.get_or("commit", "unknown"))
         << ",\"seed\":" << env.seed << "}";
    report.note("host", host.str());
  }
  try {
    // Campaign slices before, between the serving steps and after, so its
    // samples span the run instead of one stretch of it.
    CampaignPhase campaign(env, report, tracer);
    const double slice = env.seconds * kCampaignShare / 4.0;
    campaign.run_for(slice);
    run_serve_phase(env, *spec, report, tracer,
                    [&] { campaign.run_for(slice); });
    campaign.run_for(slice);
    campaign.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ratbench: %s\n", e.what());
    return 1;
  }

  const std::string tag = env.workload + "-" + std::to_string(env.seed);
  if (env.trace) {
    const auto spans = env.out_dir / ("spans-" + tag + ".json");
    report.check(tracer.write(spans), "spans written to " + spans.string());
  }
  write_record(env.out_dir / ("result-" + tag + "-t" +
                              std::to_string(env.trace ? 1 : 0) + ".json"),
               env, report);
  print_human(env, report);
  std::printf("%s\n", result_line(report).c_str());
  return 0;
}
