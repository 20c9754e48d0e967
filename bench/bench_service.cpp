// Service-path benchmarks: cold-miss vs cache-hit evaluation latency
// through Service::submit, fingerprint/canonicalization cost, response
// rendering (the number formatter alone and a whole evaluate response),
// a duplicate-heavy request mix measuring sustained requests/sec, and
// the router's per-request helpers (route hash, forward encode, id
// splice) — the entire per-request cost rat_router adds on top of a
// worker.
#include <benchmark/benchmark.h>

#include <atomic>
#include <string>
#include <vector>

#include "core/parameters.hpp"
#include "core/throughput.hpp"
#include "io/json.hpp"
#include "svc/fingerprint.hpp"
#include "svc/protocol.hpp"
#include "svc/router.hpp"
#include "svc/service.hpp"

namespace {

using namespace rat;

std::string evaluate_line(const std::string& id, const std::string& sheet,
                          bool no_cache) {
  std::string line = "{\"id\":" + io::json_str(id) +
                     ",\"op\":\"evaluate\",\"worksheet\":" +
                     io::json_str(sheet);
  if (no_cache) line += ",\"no_cache\":true";
  return line + "}";
}

/// One request, waiting for its response: the full submit -> parse ->
/// (evaluate | cache hit) -> render round trip.
void submit_and_wait(svc::Service& service, const std::string& line) {
  std::atomic<bool> done{false};
  service.submit(line, [&done](std::string response) {
    benchmark::DoNotOptimize(response.data());
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
  }
}

void BM_ServiceColdMiss(benchmark::State& state) {
  svc::Service service({.cache_capacity = 1024});
  const std::string sheet = core::pdf1d_inputs().serialize();
  // no_cache: every iteration pays parse + predict_all + render.
  const std::string line = evaluate_line("cold", sheet, /*no_cache=*/true);
  for (auto _ : state) submit_and_wait(service, line);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceColdMiss);

void BM_ServiceCacheHit(benchmark::State& state) {
  svc::Service service({.cache_capacity = 1024});
  const std::string sheet = core::pdf1d_inputs().serialize();
  const std::string line = evaluate_line("hot", sheet, /*no_cache=*/false);
  submit_and_wait(service, line);  // warm the cache: first is the miss
  for (auto _ : state) submit_and_wait(service, line);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceCacheHit);

void BM_ServiceDuplicateHeavyMix(benchmark::State& state) {
  // The soak-test shape: a few distinct designs queried over and over
  // (>= 50% duplicates). items/sec here is the service's requests/sec.
  svc::Service service({.cache_capacity = 1024});
  const std::vector<std::string> lines = {
      evaluate_line("a", core::pdf1d_inputs().serialize(), false),
      evaluate_line("b", core::pdf2d_inputs().serialize(), false),
      evaluate_line("c", core::md_inputs().serialize(), false),
  };
  std::size_t i = 0;
  for (auto _ : state) {
    submit_and_wait(service, lines[i % lines.size()]);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  const svc::Service::Stats st = service.stats();
  state.counters["cache_hit_ratio"] =
      st.cache.hits + st.cache.misses == 0
          ? 0.0
          : static_cast<double>(st.cache.hits) /
                static_cast<double>(st.cache.hits + st.cache.misses);
}
BENCHMARK(BM_ServiceDuplicateHeavyMix);

void BM_CanonicalFingerprint(benchmark::State& state) {
  // The cache-key cost a hit pays on top of the map lookup.
  const core::RatInputs inputs = core::pdf1d_inputs();
  for (auto _ : state)
    benchmark::DoNotOptimize(svc::fingerprint(inputs));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CanonicalFingerprint);

/// Every double one pdf1d evaluate response renders: the inputs' 10 and
/// 13 per clock for its three clocks (49 in all).
std::vector<double> response_doubles() {
  const core::RatInputs in = core::pdf1d_inputs();
  std::vector<double> xs = {in.dataset.bytes_per_element,
                            in.comm.ideal_bw_bytes_per_sec,
                            in.comm.alpha_write,
                            in.comm.alpha_read,
                            in.comp.ops_per_element,
                            in.comp.throughput_ops_per_cycle,
                            in.software.tsoft_sec};
  xs.insert(xs.end(), in.comp.fclock_hz.begin(), in.comp.fclock_hz.end());
  for (const core::ThroughputPrediction& p : core::predict_all(in))
    xs.insert(xs.end(),
              {p.fclock_hz, p.t_write_sec, p.t_read_sec, p.t_comm_sec,
               p.t_comp_sec, p.t_rc_sb_sec, p.t_rc_db_sec, p.speedup_sb,
               p.speedup_db, p.util_comp_sb, p.util_comm_sb, p.util_comp_db,
               p.util_comm_db});
  return xs;
}

void BM_JsonNumber(benchmark::State& state) {
  // The number formatter over one response's worth of doubles; items/sec
  // counts numbers, so 1/rate is the per-number cost.
  const std::vector<double> xs = response_doubles();
  std::string out;
  for (auto _ : state) {
    out.clear();
    for (double x : xs) io::append_json_number(out, x);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_JsonNumber);

void BM_EvaluateResponse(benchmark::State& state) {
  // Rendering one evaluate response line from already computed
  // predictions: the render stage of every request, hit or miss.
  const core::RatInputs inputs = core::pdf1d_inputs();
  const auto predictions = core::predict_all(inputs);
  const std::uint64_t fp = svc::fingerprint(inputs);
  for (auto _ : state) {
    std::string line = svc::evaluate_response("bench", fp, inputs, predictions);
    benchmark::DoNotOptimize(line.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluateResponse);

void BM_RequestParse(benchmark::State& state) {
  const std::string line =
      evaluate_line("p", core::pdf1d_inputs().serialize(), false);
  for (auto _ : state) {
    svc::Request req = svc::parse_request(line);
    benchmark::DoNotOptimize(&req);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(line.size()));
}
BENCHMARK(BM_RequestParse);

void BM_RouteFingerprint(benchmark::State& state) {
  // The router's shard decision: parse the inline worksheet and take its
  // canonical fingerprint. This is the dominant per-request router cost.
  const svc::Request req =
      svc::parse_request(evaluate_line("r", core::pdf1d_inputs().serialize(),
                                       /*no_cache=*/false));
  for (auto _ : state)
    benchmark::DoNotOptimize(svc::route_fingerprint(req));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteFingerprint);

void BM_RouterEncodeForward(benchmark::State& state) {
  // Re-encoding a parsed request with the correlation token as its id.
  const svc::Request req =
      svc::parse_request(evaluate_line("r", core::pdf1d_inputs().serialize(),
                                       /*no_cache=*/false));
  for (auto _ : state) {
    std::string line = svc::encode_forward("t3f", req);
    benchmark::DoNotOptimize(line.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterEncodeForward);

void BM_RouterRestoreResponseId(benchmark::State& state) {
  // Splicing the client id back into a real worker response line: token
  // scan + three appends, no JSON re-parse or re-render.
  svc::Service service({.cache_capacity = 16});
  std::string worker_line;
  {
    std::atomic<bool> done{false};
    service.submit(
        evaluate_line("t3f", core::pdf1d_inputs().serialize(), false),
        [&](std::string response) {
          worker_line = std::move(response);
          done.store(true, std::memory_order_release);
        });
    while (!done.load(std::memory_order_acquire)) {
    }
  }
  for (auto _ : state) {
    std::string out = svc::restore_response_id(worker_line, "client-42");
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(worker_line.size()));
}
BENCHMARK(BM_RouterRestoreResponseId);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
