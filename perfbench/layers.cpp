// The in-process request-path ledger for the traced run: every stage a
// rat_serve evaluation passes through, timed by the benchmark around the
// public function of its layer, on the workload's own request stream.
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/parameters.hpp"
#include "core/throughput.hpp"
#include "harness.hpp"
#include "io/json.hpp"
#include "svc/cache.hpp"
#include "svc/fingerprint.hpp"
#include "svc/protocol.hpp"
#include "svc/router.hpp"
#include "svc/service.hpp"

namespace ratbench {

std::string expected_response(const std::string& request_line) {
  using namespace rat;
  const svc::Request req = svc::parse_request(request_line);
  core::RatInputs inputs = core::RatInputs::parse(req.worksheet, "<request>");
  inputs.validate();
  const std::uint64_t fp = svc::fnv1a64(svc::canonical_text(inputs));
  return svc::evaluate_response(req.id, fp, inputs, core::predict_all(inputs));
}

namespace {

using namespace rat;

double us_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e3;
}

/// Every double a response renders: the worksheet's numeric inputs and
/// each prediction's fields.
std::vector<double> response_doubles(
    const core::RatInputs& in,
    const std::vector<core::ThroughputPrediction>& preds) {
  std::vector<double> xs = {
      static_cast<double>(in.dataset.elements_in),
      static_cast<double>(in.dataset.elements_out),
      in.dataset.bytes_per_element, in.comm.ideal_bw_bytes_per_sec,
      in.comm.alpha_write, in.comm.alpha_read, in.comp.ops_per_element,
      in.comp.throughput_ops_per_cycle, in.software.tsoft_sec,
      static_cast<double>(in.software.n_iterations)};
  for (double f : in.comp.fclock_hz) xs.push_back(f);
  for (const auto& p : preds)
    for (double v : {p.fclock_hz, p.t_write_sec, p.t_read_sec, p.t_comm_sec,
                     p.t_comp_sec, p.t_rc_sb_sec, p.t_rc_db_sec, p.speedup_sb,
                     p.speedup_db, p.util_comp_sb, p.util_comm_sb,
                     p.util_comp_db, p.util_comm_db})
      xs.push_back(v);
  return xs;
}

}  // namespace

RequestLedger measure_request_path(const std::vector<std::string>& lines,
                                   Report& report, Tracer& tracer) {
  auto phase = tracer.span("ledger.request_path");
  std::vector<double> parse_req, ws_parse, validate, canonical, cache_get,
      cache_put, predict, render, json_ns, route_fp, encode, restore;
  std::size_t misses = 0, restore_mismatch = 0;
  svc::ResultCache cache(svc::ServiceConfig{}.cache_capacity,
                         svc::ServiceConfig{}.cache_shards);

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::uint64_t trace = tracer.next_trace_id();
    auto request_span = tracer.span("request", trace);
    std::uint64_t t0 = now_ns();
    svc::Request req;
    {
      auto s = tracer.span("svc.parse_request", trace);
      req = svc::parse_request(lines[i]);
    }
    parse_req.push_back(us_since(t0));
    t0 = now_ns();
    core::RatInputs inputs;
    {
      auto s = tracer.span("core.RatInputs::parse", trace);
      inputs = core::RatInputs::parse(req.worksheet, "<request>");
    }
    ws_parse.push_back(us_since(t0));
    t0 = now_ns();
    {
      auto s = tracer.span("core.validate", trace);
      inputs.validate();
    }
    validate.push_back(us_since(t0));
    t0 = now_ns();
    std::string key;
    std::uint64_t fp = 0;
    {
      auto s = tracer.span("svc.canonical_text+fnv1a64", trace);
      key = svc::canonical_text(inputs);
      fp = svc::fnv1a64(key);
    }
    canonical.push_back(us_since(t0));
    t0 = now_ns();
    svc::ResultCache::Value cached;
    {
      auto s = tracer.span("svc.ResultCache::get", trace);
      cached = cache.get(key, fp);
    }
    cache_get.push_back(us_since(t0));
    // predict_all is timed on every request: it is what a hit saves.
    t0 = now_ns();
    std::vector<core::ThroughputPrediction> preds;
    {
      auto s = tracer.span("core.predict_all", trace);
      preds = core::predict_all(inputs);
    }
    predict.push_back(us_since(t0));
    if (!cached) {
      ++misses;
      auto value = std::make_shared<const std::vector<core::ThroughputPrediction>>(preds);
      t0 = now_ns();
      {
        auto s = tracer.span("svc.ResultCache::put", trace);
        cache.put(key, fp, value);
      }
      cache_put.push_back(us_since(t0));
      cached = value;
    }
    t0 = now_ns();
    std::string response;
    {
      auto s = tracer.span("svc.evaluate_response", trace);
      response = svc::evaluate_response(req.id, fp, inputs, *cached);
    }
    render.push_back(us_since(t0));

    if (i < 200) {
      const std::vector<double> xs = response_doubles(inputs, *cached);
      std::size_t bytes = 0;
      auto s = tracer.span("io.json_number", trace);
      t0 = now_ns();
      for (double x : xs) bytes += io::json_number(x).size();
      json_ns.push_back(static_cast<double>(now_ns() - t0) /
                        static_cast<double>(xs.size()));
      report.check(bytes > 0, "json_number renders");
    }

    // The router's per-request helpers, on the same request.
    t0 = now_ns();
    {
      auto s = tracer.span("svc.route_fingerprint", trace);
      (void)svc::route_fingerprint(req);
    }
    route_fp.push_back(us_since(t0));
    const std::string token = std::string("t").append(std::to_string(i));
    t0 = now_ns();
    {
      auto s = tracer.span("svc.encode_forward", trace);
      (void)svc::encode_forward(token, req);
    }
    encode.push_back(us_since(t0));
    const std::string worker_line =
        svc::evaluate_response(token, fp, inputs, *cached);
    t0 = now_ns();
    std::string restored;
    {
      auto s = tracer.span("svc.restore_response_id", trace);
      restored = svc::restore_response_id(worker_line, req.id);
    }
    restore.push_back(us_since(t0));
    if (restored != response) ++restore_mismatch;
  }
  report.check(restore_mismatch == 0,
               "restore_response_id reproduces the direct response bytes");

  const double n = static_cast<double>(lines.size());
  const double miss_share = static_cast<double>(misses) / n;
  report.set("svc.parse_request_us", median(parse_req), "us", parse_req.size());
  report.set("core.worksheet_parse_us", median(ws_parse), "us", ws_parse.size());
  report.set("core.validate_us", median(validate), "us", validate.size());
  report.set("svc.canonical_us", median(canonical), "us", canonical.size());
  report.set("core.predict_all_us", median(predict), "us", predict.size());
  report.set("svc.render_us", median(render), "us", render.size());
  report.set("io.json_number_ns", median(json_ns), "ns", json_ns.size());
  report.set("svc.cache_get_us", median(cache_get), "us", cache_get.size());
  report.set("svc.cache_put_us", median(cache_put), "us", cache_put.size());
  report.set("svc.route_fingerprint_us", median(route_fp), "us", route_fp.size());
  report.set("svc.encode_forward_us", median(encode), "us", encode.size());
  report.set("svc.restore_id_us", median(restore), "us", restore.size());

  // What the server's svc.request timer covers: everything after
  // parse_request, with the miss-only stages weighted by the miss share.
  RequestLedger ledger;
  ledger.stage_sum_us =
      median(ws_parse) + median(validate) + median(canonical) +
      median(cache_get) +
      miss_share * (median(predict) + median(cache_put)) + median(render);

  // Service::submit round trip, one request at a time, in-process.
  std::vector<double> rtt;
  std::size_t wrong = 0;
  {
    auto s = tracer.span("svc.Service::submit");
    svc::Service service;
    std::mutex mu;
    std::condition_variable cv;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::string got;
      bool done = false;
      const std::uint64_t t0 = now_ns();
      service.submit(lines[i], [&](std::string line) {
        std::lock_guard lock(mu);
        got = std::move(line);
        done = true;
        cv.notify_one();
      });
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return done; });
      }
      rtt.push_back(us_since(t0));
      if (i < 64 && got != expected_response(lines[i])) ++wrong;
    }
  }
  report.check(wrong == 0, "Service::submit answers with the expected bytes");
  ledger.submit_rtt_us = median(rtt);
  report.set("svc.submit_rtt_us", ledger.submit_rtt_us, "us", rtt.size());
  report.set("util.pool_handoff_us",
             ledger.submit_rtt_us - median(parse_req) - ledger.stage_sum_us,
             "us", rtt.size());
  return ledger;
}

}  // namespace ratbench
