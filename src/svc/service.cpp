#include "svc/service.hpp"

#include <exception>
#include <utility>

#include "io/json.hpp"
#include "io/loader.hpp"
#include "obs/metrics.hpp"
#include "svc/fingerprint.hpp"
#include "util/thread_pool.hpp"

namespace rat::svc {

namespace {

void obs_count(const char* name) {
  if (obs::enabled()) obs::Registry::global().add_counter(name);
}

}  // namespace

Service::Service(ServiceConfig config)
    : config_(config),
      cache_(config.cache_capacity, config.cache_shards) {}

Service::~Service() { drain(); }

void Service::set_shutdown_handler(std::function<void()> handler) {
  std::lock_guard lock(mu_);
  shutdown_handler_ = std::move(handler);
}

void Service::respond(const std::function<void(std::string)>& on_response,
                      std::string line, bool ok) {
  (ok ? responses_ok_ : responses_error_)
      .fetch_add(1, std::memory_order_relaxed);
  obs_count(ok ? "svc.responses.ok" : "svc.responses.error");
  try {
    on_response(std::move(line));
  } catch (...) {
    // The transport failed to deliver (e.g. client hung up). The
    // request was still answered from the service's point of view.
    obs_count("svc.responses.delivery_failed");
  }
}

void Service::submit(const std::string& line,
                     std::function<void(std::string)> on_response) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  obs_count("svc.requests");

  Request req;
  try {
    req = parse_request(line);
  } catch (const ProtocolError& e) {
    respond(on_response, error_response(e.id(), e.code(), e.what()),
            /*ok=*/false);
    return;
  }

  switch (req.op) {
    case Request::Op::kPing:
      respond(on_response, pong_response(req.id), /*ok=*/true);
      return;
    case Request::Op::kStats:
      respond(on_response, stats_response(req.id), /*ok=*/true);
      return;
    case Request::Op::kShutdown: {
      respond(on_response, shutdown_response(req.id), /*ok=*/true);
      std::function<void()> handler;
      {
        std::lock_guard lock(mu_);
        handler = shutdown_handler_;
      }
      if (handler)
        handler();
      else
        begin_drain();
      return;
    }
    case Request::Op::kEvaluate:
      break;
  }

  // Admission control: bounded queue, reject rather than buffer.
  {
    std::lock_guard lock(mu_);
    if (draining_) {
      rejected_draining_.fetch_add(1, std::memory_order_relaxed);
      obs_count("svc.rejected.draining");
      respond(on_response,
              error_response(req.id, SvcErrorCode::kShuttingDown,
                             "service is draining"),
              /*ok=*/false);
      return;
    }
    if (in_flight_ >= config_.queue_capacity) {
      rejected_overloaded_.fetch_add(1, std::memory_order_relaxed);
      obs_count("svc.rejected.overloaded");
      respond(on_response,
              error_response(
                  req.id, SvcErrorCode::kOverloaded,
                  "admission queue full (" +
                      std::to_string(config_.queue_capacity) +
                      " requests queued or running); retry later"),
              /*ok=*/false);
      return;
    }
    ++in_flight_;
    if (obs::enabled())
      obs::Registry::global().max_gauge("svc.queue_depth",
                                        static_cast<double>(in_flight_));
  }

  const double deadline_ms =
      req.deadline_ms > 0.0 ? req.deadline_ms : config_.default_deadline_ms;
  std::uint64_t deadline_ns = 0;
  if (deadline_ms > 0.0) {
    // Clamp before the float->uint64 cast: a huge (or, from a config,
    // non-finite) deadline would otherwise be UB. ~292 years is plenty.
    constexpr double kMaxDelayNs = 9.2e18;  // < 2^63
    double delay_ns = deadline_ms * 1e6;
    if (!(delay_ns < kMaxDelayNs)) delay_ns = kMaxDelayNs;  // also inf/NaN
    deadline_ns = obs::now_ns() + static_cast<std::uint64_t>(delay_ns);
  }

  util::ThreadPool::shared().submit(
      [this, req = std::move(req), deadline_ns,
       on_response = std::move(on_response)]() mutable {
        run_evaluation(std::move(req), deadline_ns, std::move(on_response));
      });
}

void Service::run_evaluation(Request req, std::uint64_t deadline_ns,
                             std::function<void(std::string)> on_response) {
  obs::ScopedTimer timer("svc.request", {}, /*record_span=*/false,
                         /*record_hist=*/true);
  try {
    if (deadline_ns != 0 && obs::now_ns() > deadline_ns) {
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      obs_count("svc.rejected.deadline");
      respond(on_response,
              error_response(req.id, SvcErrorCode::kDeadlineExpired,
                             "deadline expired before evaluation started"),
              /*ok=*/false);
      finish_one();
      return;
    }

    core::RatInputs inputs;
    try {
      if (req.has_file) {
        inputs = io::load_worksheet(req.file);
      } else {
        inputs = core::RatInputs::parse(req.worksheet, "<request>");
        inputs.validate();
      }
    } catch (const core::ParseError& e) {
      respond(on_response, diagnostic_response(req.id, e.diagnostic()),
              /*ok=*/false);
      finish_one();
      return;
    } catch (const std::invalid_argument& e) {
      // validate() rejected a parseable worksheet; same taxonomy as the
      // file loader (E_INVALID_VALUE).
      respond(on_response,
              diagnostic_response(
                  req.id, core::Diagnostic{"<request>", 0, 0,
                                           core::ParseErrorCode::kInvalidValue,
                                           "", e.what()}),
              /*ok=*/false);
      finish_one();
      return;
    }

    const std::string key = canonical_text(inputs);
    const std::uint64_t fp = fnv1a64(key);
    ResultCache::Value cached;
    if (!req.no_cache) cached = cache_.get(key, fp);
    if (!cached) {
      auto computed =
          std::make_shared<const std::vector<core::ThroughputPrediction>>(
              core::predict_all(inputs));
      if (!req.no_cache) cache_.put(key, fp, computed);
      cached = std::move(computed);
    }
    respond(on_response, evaluate_response(req.id, fp, inputs, *cached),
            /*ok=*/true);
  } catch (const std::exception& e) {
    respond(on_response, internal_error_response(req.id, e.what()),
            /*ok=*/false);
  } catch (...) {
    respond(on_response,
            internal_error_response(req.id, "unknown internal error"),
            /*ok=*/false);
  }
  finish_one();
}

void Service::finish_one() {
  std::lock_guard lock(mu_);
  if (--in_flight_ == 0) drained_cv_.notify_all();
}

void Service::begin_drain() {
  std::lock_guard lock(mu_);
  draining_ = true;
}

void Service::wait_drained() {
  obs::ScopedTimer timer("svc.drain");
  std::unique_lock lock(mu_);
  drained_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void Service::drain() {
  begin_drain();
  wait_drained();
}

bool Service::draining() const {
  std::lock_guard lock(mu_);
  return draining_;
}

Service::Stats Service::stats() const {
  Stats st;
  st.requests = requests_.load(std::memory_order_relaxed);
  st.responses_ok = responses_ok_.load(std::memory_order_relaxed);
  st.responses_error = responses_error_.load(std::memory_order_relaxed);
  st.rejected_overloaded =
      rejected_overloaded_.load(std::memory_order_relaxed);
  st.rejected_draining = rejected_draining_.load(std::memory_order_relaxed);
  st.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(mu_);
    st.in_flight = in_flight_;
  }
  st.cache = cache_.stats();
  return st;
}

std::string Service::stats_response(const std::string& id) const {
  const Stats st = stats();
  std::string out;
  append_response_head(out, id, "ok");
  auto field = [&out](std::string_view key, std::uint64_t v) {
    out += key;
    io::append_json_int(out, v);
  };
  field(",\"op\":\"stats\",\"stats\":{\"requests\":", st.requests);
  field(",\"responses_ok\":", st.responses_ok);
  field(",\"responses_error\":", st.responses_error);
  field(",\"rejected_overloaded\":", st.rejected_overloaded);
  field(",\"rejected_draining\":", st.rejected_draining);
  field(",\"deadline_expired\":", st.deadline_expired);
  field(",\"in_flight\":", st.in_flight);
  field(",\"cache\":{\"hits\":", st.cache.hits);
  field(",\"misses\":", st.cache.misses);
  field(",\"evictions\":", st.cache.evictions);
  field(",\"size\":", st.cache.size);
  field(",\"bytes\":", st.cache.bytes);
  field(",\"capacity\":", cache_.capacity());
  out += ",\"hit_ratio\":";
  io::append_json_number(out, hit_ratio(st.cache));
  out += "}}}";
  return out;
}

}  // namespace rat::svc
