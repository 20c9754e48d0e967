// The campaign phase: an offline designer session with no service,
// I/O layer or sockets. It explores a seeded 12,288-point design grid
// with the pruned explorer in its default identity mode and runs a
// 100k-sample Monte-Carlo band on each case-study worksheet, repeating
// both until its time budget is spent.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/designspace.hpp"
#include "core/evaluation.hpp"
#include "core/montecarlo.hpp"
#include "core/parameters.hpp"
#include "core/precision.hpp"
#include "core/throughput.hpp"
#include "explore/explorer.hpp"
#include "harness.hpp"
#include "io/json.hpp"
#include "rcsim/device.hpp"
#include "util/rng.hpp"

namespace ratbench {
namespace {

using namespace rat;

constexpr std::size_t kMonteCarloSamples = 100000;
constexpr std::size_t kReferenceValues = 256;

/// The grid, requirements and precision reference of one campaign. The
/// seed draws the reference signal the precision test runs on; the grid
/// and the goal are fixed, so every seed does the same amount of work.
struct Campaign {
  core::DesignAxes axes;
  core::Requirements req;
  rcsim::Device device = rcsim::virtex4_lx100();
  core::RatInputs base;
  std::vector<double> reference;
};

Campaign make_campaign(const core::RatInputs& base, std::uint64_t seed) {
  Campaign c;
  c.base = base;
  c.axes.parallelism.clear();
  c.axes.fclock_hz.clear();
  c.axes.format_bits.clear();
  for (std::size_t p = 1; p <= 32; ++p) c.axes.parallelism.push_back(p);
  for (int i = 0; i < 32; ++i) c.axes.fclock_hz.push_back((80.0 + 5.0 * i) * 1e6);
  for (int b = 10; b <= 32; b += 2) c.axes.format_bits.push_back(b);

  util::Rng rng(seed ^ 0xc0ffee5eedull);
  c.reference.resize(kReferenceValues);
  for (double& v : c.reference) v = rng.uniform(0.0, 1.0);
  // Formats below 16 bits cannot meet the tolerance, so every narrow
  // point that passes the throughput gate runs the full 17-width
  // precision sweep and is rejected there.
  c.req.min_speedup = 5.0;
  c.req.precision = core::PrecisionRequirements{0.004, 8, 24, 0};
  return c;
}

/// Counts (and, when asked, times) factory calls.
struct FactoryProbe {
  std::atomic<std::size_t> calls{0};
  bool timed = false;
  std::vector<double> call_us;  ///< only filled when timed (one thread)
};

/// Speedup rises with parallelism and clock and falls with format width
/// (Eqs. 5-6), so the explorer's corner bounds are admissible. Formats
/// below 16 bits are fast enough to pass the throughput gate earlier but
/// too coarse for the precision tolerance.
core::CandidateFactory make_factory(const Campaign& c, FactoryProbe* probe) {
  return [&c, probe](const core::DesignPoint& p)
             -> std::optional<core::DesignCandidate> {
    const std::uint64_t t0 = probe && probe->timed ? now_ns() : 0;
    core::DesignCandidate cand;
    cand.inputs = c.base;
    cand.inputs.name = p.label();
    // Narrow datapaths pack more operations per cycle into each lane.
    cand.inputs.comp.throughput_ops_per_cycle =
        0.35 * static_cast<double>(p.parallelism) * 16.0 /
        static_cast<double>(p.format_bits);
    cand.inputs.dataset.bytes_per_element =
        static_cast<double>((p.format_bits + 7) / 8);
    cand.precision_reference = c.reference;
    const int point_bits = p.format_bits;
    cand.precision_kernel = [&c, point_bits](fx::Format fmt) {
      const int bits = std::min(point_bits, fmt.total_bits);
      const fx::Format held{bits, bits - 1, true};
      std::vector<double> out(c.reference.size());
      for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = fx::Fixed::from_double(c.reference[i], held).to_double();
      return out;
    };
    cand.resources = {core::ResourceItem{"units", 1, p.format_bits, 0, 400,
                                         static_cast<int>(p.parallelism)}};
    if (probe) {
      probe->calls.fetch_add(1, std::memory_order_relaxed);
      if (probe->timed)
        probe->call_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    return cand;
  };
}

/// Byte image of a design-space result: the trace, the verdict and every
/// prediction's bits — equal images mean identical results.
std::string render(const core::DesignSpaceResult& r) {
  std::string out = r.outcome.render_trace();
  out += r.outcome.proceed ? "|proceed" : "|exhausted";
  for (const auto& p : r.outcome.predictions)
    out.append(reinterpret_cast<const char*>(&p), sizeof p);
  for (const auto& s : r.skipped_labels) out += "|" + s;
  return out;
}

std::string mc_image(const core::MonteCarloResult& r) {
  std::string out;
  auto add = [&out](const core::Percentiles& p) {
    out.append(reinterpret_cast<const char*>(&p), sizeof p);
  };
  add(r.speedup_sb);
  add(r.speedup_db);
  add(r.t_rc_sb_sec);
  add(r.t_comm_sec);
  add(r.t_comp_sec);
  out.append(reinterpret_cast<const char*>(&r.probability_of_goal),
             sizeof r.probability_of_goal);
  out.append(reinterpret_cast<const char*>(r.speedup_sb_samples.data()),
             r.speedup_sb_samples.size() * sizeof(double));
  return out;
}

double fastest(const std::vector<double>& xs) {
  return *std::min_element(xs.begin(), xs.end());
}

std::string samples_json(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ',';
    out += io::json_number(xs[i]);
  }
  return out + "]";
}

core::RatInputs load_fixture(const Env& env, const char* file) {
  std::ifstream f(env.fixtures_dir / file);
  std::ostringstream text;
  text << f.rdbuf();
  return core::RatInputs::parse(text.str(), file);
}

/// Per-layer campaign costs for the traced run.
void campaign_layers(const Env& env, const Campaign& c,
                     const std::vector<core::RatInputs>& sheets,
                     double explore_s, const explore::ExploreStats& stats,
                     std::size_t factory_calls, Report& report,
                     Tracer& tracer) {
  // Factory cost, timed inside the factory on a serial pruned run.
  {
    FactoryProbe probe;
    probe.timed = true;
    auto s = tracer.span("explore.pruned_timed_factory");
    explore::explore_design_space_pruned(c.axes, make_factory(c, &probe),
                                         c.req, c.device);
    report.set("explore.factory_us", median(probe.call_us), "us",
               probe.call_us.size());
  }
  report.set("explore.factory_calls", static_cast<double>(factory_calls),
             "count");
  report.set("explore.points_evaluated",
             static_cast<double>(stats.points_evaluated), "count");
  report.set("explore.points_bounded",
             static_cast<double>(stats.points_bounded), "count");
  report.set("explore.corner_evaluations",
             static_cast<double>(stats.corner_evaluations), "count");

  // The exhaustive scan on the same grid.
  std::vector<double> exhaustive;
  const auto factory = make_factory(c, nullptr);
  for (int i = 0; i < 3; ++i) {
    auto s = tracer.span("core.explore_design_space");
    const std::uint64_t t0 = now_ns();
    core::explore_design_space(c.axes, factory, c.req, c.device);
    exhaustive.push_back(seconds_since(t0));
  }
  const double exhaustive_s = median(exhaustive);
  report.set("explore.exhaustive_s", exhaustive_s, "s", exhaustive.size());
  report.set("explore.pruning_speedup", exhaustive_s / explore_s, "x");

  // The batch kernel over every grid point.
  std::vector<core::DesignPoint> points;
  const auto candidates =
      core::enumerate_design_space(c.axes, factory, nullptr, &points);
  core::ThroughputBatch batch;
  batch.reserve(candidates.size());
  for (const auto& cand : candidates)
    batch.push_back_unchecked(cand.inputs, cand.decision_clock_hz);
  std::vector<double> batch_rate;
  for (int i = 0; i < 15; ++i) {
    auto s = tracer.span("core.predict_batch");
    const std::uint64_t t0 = now_ns();
    core::predict_batch(batch);
    batch_rate.push_back(static_cast<double>(batch.size()) /
                         seconds_since(t0) / 1e6);
  }
  report.set("core.predict_batch_mpts_per_s", median(batch_rate), "Mpts/s",
             batch_rate.size());

  // One gate pipeline and one quantized sweep per sampled candidate.
  std::vector<double> eval_us, sweep_us;
  const std::size_t stride = std::max<std::size_t>(1, candidates.size() / 256);
  for (std::size_t i = 0; i < candidates.size(); i += stride) {
    const auto& cand = candidates[i];
    const auto pred = core::predict(cand.inputs, cand.decision_clock_hz);
    {
      auto s = tracer.span("core.evaluate_candidate");
      const std::uint64_t t0 = now_ns();
      const auto ev = core::evaluate_candidate(i, cand, c.req, c.device, pred);
      eval_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      (void)ev;
    }
    const auto precision = core::run_precision_test(
        cand.precision_kernel, cand.precision_reference, *c.req.precision);
    std::vector<fx::PrecisionChoice> sweep = precision.sweep;
    {
      auto s = tracer.span("core.quantized_throughput_sweep");
      const std::uint64_t t0 = now_ns();
      const auto q = core::quantized_throughput_sweep(
          cand.inputs, cand.decision_clock_hz, sweep);
      sweep_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      (void)q;
    }
  }
  report.set("core.evaluate_candidate_us", median(eval_us), "us",
             eval_us.size());
  report.set("core.precision_sweep_us", median(sweep_us), "us",
             sweep_us.size());

  // Monte Carlo: serial band time, scaling, and the percentile step.
  std::vector<double> one_thread, all_threads, pct_ms;
  for (std::size_t w = 0; w < sheets.size(); ++w) {
    const auto model = core::UncertaintyModel::typical(sheets[w]);
    std::uint64_t t0 = now_ns();
    core::MonteCarloResult serial;
    {
      auto s = tracer.span("core.run_monte_carlo.1t");
      serial = core::run_monte_carlo(sheets[w], model, kMonteCarloSamples,
                                     c.req.min_speedup, env.seed + w, 1);
    }
    one_thread.push_back(seconds_since(t0));
    t0 = now_ns();
    {
      auto s = tracer.span("core.run_monte_carlo.nproc");
      core::run_monte_carlo(sheets[w], model, kMonteCarloSamples,
                            c.req.min_speedup, env.seed + w, env.nproc);
    }
    all_threads.push_back(seconds_since(t0));
    // percentiles_of sorts its input: time it on five shuffled copies of
    // the band's samples, the five vectors a band summarises.
    std::mt19937_64 shuffle_rng(env.seed + w);
    double band_ms = 0.0;
    for (int k = 0; k < 5; ++k) {
      std::vector<double> xs = serial.speedup_sb_samples;
      std::shuffle(xs.begin(), xs.end(), shuffle_rng);
      auto s = tracer.span("core.percentiles_of");
      const std::uint64_t p0 = now_ns();
      core::percentiles_of(xs);
      band_ms += static_cast<double>(now_ns() - p0) / 1e6;
    }
    pct_ms.push_back(band_ms);
  }
  const double serial_s = median(one_thread);
  report.set("core.montecarlo_1t_s", serial_s, "s", one_thread.size());
  report.set("core.montecarlo_scaling", serial_s / median(all_threads), "x",
             all_threads.size());
  report.set("core.percentiles_of_ms", median(pct_ms), "ms", pct_ms.size());
}

}  // namespace

/// Everything the campaign keeps between its timed slices.
struct CampaignPhase::State {
  std::vector<core::RatInputs> sheets;
  std::vector<core::UncertaintyModel> models;
  Campaign campaign;
  FactoryProbe probe;
  core::CandidateFactory factory;
  std::optional<std::size_t> winner_index;
  std::size_t factory_calls = 0;
  explore::ExploreStats stats;
  std::size_t precision_tests = 0;
  std::vector<double> explore_s, band_s;
};

CampaignPhase::CampaignPhase(const Env& env, Report& report, Tracer& tracer)
    : env_(env), report_(report), tracer_(tracer), s_(new State) {
  auto phase = tracer_.span("campaign.prepare");
  s_->sheets = {load_fixture(env, "pdf1d.rat"), load_fixture(env, "pdf2d.rat"),
                load_fixture(env, "md.rat")};
  s_->campaign = make_campaign(s_->sheets[0], env.seed);
  const Campaign& c = s_->campaign;
  report_.check(c.axes.size() >= 10000, "campaign grid has >= 10k points");

  // Correctness first: the pruned result must equal the exhaustive one,
  // and Monte-Carlo bands must not depend on the thread count.
  s_->factory = make_factory(c, &s_->probe);
  explore::ExploreResult pruned;
  {
    auto span = tracer_.span("explore.explore_design_space_pruned");
    pruned = explore::explore_design_space_pruned(c.axes, s_->factory, c.req,
                                                  c.device);
  }
  s_->factory_calls = s_->probe.calls.load();
  s_->stats = pruned.stats;
  s_->winner_index = pruned.winner_index;
  for (const auto& t : pruned.design.outcome.trace)
    if (t.step == core::Step::kPrecisionTest) ++s_->precision_tests;
  core::DesignSpaceResult exhaustive;
  {
    auto span = tracer_.span("core.explore_design_space");
    exhaustive = core::explore_design_space(c.axes, make_factory(c, nullptr),
                                            c.req, c.device);
  }
  if (env.inject == "explore" && !pruned.design.outcome.predictions.empty())
    pruned.design.outcome.predictions.back().speedup_sb *= 1.0 + 1e-12;
  report_.check(render(pruned.design) == render(exhaustive) &&
                    pruned.winner_index == exhaustive.outcome.accepted_index,
                "pruned exploration equals the exhaustive scan");
  report_.check(pruned.design.outcome.proceed,
                "the campaign finds a passing design");
  report_.check(pruned.stats.points_bounded > 0,
                "the throughput bound prunes part of the grid");
  report_.check(s_->precision_tests > 0,
                "throughput survivors run the precision sweep");

  for (std::size_t w = 0; w < s_->sheets.size(); ++w) {
    s_->models.push_back(core::UncertaintyModel::typical(s_->sheets[w]));
    const auto serial = core::run_monte_carlo(
        s_->sheets[w], s_->models[w], kMonteCarloSamples, c.req.min_speedup,
        env.seed + w, 1);
    const auto parallel = core::run_monte_carlo(
        s_->sheets[w], s_->models[w], kMonteCarloSamples, c.req.min_speedup,
        env.seed + w, env.nproc);
    report_.check(mc_image(serial) == mc_image(parallel),
                  "Monte-Carlo band of " + s_->sheets[w].name +
                      " is identical at 1 and nproc threads");
  }
}

CampaignPhase::~CampaignPhase() = default;

void CampaignPhase::run_for(double seconds) {
  // Alternate one grid and one band, the band's sheet rotating, until the
  // slice is spent (at least three rounds, so every slice contributes to
  // both metrics and covers every sheet).
  auto phase = tracer_.span("campaign.timed");
  const Campaign& c = s_->campaign;
  const std::uint64_t t_start = now_ns();
  for (int round = 0; round < 3 || seconds_since(t_start) < seconds; ++round) {
    {
      auto span = tracer_.span("explore.explore_design_space_pruned");
      const std::uint64_t t0 = now_ns();
      const auto r = explore::explore_design_space_pruned(c.axes, s_->factory,
                                                          c.req, c.device);
      s_->explore_s.push_back(seconds_since(t0));
      report_.check(r.winner_index == s_->winner_index,
                    "repeated exploration finds the same winner");
    }
    const std::size_t w = s_->band_s.size() % s_->sheets.size();
    auto span = tracer_.span("core.run_monte_carlo");
    const std::uint64_t t0 = now_ns();
    const auto r = core::run_monte_carlo(s_->sheets[w], s_->models[w],
                                         kMonteCarloSamples,
                                         c.req.min_speedup, env_.seed + w,
                                         env_.nproc);
    s_->band_s.push_back(seconds_since(t0));
    report_.check(r.n_samples == kMonteCarloSamples,
                  "Monte-Carlo band has every sample");
  }
}

void CampaignPhase::finish() {
  const State& s = *s_;
  report_.attempted += s.explore_s.size() + s.band_s.size();
  if (!env_.trace) {
    // The fastest repetition: on a shared host, neighbours only ever slow a
    // CPU-bound repetition down, and whole stretches of a run can be
    // slowed (README.md, "Host noise"), which moves the median with them.
    report_.set("explore_s", fastest(s.explore_s), "s", s.explore_s.size());
    report_.set("montecarlo_s", fastest(s.band_s), "s", s.band_s.size());
    report_.info("explore_median_s", median(s.explore_s), "s",
                 s.explore_s.size());
    report_.info("montecarlo_median_s", median(s.band_s), "s",
                 s.band_s.size());
  } else {
    auto phase = tracer_.span("campaign.layers");
    campaign_layers(env_, s.campaign, s.sheets, median(s.explore_s), s.stats,
                    s.factory_calls, report_, tracer_);
    report_.info("explore_s", fastest(s.explore_s), "s", s.explore_s.size());
    report_.info("montecarlo_s", fastest(s.band_s), "s", s.band_s.size());
  }
  std::ostringstream note;
  note << "{\"points_total\":" << s.stats.points_total
       << ",\"points_evaluated\":" << s.stats.points_evaluated
       << ",\"points_bounded\":" << s.stats.points_bounded
       << ",\"points_pruned\":" << s.stats.points_pruned
       << ",\"corner_evaluations\":" << s.stats.corner_evaluations
       << ",\"precision_tests\":" << s.precision_tests
       << ",\"winner_index\":"
       << (s.winner_index ? static_cast<long long>(*s.winner_index) : -1LL)
       << ",\"min_speedup\":" << s.campaign.req.min_speedup
       << ",\"explore_s\":" << samples_json(s.explore_s)
       << ",\"montecarlo_s\":" << samples_json(s.band_s) << "}";
  report_.note("campaign", note.str());
}

}  // namespace ratbench
