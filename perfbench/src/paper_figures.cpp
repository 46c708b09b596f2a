// paper_figures: every registry figure (exp::all_figures at the campaign
// CLI's default scale, 5 runs x 2e6 time units per point) run in-process
// through exp::run_campaign on a pool of at most nproc lanes. N = 16 here,
// so the time goes to workload generation, the campaign and the planning
// rules at small N; the cluster index does almost nothing.
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "checks.hpp"
#include "exp/campaign.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rtdls;

namespace {

/// Every 61st cell (plus the first cell of any panel the stride misses) is
/// re-run against the stateless reference and, with --trace 1, traced. 61 is
/// prime, so the sample walks across loads, runs and algorithms.
constexpr std::size_t kSampleStride = 61;

/// Keeps each cell's metrics and the time its lane spent on it: the gap
/// between the lane's previous completion (or the round's start) and this
/// one, which covers the cell's simulation and, for the first cell of a
/// (load, run) pair, generating its input.
class CellTimingSink final : public exp::ResultSink {
 public:
  explicit CellTimingSink(std::size_t cells) : metrics_(cells), seconds_(cells, 0.0) {}

  void begin_round() {
    std::lock_guard<std::mutex> lock(mutex_);
    lane_last_.clear();
    round_start_ = Clock::now();
  }

  void consume(const exp::Campaign&, const exp::CellResult& cell) override {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    auto [lane, inserted] = lane_last_.try_emplace(std::this_thread::get_id(), round_start_);
    seconds_[cell.ref.index] = std::chrono::duration<double>(now - lane->second).count();
    lane->second = now;
    metrics_[cell.ref.index] = cell.metrics;
  }

  const std::vector<CellMetrics>& metrics() const { return metrics_; }
  const std::vector<double>& seconds() const { return seconds_; }

 private:
  std::mutex mutex_;
  std::unordered_map<std::thread::id, Clock::time_point> lane_last_;
  Clock::time_point round_start_;
  std::vector<CellMetrics> metrics_;
  std::vector<double> seconds_;
};

class DiscardSink final : public exp::ResultSink {
 public:
  void consume(const exp::Campaign&, const exp::CellResult&) override {}
};

std::vector<std::size_t> sample_cells(const exp::Campaign& campaign) {
  std::vector<std::size_t> sample;
  for (std::size_t s = 0; s < campaign.sweeps().size(); ++s) {
    const std::size_t begin = campaign.sweep_offset(s);
    const std::size_t end = campaign.sweep_offset(s + 1);
    const std::size_t first = (begin + kSampleStride - 1) / kSampleStride * kSampleStride;
    if (first >= end) sample.push_back(begin);
    for (std::size_t i = first; i < end; i += kSampleStride) sample.push_back(i);
  }
  return sample;
}

}  // namespace

Result run_paper_figures(const Options& options) {
  Result result;

  // --- set-up: campaign plan, every cell's input size, pool -----------------
  std::vector<exp::FigureSpec> figures = exp::all_figures(exp::Scale{});
  for (exp::FigureSpec& figure : figures) {
    for (exp::SweepSpec& panel : figure.panels) panel.seed = options.seed;
  }
  const exp::Campaign campaign(std::move(figures));
  const std::vector<exp::SweepSpec>& sweeps = campaign.sweeps();

  // One input per (panel, load, run), shared by the panel's algorithms.
  std::vector<std::size_t> input_offset(sweeps.size() + 1, 0);
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    input_offset[s + 1] = input_offset[s] + sweeps[s].loads.size() * sweeps[s].runs;
  }
  std::vector<std::size_t> input_arrivals(input_offset.back());
  const Clock::time_point generate_start = Clock::now();
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    for (std::size_t l = 0; l < sweeps[s].loads.size(); ++l) {
      for (std::size_t r = 0; r < sweeps[s].runs; ++r) {
        input_arrivals[input_offset[s] + l * sweeps[s].runs + r] =
            workload::generate_workload(exp::cell_workload(sweeps[s], sweeps[s].loads[l], r))
                .size();
      }
    }
  }
  const double generate_s = seconds_since(generate_start);
  const auto cell_arrivals = [&](std::size_t index) {
    const exp::CellRef ref = campaign.cell(index);
    return input_arrivals[input_offset[ref.sweep] + ref.load * sweeps[ref.sweep].runs + ref.run];
  };

  util::ThreadPool pool(cpu_budget());
  const std::size_t lanes = std::min(pool.size(), campaign.cell_count());
  CellTimingSink sink(campaign.cell_count());
  const double setup_s = seconds_since(process_start());

  // --- timed phase: whole campaigns until the time is up --------------------
  exp::CampaignOptions run_options;
  run_options.pool = &pool;
  std::vector<CellMetrics> first_round;
  // The campaign hides single arrivals: each cell stands for its arrivals,
  // each at the cell's lane time divided by its arrivals.
  std::vector<std::pair<double, std::uint64_t>> latency_us;
  std::vector<Quantiles> round_latency;
  std::vector<double> cell_ms;
  CheckLog determinism;
  double wall = 0.0;
  double lane_busy = 0.0;
  std::size_t rounds = 0;
  std::vector<double> round_rates;
  std::vector<double> round_cpu;
  const RegistryMark before = RegistryMark::take();
  while (rounds == 0 || wall < options.seconds) {
    sink.begin_round();
    const RegistryMark round_before = RegistryMark::take();
    const double cpu_before = process_cpu_seconds();
    const Clock::time_point start = Clock::now();
    exp::run_campaign(campaign, run_options, sink);
    const double round_wall = seconds_since(start);
    round_cpu.push_back(process_cpu_seconds() - cpu_before);
    round_rates.push_back(
        RegistryMark::take().delta(round_before).counter("rtdls_sim_arrivals_total") / round_wall);
    wall += round_wall;
    ++rounds;
    latency_us.clear();
    for (std::size_t i = 0; i < campaign.cell_count(); ++i) {
      const double seconds = sink.seconds()[i];
      lane_busy += seconds;
      cell_ms.push_back(seconds * 1e3);
      latency_us.emplace_back(seconds * 1e6 / static_cast<double>(cell_arrivals(i)),
                              cell_arrivals(i));
    }
    round_latency.push_back(exact_quantiles(latency_us));
    if (rounds == 1) {
      first_round = sink.metrics();
    } else {
      for (std::size_t i = 0; i < campaign.cell_count(); ++i) {
        check_cell_matches(i, sink.metrics()[i], first_round[i], determinism);
      }
    }
  }
  const double rss = peak_rss_mb();
  const RegistryMark timed = RegistryMark::take().delta(before);

  const double decisions = timed.counter("rtdls_sim_arrivals_total");
  result.attempted = static_cast<std::uint64_t>(decisions);
  std::printf("paper_figures: %zu cells x %zu round(s) in %.3f s on %zu lanes, %.0f decisions\n",
              campaign.cell_count(), rounds, wall, lanes, decisions);

  // --- checks -----------------------------------------------------------------
  result.absorb("rounds agree", determinism.messages());
  CheckLog counts;
  double expected = 0.0;
  for (std::size_t i = 0; i < campaign.cell_count(); ++i) {
    expected += static_cast<double>(cell_arrivals(i));
  }
  expected *= static_cast<double>(rounds);
  if (decisions != expected) {
    counts.fail("simulated " + std::to_string(decisions) + " arrivals, inputs hold " +
                std::to_string(expected));
  }
  if (timed.counter("rtdls_sim_accepted_total") + timed.counter("rtdls_sim_rejected_total") !=
      decisions) {
    counts.fail("accepted + rejected != arrivals");
  }
  result.absorb("decision counts", counts.messages());

  CheckLog cells;
  for (std::size_t i = 0; i < campaign.cell_count(); ++i) {
    check_cell(sweeps[campaign.cell(i).sweep], first_round[i], cell_arrivals(i), cells);
  }
  result.absorb("cell invariants", cells.messages());

  const std::vector<std::size_t> sample = sample_cells(campaign);
  std::vector<CellMetrics> reference(sample.size());
  pool.parallel_for(sample.size(),
                    [&](std::size_t k) { reference[k] = reference_cell(campaign, sample[k]); });
  CheckLog matches;
  for (std::size_t k = 0; k < sample.size(); ++k) {
    check_cell_matches(sample[k], first_round[sample[k]], reference[k], matches);
  }
  result.absorb("stateless reference", matches.messages());
  std::printf("paper_figures: %zu sampled cells over %zu panels match the stateless test\n",
              sample.size(), sweeps.size());

  if (!options.trace) {
    result.add("setup_s", setup_s, "s");
    result.add("decisions_per_s", median(round_rates), "1/s");
    result.add("cpu_s", median(round_cpu), "s");
    result.add("peak_rss_mb", rss, "MB");
    add_latency_metrics(result, round_latency);
    return result;
  }

  // --- traced pass: the sample, serially, untraced then traced --------------
  exp::CampaignOptions sample_options;
  sample_options.cells = &sample;
  DiscardSink discard;
  const RegistryMark untraced_before = RegistryMark::take();
  Clock::time_point start = Clock::now();
  exp::run_campaign(campaign, sample_options, discard);
  const double untraced_wall = seconds_since(start);
  const double sample_arrivals =
      RegistryMark::take().delta(untraced_before).counter("rtdls_sim_arrivals_total");

  // Each arrival records sim.arrival and sim.admit_test; each commit event
  // sim.commit and, when it commits, sim.rollout. Eight per arrival leaves
  // room for superseded commit events; an overflow fails the run.
  TraceSession session(static_cast<std::size_t>(8 * sample_arrivals) + 4096);
  const RegistryMark traced_before = RegistryMark::take();
  start = Clock::now();
  exp::run_campaign(campaign, sample_options, discard);
  const double traced_wall = seconds_since(start);
  const RegistryMark traced = RegistryMark::take().delta(traced_before);
  const SpanTotals spans = SpanTotals::from_json(session.finish());

  const double arrivals = traced.counter("rtdls_sim_arrivals_total");
  LayerMetrics layers;
  layers.generate_s = generate_s;
  layers.take_spans(spans);
  layers.take_counters(traced, arrivals);
  layers.parallel_efficiency = lane_busy / (static_cast<double>(lanes) * wall);
  layers.cell_p99_ms = exact_quantiles(std::move(cell_ms)).p99;
  layers.trace_overhead_pct =
      trace_overhead_pct(sample_arrivals / untraced_wall, arrivals / traced_wall);
  layers.add_to(result);
  return result;
}

}  // namespace perfbench
