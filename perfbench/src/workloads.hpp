// The benchmark's workloads. Each runs its set-up, a timed phase of whole
// rounds lasting at least Options::seconds, its output checks, and - with
// Options::trace - a traced pass that yields the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the run's files (relative to the working
  /// directory); the caller removes it.
  std::string workdir;
};

Result run_paper_figures(const Options& options);
Result run_replay(const Options& options);
Result run_daemon(const Options& options);

/// Adds admit_p50_us / admit_p99_us (microseconds): the medians over the
/// timed phase's rounds (or windows) of each round's exact quantiles, so a
/// stall of the machine during one round does not move them. Prints the
/// sample count; a round whose p99 has fewer than ten samples beyond it
/// fails the run rather than report a tail it cannot see.
void add_latency_metrics(Result& result, const std::vector<Quantiles>& rounds);

/// Every per-layer metric. A layer a workload does not run reads 0 there
/// (README.md lists which apply where).
struct LayerMetrics {
  double generate_s = 0.0;
  double ingest_s = 0.0;
  double loop_s = 0.0;
  double arrival_self_s = 0.0;
  double rollout_s = 0.0;
  double peak_resident_tasks = 0.0;
  double admit_test_s = 0.0;
  double resolver_positions_per_arrival = 0.0;
  double batch_passes_per_arrival = 0.0;
  double session_rebuilds_per_arrival = 0.0;
  double delta_replays_per_arrival = 0.0;
  double checkpoints_per_arrival = 0.0;
  double replan_suffix_mean = 0.0;
  double backfill_fp_iterations_per_arrival = 0.0;
  double session_peak_bytes = 0.0;
  double commit_s = 0.0;
  double index_shift_entries_per_commit = 0.0;
  double parallel_efficiency = 0.0;
  double cell_p99_ms = 0.0;
  double server_request_p50_us = 0.0;
  double shard_admit_us = 0.0;
  double transport_us = 0.0;
  double lock_wait_us = 0.0;
  double trace_overhead_pct = 0.0;

  /// The simulator's spans: sim.run, sim.arrival, sim.admit_test,
  /// sim.commit, sim.rollout. `ingest_s` must be set first (it runs inside
  /// sim.run but outside its child spans).
  void take_spans(const SpanTotals& spans);
  /// The admission session's and planner's counters over `arrivals`.
  void take_counters(const RegistryMark& delta, double arrivals);

  void add_to(Result& result) const;
};

/// Percentage by which tracing lowered a decision rate.
inline double trace_overhead_pct(double untraced_rate, double traced_rate) {
  return (untraced_rate - traced_rate) / untraced_rate * 100.0;
}

}  // namespace perfbench
