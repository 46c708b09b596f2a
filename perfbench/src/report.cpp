#include <algorithm>
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

void add_latency_metrics(Result& result, const std::vector<Quantiles>& rounds) {
  std::size_t count = 0;
  std::vector<double> p50;
  std::vector<double> p99;
  for (const Quantiles& q : rounds) {
    count += q.count;
    p50.push_back(q.p50);
    p99.push_back(q.p99);
    if (!q.p99_supported) {
      result.fail("admit latency: a round's " + std::to_string(q.count) +
                  " samples leave fewer than ten beyond the p99");
    }
  }
  const double p50_us = median(p50);
  const double p99_us = median(p99);
  std::printf("admit latency: %zu samples in %zu rounds, median p50 %.3f us, median p99 %.3f us\n",
              count, rounds.size(), p50_us, p99_us);
  result.add("admit_p50_us", p50_us, "us");
  result.add("admit_p99_us", p99_us, "us");
}

void LayerMetrics::take_spans(const SpanTotals& spans) {
  loop_s = spans.seconds("sim.run") - spans.seconds("sim.arrival") - spans.seconds("sim.commit") -
           ingest_s;
  arrival_self_s = spans.seconds("sim.arrival") - spans.seconds("sim.admit_test");
  admit_test_s = spans.seconds("sim.admit_test");
  rollout_s = spans.seconds("sim.rollout");
  commit_s = spans.seconds("sim.commit") - spans.seconds("sim.rollout");
}

void LayerMetrics::take_counters(const RegistryMark& delta, double arrivals) {
  const auto per_arrival = [&](const char* counter) { return delta.counter(counter) / arrivals; };
  const auto mean = [&](const char* histogram) {
    return delta.histogram_sum(histogram) / std::max(1.0, delta.histogram_count(histogram));
  };
  resolver_positions_per_arrival = per_arrival("rtdls_planner_resolver_positions_total");
  batch_passes_per_arrival = per_arrival("rtdls_planner_batch_passes_total");
  session_rebuilds_per_arrival = per_arrival("rtdls_admission_session_rebuilds_total");
  delta_replays_per_arrival = per_arrival("rtdls_admission_delta_replays_total");
  checkpoints_per_arrival = per_arrival("rtdls_admission_checkpoints_total");
  backfill_fp_iterations_per_arrival =
      per_arrival("rtdls_planner_backfill_fixed_point_iterations_total");
  replan_suffix_mean = mean("rtdls_admission_replan_suffix");
  index_shift_entries_per_commit = mean("rtdls_index_commit_depth");
}

void LayerMetrics::add_to(Result& result) const {
  result.add("workload.generate_s", generate_s, "s");
  result.add("workload.ingest_s", ingest_s, "s");
  result.add("sim.loop_s", loop_s, "s");
  result.add("sim.arrival_self_s", arrival_self_s, "s");
  result.add("sim.rollout_s", rollout_s, "s");
  result.add("sim.peak_resident_tasks", peak_resident_tasks, "tasks");
  result.add("sched.admit_test_s", admit_test_s, "s");
  result.add("sched.resolver_positions_per_arrival", resolver_positions_per_arrival,
             "count/arrival");
  result.add("sched.batch_passes_per_arrival", batch_passes_per_arrival, "count/arrival");
  result.add("sched.session_rebuilds_per_arrival", session_rebuilds_per_arrival,
             "count/arrival");
  result.add("sched.delta_replays_per_arrival", delta_replays_per_arrival, "count/arrival");
  result.add("sched.checkpoints_per_arrival", checkpoints_per_arrival, "count/arrival");
  result.add("sched.replan_suffix_mean", replan_suffix_mean, "tasks");
  result.add("sched.backfill_fp_iterations_per_arrival", backfill_fp_iterations_per_arrival,
             "count/arrival");
  result.add("sched.session_peak_bytes", session_peak_bytes, "B");
  result.add("cluster.commit_s", commit_s, "s");
  result.add("cluster.index_shift_entries_per_commit", index_shift_entries_per_commit,
             "entries");
  result.add("exp.parallel_efficiency", parallel_efficiency, "ratio");
  result.add("exp.cell_p99_ms", cell_p99_ms, "ms");
  result.add("svc.server_request_p50_us", server_request_p50_us, "us");
  result.add("svc.shard_admit_us", shard_admit_us, "us");
  result.add("svc.transport_us", transport_us, "us");
  result.add("svc.lock_wait_us", lock_wait_us, "us");
  result.add("obs.trace_overhead_pct", trace_overhead_pct, "%");
}

}  // namespace perfbench
