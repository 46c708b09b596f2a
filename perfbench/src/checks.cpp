#include "checks.hpp"

#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>

#include "exp/runner.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "svc/shard.hpp"
#include "workload/generator.hpp"

namespace perfbench {

using namespace rtdls;

namespace {

template <typename... Parts>
std::string concat(const Parts&... parts) {
  std::ostringstream out;
  out.precision(17);
  (out << ... << parts);
  return out.str();
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

}  // namespace

void CheckLog::fail(std::string message) {
  if (kept_.size() < kKept) kept_.push_back(std::move(message));
  ++count_;
}

std::vector<std::string> CheckLog::messages() const {
  std::vector<std::string> out = kept_;
  if (count_ > kept_.size()) out.push_back(concat("... ", count_ - kept_.size(), " more"));
  return out;
}

// --- replay_n16384 ----------------------------------------------------------

ScheduleChecker::ScheduleChecker(std::size_t node_count, double cms)
    : cms_(cms), node_busy_until_(node_count, -INFINITY) {}

void ScheduleChecker::on_admitted(cluster::TaskId id) {
  ++admitted_;
  if (!outstanding_.insert(id).second) log_.fail(concat("task ", id, " admitted twice"));
}

void ScheduleChecker::on_retired(const RetiredTask& task,
                                 const std::vector<sim::ScheduleEntry>& entries) {
  ++retired_;
  if (outstanding_.erase(task.id) == 0) {
    log_.fail(concat("task ", task.id, " retired without being admitted"));
  }
  if (entries.empty()) {
    log_.fail(concat("task ", task.id, " retired with no reservation"));
    return;
  }
  double alpha_sum = 0.0;
  double channel_free = -INFINITY;
  for (const sim::ScheduleEntry& e : entries) {
    if (e.task != task.id) {
      log_.fail(concat("reservation of task ", e.task, " logged while task ", task.id,
                       " retired"));
      continue;
    }
    if (e.node >= node_busy_until_.size()) {
      log_.fail(concat("task ", task.id, " booked node ", e.node, " outside the cluster"));
      continue;
    }
    const bool ordered = task.arrival <= e.usable_from + kTimeSlack &&
                         e.usable_from <= e.start + kTimeSlack && e.start <= e.end + kTimeSlack;
    if (!ordered) {
      log_.fail(concat("task ", task.id, " node ", e.node, ": arrival ", task.arrival,
                       " usable_from ", e.usable_from, " start ", e.start, " end ", e.end,
                       " out of order"));
    }
    if (e.end > task.abs_deadline + kTimeSlack) {
      log_.fail(concat("task ", task.id, " node ", e.node, " ends at ", e.end,
                       " past its deadline ", task.abs_deadline));
    }
    if (e.actual_finish > e.end + kTimeSlack) {
      log_.fail(concat("task ", task.id, " node ", e.node, " actually finishes at ",
                       e.actual_finish, " past its reservation end ", e.end));
    }
    if (e.start + kTimeSlack < node_busy_until_[e.node]) {
      log_.fail(concat("node ", e.node, " booked twice: task ", task.id, " starts at ", e.start,
                       " before the previous reservation ends at ",
                       node_busy_until_[e.node]));
    }
    node_busy_until_[e.node] = e.end;

    // Single-installment rollout on a dedicated channel, in slot order.
    const double load = e.alpha * task.sigma;
    const double tx_start = std::max(e.start, channel_free);
    const double tx_end = tx_start + load * cms_;
    const double finish = tx_end + load * e.cps;
    channel_free = tx_end;
    if (finish > e.end + kTimeSlack) {
      log_.fail(concat("task ", task.id, " node ", e.node, ": recomputed finish ", finish,
                       " past reservation end ", e.end));
    }
    alpha_sum += e.alpha;
    busy_time_ += e.end - e.start;
  }
  if (std::fabs(alpha_sum - 1.0) > kSumTolerance) {
    log_.fail(concat("task ", task.id, " load fractions sum to ", alpha_sum));
  }
}

void ScheduleChecker::finish(std::size_t rows_written, const sim::SimMetrics& metrics) {
  if (metrics.accepted + metrics.rejected != rows_written ||
      metrics.arrivals != rows_written) {
    log_.fail(concat("accepted ", metrics.accepted, " + rejected ", metrics.rejected,
                     " (arrivals ", metrics.arrivals, ") != rows written ", rows_written));
  }
  if (admitted_ != metrics.accepted) {
    log_.fail(concat(admitted_, " tasks admitted by the event loop, metrics say ",
                     metrics.accepted));
  }
  if (!outstanding_.empty() || retired_ != admitted_) {
    log_.fail(concat(admitted_, " tasks admitted but ", retired_, " retired"));
  }
  const double scale = std::max(1.0, std::fabs(metrics.busy_time));
  if (std::fabs(busy_time_ - metrics.busy_time) > kSumTolerance * scale) {
    log_.fail(concat("logged busy time ", busy_time_, " != SimMetrics::busy_time ",
                     metrics.busy_time));
  }
}

std::string first_difference(const sim::SimMetrics& a, const sim::SimMetrics& b) {
  const auto stats_differ = [](const stats::RunningStats& x, const stats::RunningStats& y) {
    return x.count() != y.count() || !same_bits(x.mean(), y.mean()) ||
           !same_bits(x.variance(), y.variance()) || !same_bits(x.min(), y.min()) ||
           !same_bits(x.max(), y.max());
  };
  if (a.arrivals != b.arrivals) return "arrivals";
  if (a.accepted != b.accepted) return "accepted";
  if (a.rejected != b.rejected) return "rejected";
  if (a.reject_reasons != b.reject_reasons) return "reject_reasons";
  if (stats_differ(a.response_time, b.response_time)) return "response_time";
  if (stats_differ(a.wait_time, b.wait_time)) return "wait_time";
  if (stats_differ(a.deadline_slack, b.deadline_slack)) return "deadline_slack";
  if (stats_differ(a.nodes_per_task, b.nodes_per_task)) return "nodes_per_task";
  if (stats_differ(a.queue_length, b.queue_length)) return "queue_length";
  if (stats_differ(a.estimate_margin, b.estimate_margin)) return "estimate_margin";
  if (stats_differ(a.stagger, b.stagger)) return "stagger";
  if (stats_differ(a.iit_compression, b.iit_compression)) return "iit_compression";
  if (a.theorem4_violations != b.theorem4_violations) return "theorem4_violations";
  if (a.deadline_misses != b.deadline_misses) return "deadline_misses";
  if (a.backfill_fixed_point_fallbacks != b.backfill_fixed_point_fallbacks) {
    return "backfill_fixed_point_fallbacks";
  }
  if (a.planner_resolver_walks != b.planner_resolver_walks) return "planner_resolver_walks";
  if (a.planner_resolver_positions != b.planner_resolver_positions) {
    return "planner_resolver_positions";
  }
  if (a.planner_batch_passes != b.planner_batch_passes) return "planner_batch_passes";
  if (a.backfill_fixed_point_iterations != b.backfill_fixed_point_iterations) {
    return "backfill_fixed_point_iterations";
  }
  if (!same_bits(a.busy_time, b.busy_time)) return "busy_time";
  if (!same_bits(a.idle_gap_time, b.idle_gap_time)) return "idle_gap_time";
  if (!same_bits(a.horizon, b.horizon)) return "horizon";
  if (a.node_count != b.node_count) return "node_count";
  if (a.admission_peak_bytes != b.admission_peak_bytes) return "admission_peak_bytes";
  if (a.admission_peak_dense_bytes != b.admission_peak_dense_bytes) {
    return "admission_peak_dense_bytes";
  }
  return "";
}

// --- paper_figures ----------------------------------------------------------

CellMetrics cell_metrics(const sim::SimMetrics& metrics) {
  CellMetrics out{};
  const auto at = [&](exp::SweepMetric m) -> double& {
    return out[static_cast<std::size_t>(m)];
  };
  at(exp::SweepMetric::kRejectRatio) = metrics.reject_ratio();
  at(exp::SweepMetric::kMeanResponse) = metrics.response_time.mean();
  at(exp::SweepMetric::kMeanWait) = metrics.wait_time.mean();
  at(exp::SweepMetric::kUtilization) = metrics.utilization();
  at(exp::SweepMetric::kDeadlineMisses) = static_cast<double>(metrics.deadline_misses);
  at(exp::SweepMetric::kTheorem4Violations) = static_cast<double>(metrics.theorem4_violations);
  return out;
}

CellMetrics reference_cell(const exp::Campaign& campaign, std::size_t index) {
  const exp::CellRef ref = campaign.cell(index);
  const exp::SweepSpec& spec = campaign.sweeps()[ref.sweep];
  const std::vector<workload::Task> tasks =
      workload::generate_workload(exp::cell_workload(spec, spec.loads[ref.load], ref.run));
  sim::SimulatorConfig config;
  config.params = spec.materialized_cluster();
  config.release_policy = spec.release_policy;
  config.shared_link = spec.shared_link;
  config.output_ratio = spec.output_ratio;
  config.incremental_admission = false;
  const sched::Algorithm algorithm = sched::make_algorithm(spec.algorithms[ref.algorithm]);
  sim::ClusterSimulator simulator(config, algorithm);
  return cell_metrics(simulator.run(tasks, spec.sim_time));
}

void check_cell(const exp::SweepSpec& spec, const CellMetrics& cell, std::size_t arrivals,
                CheckLog& log) {
  const auto at = [&](exp::SweepMetric m) { return cell[static_cast<std::size_t>(m)]; };
  const double reject_ratio = at(exp::SweepMetric::kRejectRatio);
  if (!(reject_ratio >= 0.0 && reject_ratio <= 1.0)) {
    log.fail(concat(spec.id, ": reject ratio ", reject_ratio, " outside [0, 1]"));
  }
  const double rejected = reject_ratio * static_cast<double>(arrivals);
  if (std::fabs(rejected - std::round(rejected)) > 1e-6) {
    log.fail(concat(spec.id, ": reject ratio ", reject_ratio,
                    " is no whole number of rejections out of ", arrivals, " arrivals"));
  }
  // Panels that record Theorem-4 violations instead of halting model them
  // on purpose (the output-traffic ablation); every other panel must have
  // none, and no deadline miss either.
  if (spec.halt_on_theorem4 && (at(exp::SweepMetric::kTheorem4Violations) != 0.0 ||
                                at(exp::SweepMetric::kDeadlineMisses) != 0.0)) {
    log.fail(concat(spec.id, ": ", at(exp::SweepMetric::kTheorem4Violations),
                    " Theorem-4 violations and ", at(exp::SweepMetric::kDeadlineMisses),
                    " deadline misses"));
  }
}

void check_cell_matches(std::size_t index, const CellMetrics& cell, const CellMetrics& reference,
                        CheckLog& log) {
  for (std::size_t m = 0; m < cell.size(); ++m) {
    if (!same_bits(cell[m], reference[m])) {
      log.fail(concat("cell ", index, " ", exp::sweep_metric_name(static_cast<exp::SweepMetric>(m)),
                      " = ", cell[m], ", stateless reference = ", reference[m]));
    }
  }
}

// --- daemon_closed_loop -----------------------------------------------------

std::uint64_t reply_digest(const svc::AdmitReply& reply) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  };
  std::uint64_t est_bits = 0;
  std::memcpy(&est_bits, &reply.est_completion, sizeof(est_bits));
  mix(reply.accepted ? 1 : 0);
  mix(reply.reason);
  mix(reply.blocking_task);
  mix(reply.decision_seq);
  mix(est_bits);
  mix(reply.nodes);
  mix(reply.waiting);
  return h;
}

double check_shard_replay(const std::string& algorithm, const cluster::ClusterParams& params,
                          const std::vector<Exchange>& exchanges, CheckLog& log) {
  svc::AdmissionShard shard(algorithm, svc::ShardConfig{params, true, false});
  double seconds = 0.0;
  for (std::size_t i = 0; i < exchanges.size(); ++i) {
    const Exchange& exchange = exchanges[i];
    if (exchange.decision_seq != i) {
      log.fail(concat("decision ", i, " of the shard carries decision_seq ",
                      exchange.decision_seq));
      return seconds;
    }
    const auto start = std::chrono::steady_clock::now();
    const svc::AdmitReply reply = shard.admit(exchange.task);
    seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (reply_digest(reply) != exchange.digest) {
      log.fail(concat("decision ", i, " (task ", exchange.task.id,
                      ") replays to a different reply (accepted=", reply.accepted, ")"));
    }
  }
  return seconds;
}

void check_deadline(const svc::TaskRecord& task, const svc::AdmitReply& reply, CheckLog& log) {
  const double deadline = task.arrival + task.rel_deadline;
  if (reply.accepted && reply.est_completion > deadline + kTimeSlack) {
    log.fail(concat("task ", task.id, " accepted with est_completion ", reply.est_completion,
                    " past its deadline ", deadline));
  }
}

void check_status(const svc::StatusReply& status, const std::vector<ShardTally>& tallies,
                  CheckLog& log) {
  if (status.shards.size() != tallies.size()) {
    log.fail(concat("status lists ", status.shards.size(), " shards, clients used ",
                    tallies.size()));
    return;
  }
  std::uint64_t admits = 0;
  for (std::size_t s = 0; s < tallies.size(); ++s) {
    const svc::ShardStatus& shard = status.shards[s];
    const ShardTally& tally = tallies[s];
    admits += tally.admits;
    if (shard.admits != tally.admits || shard.accepted != tally.accepted ||
        shard.rejected != tally.rejected) {
      log.fail(concat("shard ", s, " status admits/accepted/rejected ", shard.admits, "/",
                      shard.accepted, "/", shard.rejected, ", clients counted ", tally.admits,
                      "/", tally.accepted, "/", tally.rejected));
    }
  }
  if (status.counters.admits != admits || status.counters.errors != 0 ||
      status.counters.timeouts != 0) {
    log.fail(concat("daemon counters admits=", status.counters.admits,
                    " errors=", status.counters.errors, " timeouts=", status.counters.timeouts,
                    ", clients sent ", admits, " admits"));
  }
}

}  // namespace perfbench
