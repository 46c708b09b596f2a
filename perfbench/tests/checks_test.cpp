// Every output check must reject a corrupted input: an overlapping
// reservation, a finish past the deadline, a flipped admit decision, and the
// rest of the invariants each workload checks.
#include <gtest/gtest.h>

#include "checks.hpp"
#include "exp/registry.hpp"
#include "measure.hpp"
#include "svc/shard.hpp"
#include "workload/generator.hpp"

namespace perfbench {
namespace {

using namespace rtdls;

// --- replay_n16384: ScheduleChecker ------------------------------------------

constexpr double kCms = 1.0;
constexpr double kCps = 100.0;

/// Task 7 (sigma 10, arrival 0, deadline 1000) split evenly over nodes 0 and
/// 1, both free at 0: node 0 receives 0..5 and computes until 505, node 1
/// receives 5..10 and computes until 510; both are reserved until 510.
RetiredTask task7() { return RetiredTask{7, 0.0, 1000.0, 10.0}; }

std::vector<sim::ScheduleEntry> schedule7() {
  return {sim::ScheduleEntry{7, 0, 0.0, 0.0, 510.0, 0.5, kCps, 505.0},
          sim::ScheduleEntry{7, 1, 0.0, 0.0, 510.0, 0.5, kCps, 510.0}};
}

sim::SimMetrics metrics7() {
  sim::SimMetrics metrics;
  metrics.arrivals = 2;
  metrics.accepted = 1;
  metrics.rejected = 1;
  metrics.busy_time = 1020.0;
  return metrics;
}

/// Runs the checker over task 7 with `entries` and returns its verdict.
bool schedule_ok(const std::vector<sim::ScheduleEntry>& entries, RetiredTask task = task7(),
                 sim::SimMetrics metrics = metrics7(), std::size_t rows = 2) {
  ScheduleChecker checker(4, kCms);
  checker.on_admitted(7);
  checker.on_retired(task, entries);
  checker.finish(rows, metrics);
  return checker.log().ok();
}

TEST(ScheduleChecker, AcceptsAValidSchedule) { EXPECT_TRUE(schedule_ok(schedule7())); }

TEST(ScheduleChecker, RejectsAnOverlappingReservation) {
  ScheduleChecker checker(4, kCms);
  checker.on_admitted(7);
  checker.on_admitted(8);
  checker.on_retired(task7(), schedule7());
  // Task 8 books node 1 from 400, while task 7 holds it until 510.
  checker.on_retired(RetiredTask{8, 300.0, 2000.0, 1.0},
                     {sim::ScheduleEntry{8, 1, 400.0, 400.0, 600.0, 1.0, kCps, 501.0}});
  sim::SimMetrics metrics = metrics7();
  metrics.arrivals = 3;
  metrics.accepted = 2;
  metrics.busy_time = 1220.0;
  checker.finish(3, metrics);
  EXPECT_FALSE(checker.log().ok());
}

TEST(ScheduleChecker, RejectsAFinishPastTheDeadline) {
  RetiredTask task = task7();
  task.abs_deadline = 509.0;
  EXPECT_FALSE(schedule_ok(schedule7(), task));
}

TEST(ScheduleChecker, RejectsAnActualFinishPastTheReservation) {
  std::vector<sim::ScheduleEntry> entries = schedule7();
  entries[0].actual_finish = 511.0;
  EXPECT_FALSE(schedule_ok(entries));
}

TEST(ScheduleChecker, RejectsAStartBeforeTheNodeIsUsable) {
  std::vector<sim::ScheduleEntry> entries = schedule7();
  entries[1].usable_from = 2.0;
  EXPECT_FALSE(schedule_ok(entries));
}

TEST(ScheduleChecker, RejectsLoadFractionsNotSummingToOne) {
  std::vector<sim::ScheduleEntry> entries = schedule7();
  entries[1].alpha = 0.49;
  EXPECT_FALSE(schedule_ok(entries));
}

TEST(ScheduleChecker, RejectsAReservationShorterThanTheRecomputedFinish) {
  // Node 1 cannot finish before 510 under the single-installment model.
  std::vector<sim::ScheduleEntry> entries = schedule7();
  entries[1].end = 508.0;
  entries[1].actual_finish = 508.0;
  sim::SimMetrics metrics = metrics7();
  metrics.busy_time = 1018.0;
  EXPECT_FALSE(schedule_ok(entries, task7(), metrics));
}

TEST(ScheduleChecker, RejectsAFlippedAdmitDecision) {
  // A task the event loop rejected shows up retiring.
  ScheduleChecker retired_unadmitted(4, kCms);
  retired_unadmitted.on_retired(task7(), schedule7());
  retired_unadmitted.finish(2, metrics7());
  EXPECT_FALSE(retired_unadmitted.log().ok());

  // An admitted task never retires.
  ScheduleChecker never_retired(4, kCms);
  never_retired.on_admitted(7);
  never_retired.on_admitted(9);
  never_retired.on_retired(task7(), schedule7());
  sim::SimMetrics metrics = metrics7();
  metrics.accepted = 2;
  metrics.rejected = 0;
  never_retired.finish(2, metrics);
  EXPECT_FALSE(never_retired.log().ok());
}

TEST(ScheduleChecker, RejectsDecisionsThatDoNotCoverTheRows) {
  EXPECT_FALSE(schedule_ok(schedule7(), task7(), metrics7(), 3));
}

TEST(ScheduleChecker, RejectsABusyTimeThatDisagreesWithTheLog) {
  sim::SimMetrics metrics = metrics7();
  metrics.busy_time = 1021.0;
  EXPECT_FALSE(schedule_ok(schedule7(), task7(), metrics));
}

TEST(FirstDifference, NamesTheField) {
  sim::SimMetrics a = metrics7();
  sim::SimMetrics b = a;
  EXPECT_EQ(first_difference(a, b), "");
  b.response_time.add(1.0);
  EXPECT_EQ(first_difference(a, b), "response_time");
}

// --- paper_figures -----------------------------------------------------------

/// A two-algorithm baseline panel small enough for a unit test.
exp::Campaign tiny_campaign(bool halt_on_theorem4 = true) {
  exp::Scale scale;
  scale.runs = 2;
  scale.sim_time = 40000.0;
  exp::FigureSpec figure = exp::fig03_baseline(scale);
  figure.panels.front().loads = {0.6, 1.0};
  figure.panels.front().halt_on_theorem4 = halt_on_theorem4;
  return exp::Campaign({figure});
}

class CaptureSink final : public exp::ResultSink {
 public:
  void consume(const exp::Campaign&, const exp::CellResult& cell) override {
    if (cells.size() <= cell.ref.index) cells.resize(cell.ref.index + 1);
    cells[cell.ref.index] = cell.metrics;
  }
  std::vector<CellMetrics> cells;
};

TEST(PaperChecks, CampaignCellsMatchTheStatelessReference) {
  const exp::Campaign campaign = tiny_campaign();
  CaptureSink sink;
  exp::run_campaign(campaign, exp::CampaignOptions{}, sink);
  ASSERT_EQ(sink.cells.size(), campaign.cell_count());
  for (std::size_t i = 0; i < campaign.cell_count(); ++i) {
    CheckLog log;
    check_cell_matches(i, sink.cells[i], reference_cell(campaign, i), log);
    EXPECT_TRUE(log.ok()) << "cell " << i;
  }
}

TEST(PaperChecks, RejectsAFlippedAdmitDecision) {
  const exp::Campaign campaign = tiny_campaign();
  const CellMetrics reference = reference_cell(campaign, 0);
  const std::vector<workload::Task> tasks = workload::generate_workload(
      exp::cell_workload(campaign.sweeps()[0], campaign.sweeps()[0].loads[0], 0));
  CellMetrics flipped = reference;
  flipped[static_cast<std::size_t>(exp::SweepMetric::kRejectRatio)] +=
      1.0 / static_cast<double>(tasks.size());
  CheckLog log;
  check_cell_matches(0, flipped, reference, log);
  EXPECT_FALSE(log.ok());
}

TEST(PaperChecks, CellInvariants) {
  const exp::SweepSpec spec = tiny_campaign().sweeps()[0];
  const auto verdict = [&](const exp::SweepSpec& panel, exp::SweepMetric metric, double value,
                           std::size_t arrivals = 10) {
    CellMetrics cell{};
    cell[static_cast<std::size_t>(exp::SweepMetric::kRejectRatio)] = 0.3;
    cell[static_cast<std::size_t>(metric)] = value;
    CheckLog log;
    check_cell(panel, cell, arrivals, log);
    return log.ok();
  };
  EXPECT_TRUE(verdict(spec, exp::SweepMetric::kRejectRatio, 0.3));
  EXPECT_FALSE(verdict(spec, exp::SweepMetric::kRejectRatio, 1.2));
  EXPECT_FALSE(verdict(spec, exp::SweepMetric::kRejectRatio, -0.1));
  EXPECT_FALSE(verdict(spec, exp::SweepMetric::kRejectRatio, 0.3, 7));  // 2.1 rejections
  EXPECT_FALSE(verdict(spec, exp::SweepMetric::kTheorem4Violations, 1.0));
  EXPECT_FALSE(verdict(spec, exp::SweepMetric::kDeadlineMisses, 1.0));
  const exp::SweepSpec modelled = tiny_campaign(false).sweeps()[0];
  EXPECT_TRUE(verdict(modelled, exp::SweepMetric::kTheorem4Violations, 1.0));
  EXPECT_TRUE(verdict(modelled, exp::SweepMetric::kDeadlineMisses, 1.0));
}

// --- daemon_closed_loop ------------------------------------------------------

std::vector<Exchange> shard_exchanges() {
  workload::WorkloadParams params;
  params.system_load = 1.0;
  params.total_time = 200000.0;
  params.seed = 5;
  svc::AdmissionShard shard("EDF-DLT", svc::ShardConfig{params.cluster, true, false});
  std::vector<Exchange> exchanges;
  for (const workload::Task& task : workload::generate_workload(params)) {
    const svc::TaskRecord record = svc::TaskRecord::from_task(task);
    const svc::AdmitReply reply = shard.admit(record);
    exchanges.push_back(Exchange{record, reply.decision_seq, reply_digest(reply)});
  }
  return exchanges;
}

TEST(DaemonChecks, ReplayReproducesRecordedReplies) {
  const std::vector<Exchange> exchanges = shard_exchanges();
  ASSERT_GT(exchanges.size(), 20u);
  CheckLog log;
  check_shard_replay("EDF-DLT", cluster::ClusterParams{}, exchanges, log);
  EXPECT_TRUE(log.ok());
}

TEST(DaemonChecks, ReplayRejectsAFlippedAdmitDecision) {
  std::vector<Exchange> exchanges = shard_exchanges();
  svc::AdmissionShard shard("EDF-DLT", svc::ShardConfig{cluster::ClusterParams{}, true, false});
  for (std::size_t i = 0; i < 10; ++i) shard.admit(exchanges[i].task);
  svc::AdmitReply reply = shard.admit(exchanges[10].task);
  reply.accepted = !reply.accepted;
  exchanges[10].digest = reply_digest(reply);
  CheckLog log;
  check_shard_replay("EDF-DLT", cluster::ClusterParams{}, exchanges, log);
  EXPECT_FALSE(log.ok());
}

TEST(DaemonChecks, ReplayRejectsASequenceGap) {
  std::vector<Exchange> exchanges = shard_exchanges();
  exchanges.erase(exchanges.begin() + 3);
  CheckLog log;
  check_shard_replay("EDF-DLT", cluster::ClusterParams{}, exchanges, log);
  EXPECT_FALSE(log.ok());
}

TEST(DaemonChecks, RejectsAnAcceptPastTheDeadline) {
  svc::TaskRecord task;
  task.arrival = 100.0;
  task.rel_deadline = 50.0;
  svc::AdmitReply reply;
  reply.accepted = true;
  reply.est_completion = 150.0;
  CheckLog ok_log;
  check_deadline(task, reply, ok_log);
  EXPECT_TRUE(ok_log.ok());
  reply.est_completion = 150.5;
  CheckLog late_log;
  check_deadline(task, reply, late_log);
  EXPECT_FALSE(late_log.ok());
}

TEST(DaemonChecks, StatusMustMatchTheClientCounts) {
  svc::StatusReply status;
  status.shards.resize(1);
  status.shards[0].admits = 10;
  status.shards[0].accepted = 7;
  status.shards[0].rejected = 3;
  status.counters.admits = 10;
  CheckLog ok_log;
  check_status(status, {ShardTally{10, 7, 3}}, ok_log);
  EXPECT_TRUE(ok_log.ok());
  CheckLog flipped_log;
  check_status(status, {ShardTally{10, 6, 4}}, flipped_log);
  EXPECT_FALSE(flipped_log.ok());
  status.counters.errors = 1;
  CheckLog error_log;
  check_status(status, {ShardTally{10, 7, 3}}, error_log);
  EXPECT_FALSE(error_log.ok());
}

// --- measurement helpers -----------------------------------------------------

TEST(Measure, ExactNearestRankQuantiles) {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);
  const Quantiles q = exact_quantiles(samples);
  EXPECT_EQ(q.count, 1000u);
  EXPECT_EQ(q.p50, 500.0);
  EXPECT_EQ(q.p99, 990.0);
  EXPECT_TRUE(q.p99_supported);
  samples.resize(500);
  EXPECT_FALSE(exact_quantiles(samples).p99_supported);
}

TEST(Measure, WeightedQuantilesCountEachWeightAsSamples) {
  // 98 samples at 1.0, one at 5.0 and 901 at 2.0: ranks 500 and 990 are 2.0.
  Quantiles q = exact_quantiles({{5.0, 1}, {2.0, 901}, {1.0, 98}});
  EXPECT_EQ(q.count, 1000u);
  EXPECT_EQ(q.p50, 2.0);
  EXPECT_EQ(q.p99, 2.0);
  EXPECT_TRUE(q.p99_supported);
  q = exact_quantiles({{1.0, 989}, {7.0, 11}});
  EXPECT_EQ(q.p99, 7.0);
}

TEST(Measure, SpanTotalsFromRecorderJson) {
  const std::string json =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"sim.run\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":1.000,\"dur\":10.500,"
      "\"pid\":1,\"tid\":1},"
      "{\"name\":\"sim.arrival\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":2.000,\"dur\":3.250,"
      "\"pid\":1,\"tid\":1},"
      "{\"name\":\"svc.shard_locked\",\"cat\":\"svc\",\"ph\":\"i\",\"ts\":4.000,\"s\":\"t\","
      "\"pid\":1,\"tid\":2}]}";
  const SpanTotals totals = SpanTotals::from_json(json);
  EXPECT_EQ(totals.count("sim.run"), 1u);
  EXPECT_DOUBLE_EQ(totals.seconds("sim.run"), 10.5e-6);
  EXPECT_DOUBLE_EQ(totals.seconds("sim.arrival"), 3.25e-6);
  EXPECT_EQ(totals.count("svc.shard_locked"), 1u);
}

}  // namespace
}  // namespace perfbench
