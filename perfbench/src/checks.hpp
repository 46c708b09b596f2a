// Output checks. Each one recomputes what the program's output must satisfy
// from data the benchmark holds itself (the trace it wrote, the requests it
// sent, a separately computed reference), never from a stored copy of an
// earlier output. tests/checks_test.cpp shows every check rejecting a
// corrupted input.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "exp/campaign.hpp"
#include "sim/metrics.hpp"
#include "sim/schedule_log.hpp"
#include "svc/protocol.hpp"

namespace perfbench {

/// Absolute slack on simulated-time comparisons: the 1e-9 time units the
/// admission test itself grants a deadline comparison, far below any real
/// schedule gap at the workloads' magnitudes (times up to ~1e7).
inline constexpr double kTimeSlack = 1e-9;
/// Relative tolerance for sums accumulated in a different order
/// (busy time, load fractions).
inline constexpr double kSumTolerance = 1e-9;

/// Failures of one check: the first few messages, and how many in all.
class CheckLog {
 public:
  void fail(std::string message);
  bool ok() const { return count_ == 0; }
  std::size_t count() const { return count_; }
  /// The kept messages, plus a line for any that were not kept.
  std::vector<std::string> messages() const;

 private:
  static constexpr std::size_t kKept = 5;
  std::vector<std::string> kept_;
  std::size_t count_ = 0;
};

// --- replay_n16384 ----------------------------------------------------------

/// What the checker needs of a retired task, from the trace row.
struct RetiredTask {
  rtdls::cluster::TaskId id = 0;
  double arrival = 0.0;
  double abs_deadline = 0.0;
  double sigma = 0.0;
};

/// Checks a committed schedule as it streams out of the simulator, one
/// retired task at a time, so memory stays O(nodes + waiting tasks):
///  - every admitted task retires, and only admitted tasks retire;
///  - no node is booked twice at once;
///  - arrival <= usable_from <= start <= end <= absolute deadline, and
///    actual_finish <= end;
///  - the task's load fractions sum to 1;
///  - each node's finish under the single-installment model (the head node
///    sends alpha_i*sigma*Cms to each node in slot order, starting no
///    earlier than the node's start, and the node then computes
///    alpha_i*sigma*Cps_i) is <= end;
/// and, in finish(), accepted + rejected == rows written and the logged
/// busy time sum(end - start) equals SimMetrics::busy_time.
class ScheduleChecker {
 public:
  ScheduleChecker(std::size_t node_count, double cms);

  void on_admitted(rtdls::cluster::TaskId id);
  /// `entries`: every reservation committed for `task`, in slot order.
  void on_retired(const RetiredTask& task, const std::vector<rtdls::sim::ScheduleEntry>& entries);
  void finish(std::size_t rows_written, const rtdls::sim::SimMetrics& metrics);

  const CheckLog& log() const { return log_; }
  std::size_t retired() const { return retired_; }

 private:
  double cms_;
  std::vector<double> node_busy_until_;
  std::unordered_set<rtdls::cluster::TaskId> outstanding_;
  std::size_t admitted_ = 0;
  std::size_t retired_ = 0;
  double busy_time_ = 0.0;
  CheckLog log_;
};

/// Every SimMetrics field the simulator's output consists of, compared bit
/// for bit; returns the first differing field's name, or "" when equal.
std::string first_difference(const rtdls::sim::SimMetrics& a, const rtdls::sim::SimMetrics& b);

// --- paper_figures ----------------------------------------------------------

using CellMetrics = std::array<double, rtdls::exp::kSweepMetricCount>;

/// The campaign's mapping of one simulation onto a cell's metric row.
CellMetrics cell_metrics(const rtdls::sim::SimMetrics& metrics);

/// Re-runs cell `index` with the stateless Figure-2 test on every arrival
/// (SimulatorConfig::incremental_admission = false), the reference mode the
/// incremental session must reproduce bit for bit.
CellMetrics reference_cell(const rtdls::exp::Campaign& campaign, std::size_t index);

/// Cell-level invariants: 0 <= reject ratio <= 1, the ratio is a whole
/// number of rejections out of `arrivals`, and - on panels that do not model
/// them on purpose - no Theorem-4 violation and no deadline miss.
void check_cell(const rtdls::exp::SweepSpec& spec, const CellMetrics& cell,
                std::size_t arrivals, CheckLog& log);

/// The cell equals its reference bit for bit.
void check_cell_matches(std::size_t index, const CellMetrics& cell,
                        const CellMetrics& reference, CheckLog& log);

// --- daemon_closed_loop -----------------------------------------------------

/// Order-sensitive digest of every field of an admit reply.
std::uint64_t reply_digest(const rtdls::svc::AdmitReply& reply);

/// One admit as a client saw it: what it sent and what came back.
struct Exchange {
  rtdls::svc::TaskRecord task;
  std::uint64_t decision_seq = 0;
  std::uint64_t digest = 0;
};

/// Replays one shard's exchanges, ordered by decision_seq, through a fresh
/// AdmissionShard and requires identical replies (and a gap-free sequence).
/// Returns the seconds spent inside AdmissionShard::admit.
double check_shard_replay(const std::string& algorithm,
                          const rtdls::cluster::ClusterParams& params,
                          const std::vector<Exchange>& exchanges, CheckLog& log);

/// An accepted reply promises completion by the task's absolute deadline.
void check_deadline(const rtdls::svc::TaskRecord& task, const rtdls::svc::AdmitReply& reply,
                    CheckLog& log);

/// Client-side tallies of one shard.
struct ShardTally {
  std::uint64_t admits = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
};

/// The daemon's status counters equal what the clients counted.
void check_status(const rtdls::svc::StatusReply& status, const std::vector<ShardTally>& tallies,
                  CheckLog& log);

}  // namespace perfbench
