// replay_n16384: a generated trace at the paper's Cms=1, Cps=100,
// Avgsigma=200, DCRatio=2 on N = 16384 nodes, written with save_trace and
// replayed through TraceReader -> StreamingTaskSource -> run_stream with
// EDF-DLT and the default index choice. Tasks take ~120 of the 16384 nodes,
// so the per-arrival passes over all N nodes (node selection, the session's
// frontier merge, availability snapshots) dominate.
#include <cstdio>

#include "checks.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/task_source.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rtdls;

namespace {

constexpr std::size_t kNodes = 16384;
/// SystemLoad is calibrated against E(Avgsigma, N), the time of a task
/// spread over all N nodes, but a task here takes only ~120 nodes; 60 puts
/// the cluster near 0.95 utilization with a short waiting queue (mean
/// ~1.6, max ~25) and ~8% of tasks rejected.
constexpr double kSystemLoad = 60.0;
/// ~30k arrivals, 2-4.5 s per replay on the reference machine.
constexpr double kHorizon = 100'000.0;

/// Sits between the simulator and the streaming source. Times the source's
/// own peek/pop (ingest: CSV parsing and chunk recycling) and each arrival's
/// decision latency - from the moment the loop has read the arrival to its
/// pop, which covers the commits due before it and the admission test, as
/// AdmissionShard::admit does in one call. With a checker attached, it also
/// drains the schedule log into the checker as each task retires.
class MeasuredSource final : public sim::TaskSource {
 public:
  MeasuredSource(sim::TaskSource& inner, std::vector<double>* latency_us, ScheduleChecker* checker,
                 sim::ScheduleLog* log)
      : inner_(inner), latency_us_(latency_us), checker_(checker), log_(log) {}

  const workload::Task* peek() override {
    const Clock::time_point start = Clock::now();
    const workload::Task* task = inner_.peek();
    read_at_ = Clock::now();
    ingest_ += read_at_ - start;
    return task;
  }

  void pop() override {
    const Clock::time_point start = Clock::now();
    if (latency_us_ != nullptr) {
      latency_us_->push_back(std::chrono::duration<double, std::micro>(start - read_at_).count());
    }
    inner_.pop();
    ingest_ += Clock::now() - start;
  }

  void on_task_admitted(const workload::Task* task) override {
    if (checker_ != nullptr) checker_->on_admitted(task->id);
    inner_.on_task_admitted(task);
  }

  void on_task_retired(const workload::Task* task) override {
    if (checker_ != nullptr) {
      checker_->on_retired(RetiredTask{task->id, task->arrival(), task->abs_deadline(),
                                       task->sigma()},
                           log_->entries());
      log_->clear();
    }
    inner_.on_task_retired(task);
  }

  double ingest_seconds() const { return std::chrono::duration<double>(ingest_).count(); }

 private:
  sim::TaskSource& inner_;
  std::vector<double>* latency_us_;
  ScheduleChecker* checker_;
  sim::ScheduleLog* log_;
  Clock::time_point read_at_;
  Clock::duration ingest_{0};
};

struct Replay {
  sim::SimMetrics metrics;
  double ingest_s = 0.0;
  std::size_t peak_resident_tasks = 0;
};

Replay replay(const std::string& path, const cluster::ClusterParams& params,
              std::vector<double>* latency_us, ScheduleChecker* checker) {
  sim::ScheduleLog log;
  sim::SimulatorConfig config;
  config.params = params;
  if (checker != nullptr) config.schedule_log = &log;
  const sched::Algorithm algorithm = sched::make_algorithm("EDF-DLT");
  workload::TraceReader reader(path);
  sim::StreamingTaskSource stream(reader);
  MeasuredSource source(stream, latency_us, checker, &log);
  sim::ClusterSimulator simulator(config, algorithm);
  Replay out;
  out.metrics = simulator.run_stream(source, kHorizon);
  out.ingest_s = source.ingest_seconds();
  out.peak_resident_tasks = stream.peak_resident_tasks();
  return out;
}

/// Removes the trace file on every exit path.
struct TempFile {
  std::string path;
  ~TempFile() { std::remove(path.c_str()); }
};

}  // namespace

Result run_replay(const Options& options) {
  Result result;

  // --- set-up: generate and write the trace, then the checked replay -------
  workload::WorkloadParams params;
  params.cluster.node_count = kNodes;
  params.cluster.cms = 1.0;
  params.cluster.cps = 100.0;
  params.system_load = kSystemLoad;
  params.avg_sigma = 200.0;
  params.dc_ratio = 2.0;
  params.total_time = kHorizon;
  params.seed = options.seed;
  const Clock::time_point generate_start = Clock::now();
  std::size_t rows = 0;
  const TempFile trace{options.workdir + "/replay_trace.csv"};
  {
    const std::vector<workload::Task> tasks = workload::generate_workload(params);
    rows = tasks.size();
    workload::save_trace_file(trace.path, tasks);
  }
  const double generate_s = seconds_since(generate_start);
  // The checked replay streams its schedule into the checker, and every
  // timed round must reproduce its metrics. Run in set-up, it warms the
  // allocator, the page cache and the code before the first timed round,
  // and gives set-up enough work that a brief slow spell of the machine
  // moves setup_s by a share rather than by a multiple (generating and
  // writing the trace alone takes ~80 ms).
  ScheduleChecker checker(kNodes, params.cluster.cms);
  const Replay checked = replay(trace.path, params.cluster, nullptr, &checker);
  const sim::SimMetrics& expected = checked.metrics;
  const double setup_s = seconds_since(process_start());

  // --- timed phase: whole replays until the time is up ----------------------
  // One round's latencies; the capacity is reused, so the resident set does
  // not grow with the number of rounds.
  std::vector<double> latency_us;
  latency_us.reserve(rows);
  std::vector<Quantiles> round_latency;
  CheckLog determinism;
  double wall = 0.0;
  double decisions = 0.0;
  std::size_t rounds = 0;
  std::vector<double> round_rates;
  std::vector<double> round_cpu;
  while (rounds == 0 || wall < options.seconds) {
    const double cpu_before = process_cpu_seconds();
    latency_us.clear();
    const Clock::time_point start = Clock::now();
    const Replay run = replay(trace.path, params.cluster, &latency_us, nullptr);
    const double round_wall = seconds_since(start);
    round_latency.push_back(exact_quantiles(latency_us));
    round_cpu.push_back(process_cpu_seconds() - cpu_before);
    round_rates.push_back(static_cast<double>(run.metrics.arrivals) / round_wall);
    wall += round_wall;
    ++rounds;
    decisions += static_cast<double>(run.metrics.arrivals);
    if (const std::string field = first_difference(run.metrics, expected); !field.empty()) {
      determinism.fail("replay " + std::to_string(rounds) + " differs from the checked replay in " +
                       field);
    }
  }
  const double rss = peak_rss_mb();
  result.attempted = static_cast<std::uint64_t>(decisions);
  std::printf("replay_n16384: %zu rows x %zu replay(s) in %.3f s; accepted %zu, rejected %zu, "
              "utilization %.4f, mean queue %.3f\n",
              rows, rounds, wall, expected.accepted, expected.rejected, expected.utilization(),
              expected.queue_length.mean());

  // --- checks ------------------------------------------------------------------
  result.absorb("replays agree", determinism.messages());
  checker.finish(rows, expected);
  result.absorb("schedule", checker.log().messages());
  std::printf("replay_n16384: %zu retired tasks checked\n", checker.retired());

  if (!options.trace) {
    result.add("setup_s", setup_s, "s");
    result.add("decisions_per_s", median(round_rates), "1/s");
    result.add("cpu_s", median(round_cpu), "s");
    result.add("peak_rss_mb", rss, "MB");
    add_latency_metrics(result, round_latency);
    return result;
  }

  // --- traced pass: one more replay with the recorder armed -----------------
  // Per arrival sim.arrival and sim.admit_test, per commit event sim.commit
  // and sim.rollout; eight per row leaves room for superseded commits.
  TraceSession session(8 * rows + 4096);
  const RegistryMark before = RegistryMark::take();
  const Clock::time_point start = Clock::now();
  const Replay traced = replay(trace.path, params.cluster, nullptr, nullptr);
  const double traced_wall = seconds_since(start);
  const RegistryMark counters = RegistryMark::take().delta(before);
  const SpanTotals spans = SpanTotals::from_json(session.finish());

  LayerMetrics layers;
  layers.generate_s = generate_s;
  layers.ingest_s = traced.ingest_s;
  layers.take_spans(spans);
  layers.take_counters(counters, static_cast<double>(traced.metrics.arrivals));
  layers.peak_resident_tasks = static_cast<double>(traced.peak_resident_tasks);
  layers.session_peak_bytes = static_cast<double>(traced.metrics.admission_peak_bytes);
  layers.trace_overhead_pct = trace_overhead_pct(
      median(round_rates), static_cast<double>(traced.metrics.arrivals) / traced_wall);
  layers.add_to(result);
  return result;
}

}  // namespace perfbench
