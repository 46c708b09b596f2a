// daemon_closed_loop: an in-process svc::Daemon over its real Unix socket,
// driven in a closed loop by C client threads with one connection each
// (C <= nproc, one worker per connection). Every shard is shared by two
// connections, so requests wait for shard locks. N = 16, so the request
// path (frames, socket, worker hand-off, lock wait) carries most of the
// time and the cluster/sched layers little.
#include <algorithm>
#include <latch>
#include <thread>
#include <unordered_map>

#include "checks.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rtdls;

namespace {

constexpr std::size_t kNodes = 16;
/// Each shard's arrivals come from one generated trace at SystemLoad 1.0
/// (the top of the paper's load axis), which keeps the waiting queue short
/// while a share of admits is rejected. The two connections of a shard take
/// alternate tasks of that trace, so their arrivals interleave as the
/// closed loop advances; the trace repeats, shifted by its horizon, for as
/// long as the clients run (~70k tasks per period).
constexpr double kShardLoad = 1.0;
constexpr double kShardHorizon = 100'000'000.0;
/// Admits per connection in the set-up's warm-up.
constexpr std::size_t kWarmupAdmits = 32768;
/// Admits between two looks at the clock in the timed phase.
constexpr std::size_t kBatch = 64;
/// Admits per connection in the traced pass.
constexpr std::size_t kTracedAdmits = 16384;
/// cpu_s is reported per this many admits.
constexpr double kAdmitsPerRound = 65536.0;

/// One admit as its client recorded it; the request itself is recomputed
/// from (connection, index) when needed.
struct Record {
  std::uint64_t digest = 0;
  std::uint32_t decision_seq = 0;
  float latency_us = 0.0f;
  /// The one-second window of the timed phase in which the reply arrived.
  std::uint32_t window = 0;
};
constexpr std::uint32_t kFailedSeq = ~std::uint32_t{0};

class ShardInputs {
 public:
  ShardInputs(std::size_t shards, std::uint64_t seed) {
    workload::WorkloadParams params;
    params.cluster.node_count = kNodes;
    params.system_load = kShardLoad;
    params.total_time = kShardHorizon;
    params.seed = seed;
    for (std::size_t s = 0; s < shards; ++s) {
      params.stream = s;
      traces_.push_back(workload::generate_workload(params));
    }
  }

  /// Task q of shard s: trace row q mod M, shifted by whole horizons.
  svc::TaskRecord task(std::size_t shard, std::uint64_t q) const {
    const std::vector<workload::Task>& trace = traces_[shard];
    svc::TaskRecord record = svc::TaskRecord::from_task(trace[q % trace.size()]);
    record.id = q + 1;
    record.arrival += static_cast<double>(q / trace.size()) * kShardHorizon;
    return record;
  }

 private:
  std::vector<std::vector<workload::Task>> traces_;
};

/// One connection's closed loop. Its j-th admit carries task 2j + lane of
/// its shard's sequence.
struct Connection {
  std::size_t shard = 0;
  std::size_t lane = 0;
  std::unique_ptr<svc::Client> client;
  std::unique_ptr<Spool<Record>> records;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  ShardTally tally;
  CheckLog deadlines;
  std::string error;
  Clock::time_point windows_origin;
  Clock::time_point finished;

  void admit(const ShardInputs& inputs) {
    svc::AdmitRequest request;
    request.shard = static_cast<std::uint32_t>(shard);
    request.task = inputs.task(shard, 2 * sent + lane);
    ++sent;
    Record record;
    const Clock::time_point start = Clock::now();
    try {
      const svc::AdmitReply reply = client->admit(request);
      const Clock::time_point end = Clock::now();
      record.latency_us = std::chrono::duration<float, std::micro>(end - start).count();
      record.window = static_cast<std::uint32_t>(
          std::chrono::duration_cast<std::chrono::seconds>(end - windows_origin).count());
      record.decision_seq = static_cast<std::uint32_t>(reply.decision_seq);
      record.digest = reply_digest(reply);
      ++tally.admits;
      ++(reply.accepted ? tally.accepted : tally.rejected);
      check_deadline(request.task, reply, deadlines);
    } catch (const std::exception& e) {
      ++failed;
      record.decision_seq = kFailedSeq;
      if (error.empty()) error = e.what();
    }
    records->push(record);
  }
};

/// Runs `body` on one thread per connection, all released together; returns
/// the release instant. Threads are joined on every path.
template <typename Body>
Clock::time_point run_connections(std::vector<Connection>& connections, Body body) {
  std::latch ready(static_cast<std::ptrdiff_t>(connections.size() + 1));
  std::vector<std::jthread> threads;
  threads.reserve(connections.size());
  try {
    for (Connection& connection : connections) {
      threads.emplace_back([&ready, &connection, &body] {
        ready.arrive_and_wait();
        body(connection);
        connection.finished = Clock::now();
      });
    }
  } catch (...) {
    // Release the threads already started so that joining them can finish.
    ready.count_down(static_cast<std::ptrdiff_t>(connections.size() + 1 - threads.size()));
    throw;
  }
  ready.arrive_and_wait();
  return Clock::now();
}

double elapsed(Clock::time_point start, const std::vector<Connection>& connections) {
  Clock::time_point last = start;
  for (const Connection& connection : connections) last = std::max(last, connection.finished);
  return std::chrono::duration<double>(last - start).count();
}

/// Mean time from an admit's start to its shard-lock acquisition.
double mean_lock_wait_us(const std::string& json) {
  std::unordered_map<std::uint32_t, std::uint64_t> admit_start;
  double total_ns = 0.0;
  std::uint64_t waits = 0;
  for_each_trace_event(json, [&](const TraceEvent& event) {
    if (event.name == "svc.admit") {
      admit_start[event.tid] = event.ts_ns;
    } else if (event.name == "svc.shard_locked") {
      const auto it = admit_start.find(event.tid);
      if (it == admit_start.end()) return;
      total_ns += static_cast<double>(event.ts_ns - it->second);
      ++waits;
      admit_start.erase(it);
    }
  });
  return waits == 0 ? 0.0 : total_ns / static_cast<double>(waits) * 1e-3;
}

}  // namespace

Result run_daemon(const Options& options) {
  Result result;

  // --- set-up: inputs, daemon start, connections, warm-up -------------------
  // A client thread and the worker serving it each need a CPU, so the loop
  // runs nproc/2 connections (at least two, always in pairs sharing a shard)
  // and never oversubscribes the machine.
  const std::size_t connection_count = std::max<std::size_t>(2, cpu_budget() / 4 * 2);
  const std::size_t shard_count = connection_count / 2;
  const Clock::time_point generate_start = Clock::now();
  const ShardInputs inputs(shard_count, options.seed);
  const double generate_s = seconds_since(generate_start);

  svc::DaemonConfig config;
  config.socket_path = options.workdir + "/daemon.sock";
  config.algorithm = "EDF-DLT";
  config.params.node_count = kNodes;
  config.shards = shard_count;
  config.workers = connection_count;
  config.default_deadline_ms = 60000;
  svc::Daemon daemon(config);
  daemon.start();
  std::vector<Connection> connections(connection_count);
  for (std::size_t c = 0; c < connection_count; ++c) {
    connections[c].shard = c / 2;
    connections[c].lane = c % 2;
    connections[c].client = std::make_unique<svc::Client>(config.socket_path, 60000);
    connections[c].records = std::make_unique<Spool<Record>>(
        options.workdir + "/connection" + std::to_string(c) + ".rec");
  }
  // A fixed number of admits per connection before the timed phase, so the
  // first window meets warm sessions, sockets and workers. It also gives
  // set-up enough work that a brief slow spell of the machine moves setup_s
  // by a share rather than by a multiple (without it set-up lasts ~20 ms).
  // Its replies are checked with the rest; its latencies are not reported.
  run_connections(connections, [&](Connection& connection) {
    for (std::size_t i = 0; i < kWarmupAdmits; ++i) connection.admit(inputs);
  });
  std::uint64_t warmup_failed = 0;
  for (const Connection& connection : connections) warmup_failed += connection.failed;
  const double setup_s = seconds_since(process_start());

  // --- timed phase: one-second windows, reported as medians ----------------
  // The loop is continuous, so its windows play the part of the simulator
  // workloads' rounds: a stall of the machine moves one window, not the
  // medians.
  const auto windows = static_cast<std::size_t>(options.seconds);
  const Clock::time_point origin = Clock::now();
  const Clock::time_point stop_at = origin + std::chrono::seconds(windows);
  for (Connection& connection : connections) connection.windows_origin = origin;
  std::vector<double> cpu_at(windows + 1, 0.0);
  cpu_at[0] = process_cpu_seconds();
  Clock::time_point start;
  {
    std::jthread cpu_sampler([&] {
      for (std::size_t w = 1; w <= windows; ++w) {
        std::this_thread::sleep_until(origin + std::chrono::seconds(w));
        cpu_at[w] = process_cpu_seconds();
      }
    });
    start = run_connections(connections, [&](Connection& connection) {
      do {
        for (std::size_t i = 0; i < kBatch; ++i) connection.admit(inputs);
      } while (Clock::now() < stop_at);
    });
  }
  const double wall = elapsed(start, connections);
  const double rss = peak_rss_mb();
  const double server_p50_us = daemon.metrics_registry()
                                   .histogram_sample("rtdls_daemon_request_latency_us")
                                   .quantile(0.5);
  std::vector<std::uint64_t> timed_sent;
  std::uint64_t admits = 0;
  for (const Connection& connection : connections) {
    timed_sent.push_back(connection.sent);
    admits += connection.sent - kWarmupAdmits;
    result.failed += connection.failed;
  }
  result.failed -= warmup_failed;
  result.attempted = admits;

  // --- traced pass: a fixed number of admits per connection -----------------
  double traced_wall = 0.0;
  std::string trace_json;
  RegistryMark traced_counters;
  if (options.trace) {
    // svc.request, svc.admit and svc.shard_locked per admit, all on the
    // worker serving that connection.
    TraceSession session(3 * kTracedAdmits + 4096);
    const RegistryMark before = RegistryMark::take();
    const Clock::time_point traced_start = run_connections(connections, [&](Connection& c) {
      for (std::size_t i = 0; i < kTracedAdmits; ++i) c.admit(inputs);
    });
    traced_wall = elapsed(traced_start, connections);
    traced_counters = RegistryMark::take().delta(before);
    trace_json = session.finish();
  }

  // --- checks ----------------------------------------------------------------
  std::vector<ShardTally> tallies(shard_count);
  std::vector<std::vector<Exchange>> exchanges(shard_count);
  std::vector<std::vector<double>> window_latency_us(windows);
  for (std::size_t c = 0; c < connection_count; ++c) {
    Connection& connection = connections[c];
    if (!connection.error.empty()) {
      result.fail("connection " + std::to_string(c) + ": " + connection.error);
    }
    result.absorb("admitted within deadline", connection.deadlines.messages());
    ShardTally& tally = tallies[connection.shard];
    tally.admits += connection.tally.admits;
    tally.accepted += connection.tally.accepted;
    tally.rejected += connection.tally.rejected;
    const std::vector<Record> records = connection.records->read_all();
    for (std::size_t j = 0; j < records.size(); ++j) {
      if (records[j].decision_seq == kFailedSeq) continue;
      if (j >= kWarmupAdmits && j < timed_sent[c] && records[j].window < windows) {
        window_latency_us[records[j].window].push_back(records[j].latency_us);
      }
      exchanges[connection.shard].push_back(Exchange{
          inputs.task(connection.shard, 2 * j + connection.lane), records[j].decision_seq,
          records[j].digest});
    }
  }
  const svc::StatusReply status = connections.front().client->status();
  CheckLog status_log;
  check_status(status, tallies, status_log);
  result.absorb("status counters", status_log.messages());

  double replay_seconds = 0.0;
  std::size_t replayed = 0;
  std::uint64_t accepted = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    std::sort(exchanges[s].begin(), exchanges[s].end(),
              [](const Exchange& a, const Exchange& b) { return a.decision_seq < b.decision_seq; });
    CheckLog replay_log;
    replay_seconds += check_shard_replay(config.algorithm, config.params, exchanges[s], replay_log);
    replayed += exchanges[s].size();
    accepted += tallies[s].accepted;
    result.absorb("shard " + std::to_string(s) + " replay", replay_log.messages());
  }
  std::printf("daemon_closed_loop: %zu connections on %zu shards, %llu admits in %.3f s "
              "(%.1f%% accepted); %zu replies replayed\n",
              connection_count, shard_count, static_cast<unsigned long long>(admits), wall,
              100.0 * static_cast<double>(accepted) / static_cast<double>(replayed), replayed);

  std::vector<double> window_rates;
  std::vector<double> window_cpu;
  std::vector<Quantiles> window_latency;
  std::vector<double> window_p50;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto replies = static_cast<double>(window_latency_us[w].size());
    window_rates.push_back(replies);
    window_cpu.push_back((cpu_at[w + 1] - cpu_at[w]) / (replies / kAdmitsPerRound));
    window_latency.push_back(exact_quantiles(std::move(window_latency_us[w])));
    window_p50.push_back(window_latency.back().p50);
  }
  const double decisions_per_s = median(window_rates);

  if (!options.trace) {
    result.add("setup_s", setup_s, "s");
    result.add("decisions_per_s", decisions_per_s, "1/s");
    result.add("cpu_s", median(window_cpu), "s");
    result.add("peak_rss_mb", rss, "MB");
    add_latency_metrics(result, window_latency);
    return result;
  }

  const double traced_admits = static_cast<double>(kTracedAdmits * connection_count);
  LayerMetrics layers;
  layers.generate_s = generate_s;
  layers.take_counters(traced_counters, traced_admits);
  for (const svc::ShardStatus& shard : status.shards) {
    layers.session_peak_bytes =
        std::max(layers.session_peak_bytes, static_cast<double>(shard.peak_session_bytes));
  }
  layers.server_request_p50_us = server_p50_us;
  layers.shard_admit_us = replay_seconds / static_cast<double>(replayed) * 1e6;
  layers.transport_us = median(window_p50) - server_p50_us;
  layers.lock_wait_us = mean_lock_wait_us(trace_json);
  layers.trace_overhead_pct =
      trace_overhead_pct(decisions_per_s, traced_admits / traced_wall);
  layers.add_to(result);
  return result;
}

}  // namespace perfbench
