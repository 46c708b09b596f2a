// Measurement helpers shared by the workloads: clocks and process
// resources, exact order statistics, registry deltas, trace-span totals,
// an on-disk sample spool and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Captured during static initialization, i.e. as the process starts.
Clock::time_point process_start();

double seconds_since(Clock::time_point t0);

/// User plus system CPU seconds of the whole process (every thread).
double process_cpu_seconds();

/// Peak resident set of the process so far, in MiB (VmHWM of
/// /proc/self/status; getrusage ru_maxrss where that is unreadable).
double peak_rss_mb();

/// CPUs this process may run on (sched_getaffinity), at least 1.
std::size_t cpu_budget();

/// Exact nearest-rank order statistics over every sample.
struct Quantiles {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// At least ten samples lie beyond the p99 rank.
  bool p99_supported = false;
};
Quantiles exact_quantiles(std::vector<double> samples);
/// The same over (value, weight) pairs, each standing for `weight` equal
/// samples.
Quantiles exact_quantiles(std::vector<std::pair<double, std::uint64_t>> weighted);

/// Median of per-round figures (mean of the middle two for an even count).
double median(std::vector<double> values);

/// The run's outcome; print() writes the one-line JSON result.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> failures;

  void add(std::string name, double value, std::string unit);
  /// Records a failed output check (the run then reports correct=false).
  void fail(std::string message);
  /// Adds a batch of check failures, prefixed with the check's name.
  void absorb(const std::string& check, const std::vector<std::string>& messages);
  void print() const;
};

/// Counter values and histogram (count, sum) of the process-global
/// obs::Registry at one instant; delta() subtracts an earlier mark.
class RegistryMark {
 public:
  static RegistryMark take();
  double counter(std::string_view name) const;
  double histogram_count(std::string_view name) const;
  double histogram_sum(std::string_view name) const;
  RegistryMark delta(const RegistryMark& earlier) const;

 private:
  std::map<std::string, double, std::less<>> counters_;
  std::map<std::string, std::pair<double, double>, std::less<>> histograms_;
};

/// One event of a Chrome trace-event JSON document as obs::TraceRecorder
/// writes it ("X" complete spans and "i" instants; times in ns).
struct TraceEvent {
  std::string_view name;
  char phase = 'X';
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
};

/// Calls `visit` for every event of `json`, in document order (which the
/// recorder sorts by start time). Throws std::runtime_error on a document
/// that does not have the recorder's shape.
void for_each_trace_event(std::string_view json,
                          const std::function<void(const TraceEvent&)>& visit);

/// Count and summed duration of every span name in a trace.
struct SpanTotals {
  struct Entry {
    std::uint64_t count = 0;
    double seconds = 0.0;
  };
  std::map<std::string, Entry, std::less<>> by_name;

  static SpanTotals from_json(std::string_view json);
  double seconds(std::string_view name) const;
  std::uint64_t count(std::string_view name) const;
};

/// Arms the global trace recorder with a per-thread ring of `ring_events`,
/// and on finish() disarms it, fails if any event was overwritten, and
/// returns the trace as JSON. The recorder is disarmed on every exit path.
class TraceSession {
 public:
  explicit TraceSession(std::size_t ring_events);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  std::string finish();

 private:
  bool armed_ = false;
};

/// Fixed-size records appended to a file through a small buffer, so that
/// recording millions of samples does not grow the process's resident set
/// during the timed phase. Read back with read_all() afterwards.
template <typename T>
class Spool {
 public:
  explicit Spool(std::string path) : path_(std::move(path)) {
    file_ = std::fopen(path_.c_str(), "w+b");
    if (file_ == nullptr) throw std::runtime_error("cannot open spool " + path_);
    std::setvbuf(file_, nullptr, _IOFBF, 1 << 16);
  }
  ~Spool() {
    if (file_ != nullptr) std::fclose(file_);
    std::remove(path_.c_str());
  }
  Spool(const Spool&) = delete;
  Spool& operator=(const Spool&) = delete;

  void push(const T& record) {
    if (std::fwrite(&record, sizeof(T), 1, file_) != 1) write_failed_ = true;
    ++size_;
  }

  std::vector<T> read_all() {
    std::vector<T> out(size_);
    if (write_failed_ || std::fflush(file_) != 0 || std::fseek(file_, 0, SEEK_SET) != 0 ||
        std::fread(out.data(), sizeof(T), size_, file_) != size_) {
      throw std::runtime_error("spool " + path_ + ": write or read-back failed");
    }
    std::fseek(file_, 0, SEEK_END);
    return out;
  }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::size_t size_ = 0;
  bool write_failed_ = false;
};

}  // namespace perfbench
