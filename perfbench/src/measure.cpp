#include "measure.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {
const Clock::time_point g_process_start = Clock::now();

void append_json_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string format_number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite metric value");
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}
}  // namespace

Clock::time_point process_start() { return g_process_start; }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM belongs to this process's own address space. ru_maxrss does not:
  // exec carries the parent's high-water mark over, so under run.py it
  // never reads below the Python interpreter's ~14 MB.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::size_t cpu_budget() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

namespace {
/// Zero-based nearest rank: the smallest sample with at least fraction*n
/// samples at or below it.
std::size_t nearest_rank(double fraction, std::size_t n) {
  const auto r = static_cast<std::size_t>(std::ceil(fraction * static_cast<double>(n)));
  return std::max<std::size_t>(r, 1) - 1;
}
}  // namespace

Quantiles exact_quantiles(std::vector<double> samples) {
  Quantiles q;
  q.count = samples.size();
  if (samples.empty()) return q;
  const std::size_t r50 = nearest_rank(0.50, q.count);
  const std::size_t r99 = nearest_rank(0.99, q.count);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(r99),
                   samples.end());
  q.p99 = samples[r99];
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(r50),
                   samples.begin() + static_cast<std::ptrdiff_t>(r99));
  q.p50 = samples[r50];
  q.p99_supported = q.count - 1 - r99 >= 10;
  return q;
}

Quantiles exact_quantiles(std::vector<std::pair<double, std::uint64_t>> weighted) {
  Quantiles q;
  for (const auto& sample : weighted) q.count += sample.second;
  if (q.count == 0) return q;
  std::sort(weighted.begin(), weighted.end());
  const std::size_t r50 = nearest_rank(0.50, q.count);
  const std::size_t r99 = nearest_rank(0.99, q.count);
  std::size_t seen = 0;
  for (const auto& [value, weight] : weighted) {
    if (seen <= r50 && r50 < seen + weight) q.p50 = value;
    if (seen <= r99 && r99 < seen + weight) q.p99 = value;
    seen += weight;
  }
  q.p99_supported = q.count - 1 - r99 >= 10;
  return q;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Result::fail(std::string message) {
  correct = false;
  failures.push_back(std::move(message));
}

void Result::absorb(const std::string& check, const std::vector<std::string>& messages) {
  for (const std::string& message : messages) fail(check + ": " + message);
}

void Result::print() const {
  for (const std::string& failure : failures) {
    std::cout << "CHECK FAILED " << failure << "\n";
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    append_json_string(line, metrics[i].name);
    line += ": {\"value\": " + format_number(metrics[i].value) + ", \"unit\": ";
    append_json_string(line, metrics[i].unit);
    line += "}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

RegistryMark RegistryMark::take() {
  RegistryMark mark;
  const rtdls::obs::Snapshot snapshot = rtdls::obs::Registry::global().snapshot();
  for (const auto& counter : snapshot.counters) {
    mark.counters_[counter.name] = static_cast<double>(counter.value);
  }
  for (const auto& histogram : snapshot.histograms) {
    mark.histograms_[histogram.name] = {static_cast<double>(histogram.count), histogram.sum};
  }
  return mark;
}

double RegistryMark::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double RegistryMark::histogram_count(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? 0.0 : it->second.first;
}

double RegistryMark::histogram_sum(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? 0.0 : it->second.second;
}

RegistryMark RegistryMark::delta(const RegistryMark& earlier) const {
  RegistryMark out = *this;
  for (auto& [name, value] : out.counters_) value -= earlier.counter(name);
  for (auto& [name, value] : out.histograms_) {
    value.first -= earlier.histogram_count(name);
    value.second -= earlier.histogram_sum(name);
  }
  return out;
}

namespace {

/// The value of `"key":` inside one event object, up to the next ',' or '}'.
std::string_view field(std::string_view object, std::string_view key) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\":";
  const std::size_t at = object.find(pattern);
  if (at == std::string_view::npos) return {};
  std::string_view rest = object.substr(at + pattern.size());
  if (!rest.empty() && rest.front() == '"') {
    const std::size_t close = rest.find('"', 1);
    if (close == std::string_view::npos) throw std::runtime_error("trace: unterminated string");
    return rest.substr(1, close - 1);
  }
  return rest.substr(0, rest.find_first_of(",}"));
}

/// Microseconds with three decimals, as the recorder prints them, to ns.
std::uint64_t micros_to_ns(std::string_view text) {
  const std::size_t dot = text.find('.');
  std::uint64_t whole = 0;
  std::uint64_t frac = 0;
  const std::string_view whole_part = text.substr(0, dot);
  if (std::from_chars(whole_part.data(), whole_part.data() + whole_part.size(), whole).ec !=
      std::errc{}) {
    throw std::runtime_error("trace: bad time '" + std::string(text) + "'");
  }
  if (dot != std::string_view::npos) {
    std::string digits(text.substr(dot + 1, 3));
    digits.resize(3, '0');
    std::from_chars(digits.data(), digits.data() + 3, frac);
  }
  return whole * 1000 + frac;
}

}  // namespace

void for_each_trace_event(std::string_view json,
                          const std::function<void(const TraceEvent&)>& visit) {
  const std::size_t array = json.find("\"traceEvents\":[");
  if (array == std::string_view::npos) throw std::runtime_error("trace: no traceEvents array");
  std::size_t pos = array;
  while (true) {
    const std::size_t open = json.find('{', pos);
    if (open == std::string_view::npos) break;
    const std::size_t close = json.find('}', open);
    if (close == std::string_view::npos) throw std::runtime_error("trace: truncated event");
    const std::string_view object = json.substr(open, close - open + 1);
    TraceEvent event;
    event.name = field(object, "name");
    const std::string_view phase = field(object, "ph");
    event.phase = phase.empty() ? '?' : phase.front();
    event.ts_ns = micros_to_ns(field(object, "ts"));
    if (event.phase == 'X') event.dur_ns = micros_to_ns(field(object, "dur"));
    const std::string_view tid = field(object, "tid");
    std::from_chars(tid.data(), tid.data() + tid.size(), event.tid);
    visit(event);
    pos = close + 1;
  }
}

SpanTotals SpanTotals::from_json(std::string_view json) {
  SpanTotals totals;
  for_each_trace_event(json, [&](const TraceEvent& event) {
    Entry& entry = totals.by_name[std::string(event.name)];
    ++entry.count;
    entry.seconds += static_cast<double>(event.dur_ns) * 1e-9;
  });
  return totals;
}

double SpanTotals::seconds(std::string_view name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.seconds;
}

std::uint64_t SpanTotals::count(std::string_view name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0 : it->second.count;
}

TraceSession::TraceSession(std::size_t ring_events) {
  rtdls::obs::TraceRecorder& recorder = rtdls::obs::TraceRecorder::instance();
  recorder.clear();
  recorder.start(ring_events);
  armed_ = true;
}

TraceSession::~TraceSession() {
  if (armed_) rtdls::obs::TraceRecorder::instance().stop();
}

std::string TraceSession::finish() {
  rtdls::obs::TraceRecorder& recorder = rtdls::obs::TraceRecorder::instance();
  recorder.stop();
  armed_ = false;
  if (recorder.dropped() != 0) {
    throw std::runtime_error("trace ring overwrote " + std::to_string(recorder.dropped()) +
                             " events; the traced run is incomplete");
  }
  std::ostringstream out;
  recorder.write_json(out);
  recorder.clear();
  return std::move(out).str();
}

}  // namespace perfbench
