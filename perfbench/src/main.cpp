// perfbench: one workload per invocation, result as the last stdout line.
//
//   perfbench --workload <paper_figures|replay_n16384|daemon_closed_loop>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// Normally started through run.py, which builds it and owns --workdir.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Environment knobs that would change what a workload runs or how fast it
/// logs; the benchmark fixes all of them itself.
constexpr const char* kRefusedEnv[] = {"RTDLS_INDEX", "RTDLS_JOBS", "RTDLS_RUNS",
                                       "RTDLS_SIMTIME", "RTDLS_FULL", "RTDLS_LOG"};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload <paper_figures|replay_n16384|"
               "daemon_closed_loop> --seed <n> --seconds <s> --trace <0|1> --workdir <dir>\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*text == '\0' || *text == '-' || *end != '\0') usage(flag + " needs a whole number");
  return value;
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  bool have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t seconds = parse_uint(flag, value);
      if (seconds < 1 || seconds > 3600) usage("--seconds must be in [1, 3600]");
      options.seconds = static_cast<double>(seconds);
    } else if (flag == "--trace") {
      const std::uint64_t trace = parse_uint(flag, value);
      if (trace > 1) usage("--trace must be 0 or 1");
      options.trace = trace == 1;
    } else if (flag == "--workdir") {
      options.workdir = value;
      have_workdir = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_workdir) usage("--workload and --workdir are required");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << name
                << " set; it changes the workload being measured\n";
      return 2;
    }
  }
  Result (*workload)(const Options&) = nullptr;
  if (options.workload == "paper_figures") {
    workload = &run_paper_figures;
  } else if (options.workload == "replay_n16384") {
    workload = &run_replay;
  } else if (options.workload == "daemon_closed_loop") {
    workload = &run_daemon;
  } else {
    usage("unknown workload " + options.workload);
  }
  try {
    const Result result = workload(options);
    result.print();
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what() << "\n";
    return 1;
  }
}
