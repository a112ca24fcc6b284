// perfbench: the end-to-end benchmark of synscan.
//
// Usage: perfbench --workload <capture-cold|decade-refresh|daemon-mix>
//                  --seed <n> --seconds <s> --trace <0|1> [--work <dir>]
//
// Prints one JSON line of run details (host, pinned worker counts,
// report differences, ladder) and then, as the last line, the result:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exits 1 without a result when the run cannot complete.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <unistd.h>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <capture-cold|decade-refresh|"
               "daemon-mix> --seed <n> --seconds <s> --trace <0|1> [--work <dir>]\n",
               message);
  std::exit(2);
}

RunArgs parse(int argc, char** argv) {
  RunArgs args;
  fs::path work = ".bench_work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work") {
      work = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (args.seconds <= 0) usage("--seconds must be positive");
  args.work_dir = work / (args.workload + "-" + std::to_string(args.seed) + "-" +
                          std::to_string(::getpid()));
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  RunResult result;
  int status = 0;
  try {
    fs::remove_all(args.work_dir);
    fs::create_directories(args.work_dir);
    if (args.workload == "capture-cold") {
      result = run_capture_cold(args);
    } else if (args.workload == "decade-refresh") {
      result = run_decade_refresh(args);
    } else if (args.workload == "daemon-mix") {
      result = run_daemon_mix(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), error.what());
    status = 1;
  }
  std::error_code ec;
  fs::remove_all(args.work_dir, ec);
  if (status != 0) return status;

  result.correct = result.failed == 0;
  Detail detail;
  detail.text("workload", args.workload);
  detail.number("seed", static_cast<double>(args.seed));
  detail.number("seconds", args.seconds);
  detail.number("trace", args.trace ? 1 : 0);
  detail.raw("host", host_json());
  detail.raw("run", result.detail.to_json());
  std::cout << "{\"detail\": " << detail.to_json() << "}\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": " << result.metrics.to_json() << "}" << std::endl;
  return 0;
}
