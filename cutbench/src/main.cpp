// cutbench: the repository benchmark binary.
//
//   cutbench --workload <mincut-ring|kcut-ring|serve-mixed> --seed <n>
//            --seconds <s> --trace <0|1>
//
// Prints a run-conditions line, a details line with every metric of the
// workload, and, last, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics of the traced pass with --trace 1. README.md explains
// the workloads and metrics.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using namespace cutbench;

int usage() {
  std::fprintf(stderr,
               "usage: cutbench --workload <mincut-ring|kcut-ring|serve-mixed> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

bool contains_all(const std::string& json, const auto& names) {
  for (const MetricName& n : names) {
    std::string key = "\"";
    key += n.name;
    key += "\": ";
    if (json.find(key) == std::string::npos) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunArgs args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args.trace = std::strcmp(value, "1") == 0;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();

  RunResult r;
  try {
    if (workload == "mincut-ring") {
      r = run_mincut_ring(args);
    } else if (workload == "kcut-ring") {
      r = run_kcut_ring(args);
    } else if (workload == "serve-mixed") {
      r = run_serve_mixed(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cutbench: %s aborted: %s\n", workload.c_str(), e.what());
    return 1;
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::string cond = "{\"run_conditions\": {\"workload\": \"" + workload +
                     "\", \"seed\": " + std::to_string(args.seed) +
                     ", \"seconds\": " + std::to_string(args.seconds) +
                     ", \"trace\": " + (args.trace ? "1" : "0") +
                     ", \"nproc\": " + std::to_string(nproc) +
                     ", \"hardware_concurrency\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"build_type\": \"" CUTBENCH_BUILD_TYPE
                     "\", \"compiler\": \"" CUTBENCH_COMPILER "\"";
  for (const auto& [key, value] : r.conditions) cond += ", \"" + key + "\": " + value;
  cond += "}}";
  std::printf("%s\n", cond.c_str());
  std::printf("{\"details\": %s}\n", r.details.json().c_str());

  const std::string metrics = r.metrics.json();
  const bool complete =
      args.trace ? contains_all(metrics, kPerLayer) : contains_all(metrics, kEndToEnd);
  if (!complete) {
    std::fprintf(stderr, "cutbench: %s did not report every metric\n", workload.c_str());
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              r.correct && r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
