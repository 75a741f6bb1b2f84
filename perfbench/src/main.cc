// skyup_perfbench: the repository benchmark binary. Normally started by
// perfbench/run.py, which builds it first:
//
//   skyup_perfbench --workload offline|churn|wire --seed N --seconds S
//                   --trace 0|1 [--smoke] [--out-dir DIR]
//
// Prints a human-readable report and, as the last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics, or with --trace 1 the per-layer metrics.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: skyup_perfbench --workload "
               "offline|churn|wire --seed N --seconds S --trace 0|1 "
               "[--smoke] [--out-dir DIR]\n",
               why);
  return 2;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      if (!ParseU64(value, &options.seed)) return Usage("bad --seed");
    } else if (arg == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) return Usage("bad --seconds");
    } else if (arg == "--trace") {
      if (!ParseU64(value, &n) || n > 1) return Usage("bad --trace");
      options.trace = n == 1;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }

  perfbench::Report report;
  if (options.workload == "offline") {
    report = perfbench::RunOffline(options);
  } else if (options.workload == "churn") {
    report = perfbench::RunChurn(options);
  } else if (options.workload == "wire") {
    report = perfbench::RunWire(options);
  } else {
    return Usage("--workload must be offline, churn or wire");
  }
  return perfbench::Emit(options, report);
}
