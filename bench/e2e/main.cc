// trass_e2e: the repository's end-to-end benchmark. One workload per
// process; see README.md for the workloads, the metrics and how to
// compare two commits. Normally started through run.sh, which builds it.
//
//   trass_e2e --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
//             [--smoke] [--out result.json] [--work-dir DIR] [--git-sha SHA]
//
// The last line of standard output is the JSON result; any wrong answer
// exits non-zero before it is printed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workload.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr, "trass_e2e: %s\nworkloads:", why);
  for (const std::string& name : trass::e2e::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr,
               "\nusage: trass_e2e --workload <name> [--seed N] [--seconds S] "
               "[--trace [0|1]] [--smoke] [--out FILE] [--work-dir DIR] "
               "[--git-sha SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  trass::e2e::Config config;
  config.work_dir = "bench/e2e/out";
  std::string out_json;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      const char* text = argv[++i];
      char* end = nullptr;
      config.seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0' || *text == '-') {
        return Usage("--seed takes a non-negative integer");
      }
    } else if ((arg == "--seconds" || arg == "--duration") && has_value) {
      const char* text = argv[++i];
      char* end = nullptr;
      config.seconds = std::strtod(text, &end);
      if (end == text || *end != '\0' || !(config.seconds > 0) ||
          config.seconds > 3600) {
        return Usage("--seconds takes a number in (0, 3600]");
      }
    } else if (arg == "--trace") {
      // Accepts both `--trace` and `--trace 0|1`.
      const std::string next = has_value ? argv[i + 1] : "";
      config.trace = next != "0";
      if (next == "0" || next == "1") ++i;
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--out" && has_value) {
      out_json = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      config.work_dir = argv[++i];
    } else if (arg == "--git-sha" && has_value) {
      git_sha = argv[++i];
    } else {
      return Usage(("unknown or incomplete argument: " + arg).c_str());
    }
  }
  if (trass::e2e::FindWorkload(config.workload) == nullptr) {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  if (config.smoke) {
    config.n = 2000;
    config.seconds = 2.0;
  }
  config.warmup_s = std::clamp(config.seconds * 0.2, 0.5, 2.0);
  return trass::e2e::RunWorkload(config, git_sha, out_json);
}
