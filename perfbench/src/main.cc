// The pipeline benchmark: drives QueryService through the encrypted-serving,
// plan-churn and plaintext read/write workloads, checks every answer, and
// prints the metrics by name with their units. The last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"}:
// end-to-end metrics, or per-layer metrics with --trace 1.
//
//   perfbench --workload enc_serve|plan_churn|plain_rw|all --seed N
//             --seconds S --trace 0|1 [--git-sha SHA]
//
// Exits 1 when any answer differs from its reference or a run fails to set
// up, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload "
               "enc_serve|plan_churn|plain_rw|all --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string workload;
  std::string git_sha = "unknown";
  if (argc % 2 != 1) return Usage("flags take one value each");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("bad --trace");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  using Runner = mpq::Result<perfbench::WorkloadResult> (*)(
      const perfbench::RunArgs&);
  const std::vector<std::pair<std::string, Runner>> all = {
      {"enc_serve", perfbench::RunEncServe},
      {"plan_churn", perfbench::RunPlanChurn},
      {"plain_rw", perfbench::RunPlainRw},
  };
  std::vector<std::pair<std::string, Runner>> chosen;
  for (const auto& w : all) {
    if (workload == "all" || workload == w.first) chosen.push_back(w);
  }
  if (chosen.empty()) return Usage("unknown --workload");

  std::vector<perfbench::WorkloadResult> results;
  for (const auto& [name, run] : chosen) {
    mpq::Result<perfbench::WorkloadResult> r = run(args);
    if (!r.ok()) {
      std::printf("%s failed: %s\n", name.c_str(),
                  r.status().ToString().c_str());
      return 1;
    }
    perfbench::PrintWorkload(*r, args.trace);
    std::fflush(stdout);
    results.push_back(std::move(*r));
  }
  std::printf("report %s\n",
              perfbench::ReportJson(results, args, git_sha).c_str());
  std::printf("%s\n", perfbench::ResultLine(results, args.trace).c_str());
  for (const perfbench::WorkloadResult& r : results) {
    if (r.mismatches > 0) return 1;
  }
  return 0;
}
