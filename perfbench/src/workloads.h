// The three workloads and the record each one returns.
//
//   enc_serve   UAPenc, open loop over a fixed ladder of offered rates; the
//               plan cache always hits, so time goes to execution, crypto
//               and the wire.
//   plan_churn  UA/UAPenc/UAPmix, closed loop, every statement new; the
//               plan cache always misses, so time goes to planning.
//   plain_rw    UA over a TableStore, two closed-loop readers and a
//               fixed-rate writer; no crypto, and every commit retires the
//               readers' cached plans.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ledger.h"
#include "service/query_service.h"
#include "world.h"

namespace perfbench {

struct RunArgs {
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: report per-layer metrics instead of end-to-end ones.
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct WorkloadResult {
  std::string workload;
  /// Threads used, data sizes and the like.
  std::vector<std::pair<std::string, std::string>> meta;
  /// The end-to-end metrics every workload reports (BENCHMARK.json).
  std::vector<Metric> end_to_end;
  /// End-to-end figures only some workloads have, and sample counts.
  std::vector<Metric> figures;
  /// Per-layer metrics (traced runs).
  std::vector<Metric> layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< Errors, sheds below overload and mismatches.
  uint64_t mismatches = 0;  ///< Answers differing from their reference.
  std::vector<std::string> notes;
};

mpq::Result<WorkloadResult> RunEncServe(const RunArgs& args);
mpq::Result<WorkloadResult> RunPlanChurn(const RunArgs& args);
mpq::Result<WorkloadResult> RunPlainRw(const RunArgs& args);

// ---- Shared by the workloads ----------------------------------------------

/// Runs `setup` `reps` times, keeps the last fixture, and returns the median
/// set-up seconds.
template <typename Fixture, typename SetupFn>
mpq::Result<std::pair<Fixture, double>> RepeatSetup(int reps, SetupFn setup);

/// Sums over the responses of a measured window.
struct ReadTotals {
  uint64_t reads = 0;
  double queue_wait_ms = 0;  ///< Σ (client latency − QueryStats::total_s)
  double transfer_bytes = 0;
  double messages = 0;
  double net_virtual_s = 0;
  double plan_usd = 0;

  void Add(const mpq::QueryStats& s, double latency_ms) {
    ++reads;
    queue_wait_ms += std::max(0.0, latency_ms - s.total_s * 1e3);
    transfer_bytes += static_cast<double>(s.transfer_bytes);
    messages += static_cast<double>(s.num_messages);
    net_virtual_s += s.net_virtual_s;
    plan_usd += s.planned_cost_usd;
  }
  void Merge(const ReadTotals& o) {
    reads += o.reads;
    queue_wait_ms += o.queue_wait_ms;
    transfer_bytes += o.transfer_bytes;
    messages += o.messages;
    net_virtual_s += o.net_virtual_s;
    plan_usd += o.plan_usd;
  }
};

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  Ledger ledger;
  std::vector<std::pair<mpq::ServiceMetrics, mpq::ServiceMetrics>> windows;
  ReadTotals reads;
  uint64_t writes = 0;
  double write_ms = 0;  ///< Σ ExecuteWrite latency.
  uint64_t snapshot_publishes = 0;
  /// Direct front-half timings under each scenario.
  std::map<mpq::AuthScenario, FrontHalf> front;
  /// The scenarios the workload serves (its front-half times average them).
  std::vector<mpq::AuthScenario> own;
  double traced_p50_ms = 0;
  double untraced_p50_ms = 0;
};

/// The full per-layer metric list, identical for every workload (0 where a
/// layer is not exercised).
std::vector<Metric> LayerMetrics(const LayerInputs& in);

/// Probes the front half under every scenario over `sqls`, cycled to at
/// least 100 statements.
mpq::Status ProbeAllScenarios(const World& world,
                              const std::vector<std::string>& sqls,
                              LayerInputs* in);

/// Prints one workload's metrics, one per line, with units.
void PrintWorkload(const WorkloadResult& r, bool trace);

/// The `report` line: run metadata plus every workload's metrics as JSON.
std::string ReportJson(const std::vector<WorkloadResult>& results,
                       const RunArgs& args, const std::string& git_sha);

/// The last line: {"correct", "attempted", "failed", "metrics"}. Metric names
/// are prefixed with the workload when several ran.
std::string ResultLine(const std::vector<WorkloadResult>& results, bool trace);

// ---- Template implementation -----------------------------------------------

template <typename Fixture, typename SetupFn>
mpq::Result<std::pair<Fixture, double>> RepeatSetup(int reps, SetupFn setup) {
  std::vector<double> seconds;
  Fixture kept;
  for (int i = 0; i < reps; ++i) {
    kept = Fixture();  // tear the previous one down outside the timer
    auto t0 = Clock::now();
    mpq::Result<Fixture> f = setup();
    seconds.push_back(SecondsBetween(t0, Clock::now()));
    if (!f.ok()) return f.status();
    kept = std::move(*f);
  }
  std::sort(seconds.begin(), seconds.end());
  return std::make_pair(std::move(kept), seconds[seconds.size() / 2]);
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
