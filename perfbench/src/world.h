// What every workload shares: the TPC-H environment and data, the paper's
// scenario policies, the statement mixes, the correctness oracles, and the
// direct timing of the planning pipeline outside the service.

#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/table.h"
#include "net/pricing.h"
#include "net/topology.h"
#include "testing/reference_exec.h"
#include "tpch/dbgen.h"
#include "tpch/scenarios.h"
#include "tpch/tpch_schema.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline constexpr mpq::AuthScenario kScenarios[] = {
    mpq::AuthScenario::kUA, mpq::AuthScenario::kUAPenc,
    mpq::AuthScenario::kUAPmix};

/// The TPC-H environment, its data and the three scenario policies. Policies
/// point into `env`, so a World never moves (it lives behind a unique_ptr).
struct World {
  mpq::TpchEnv env;
  mpq::TpchData db;
  mpq::PricingTable prices;
  mpq::Topology topo;
  std::map<mpq::AuthScenario, mpq::Policy> policies;

  const mpq::Policy& policy(mpq::AuthScenario s) const {
    return policies.at(s);
  }
};

/// Generates data at scale `data_sf` and builds the policies. The data is
/// the same for every run seed: the seed drives what the workloads send, so
/// figures from different seeds differ by the traffic, not by the tables.
mpq::Result<std::unique_ptr<World>> MakeWorld(double data_sf);

/// The TPC-H mix {Q6, Q3, Q10, Q12, Q18} with fixed literals.
const std::vector<std::string>& MixStatements();

/// One of the five mix shapes (`shape` in [0, 5)) with literals drawn from
/// `rng`.
std::string ChurnStatement(int shape, mpq::Rng* rng);

using TableMap = std::map<mpq::RelId, const mpq::Table*>;

TableMap TablesOf(const mpq::TpchData& db);

/// Plaintext reference answers over borrowed tables, as canonical rows
/// (testing/reference_exec.h). With `row_oracle` the answers come from the
/// row-major ReferenceExecutor, which copies the tables up front; without,
/// from the single-site columnar engine, which reads them in place — the
/// reference for the many store states plain_rw replays.
class Oracle {
 public:
  Oracle(const mpq::Catalog* catalog, const TableMap& tables,
         bool row_oracle);
  ~Oracle();
  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  mpq::Result<std::vector<std::string>> Rows(const std::string& sql) const;

 private:
  const mpq::Catalog* catalog_;
  TableMap tables_;
  std::unique_ptr<mpq::ReferenceExecutor> rows_;
};

/// Digest of a response's serialized columns: equal digests mean
/// byte-identical responses.
uint64_t ResultDigest(const mpq::Table& t);

/// Mean microseconds per statement of each planning step, timed by calling
/// the pipeline QueryService runs on a cache miss directly, plus the size
/// figures of its outputs.
struct FrontHalf {
  size_t statements = 0;
  double parse_us = 0;      ///< ParseSelect
  double bind_us = 0;       ///< BindSelect
  double annotate_us = 0;   ///< DerivePlaintextNeeds + AnnotatePlan
  double candidates_us = 0;  ///< ComputeCandidates
  double optimize_us = 0;   ///< AnalyzeSchemes + AssignmentOptimizer
  double verify_us = 0;     ///< VerifyAuthorizedAssignment
  double keys_us = 0;       ///< DeriveQueryPlanKeys
  double keygen_us = 0;     ///< DistributedRuntime::DistributeKeys
  double lambda_size = 0;   ///< Σ|Λ(n)| over the plan's nodes
  double key_groups = 0;
  double crypto_nodes = 0;  ///< Encrypt + decrypt nodes of the extended plan
  double plan_usd = 0;      ///< Exact cost of the chosen assignment
};

mpq::Result<FrontHalf> ProbeFrontHalf(const World& world,
                                      mpq::AuthScenario scenario,
                                      const std::vector<std::string>& sqls);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
