#include "world.h"

#include <sys/resource.h>

#include "assign/assignment.h"
#include "assign/cost_model.h"
#include "assign/schemes.h"
#include "candidates/candidates.h"
#include "common/flat_hash.h"
#include "common/str_util.h"
#include "exec/distributed.h"
#include "exec/executor.h"
#include "extend/extend.h"
#include "extend/keys.h"
#include "profile/propagate.h"
#include "sql/binder.h"
#include "sql/normalize.h"
#include "sql/parser.h"
#include "tpch/vocab.h"

namespace perfbench {

using mpq::Result;

mpq::Result<std::unique_ptr<World>> MakeWorld(double data_sf) {
  auto w = std::make_unique<World>();
  w->env = mpq::MakeTpchEnv(/*costing_sf=*/1.0, /*num_providers=*/8);
  w->db = mpq::GenerateTpch(w->env, data_sf, /*seed=*/17);
  w->prices = mpq::MakeScenarioPricing(w->env);
  w->topo = mpq::MakeScenarioTopology(w->env);
  for (mpq::AuthScenario s : kScenarios) {
    MPQ_ASSIGN_OR_RETURN(mpq::Policy p, mpq::MakeScenarioPolicy(w->env, s));
    w->policies.emplace(s, std::move(p));
  }
  return w;
}

const std::vector<std::string>& MixStatements() {
  static const std::vector<std::string> v = {
      // Q6: forecasting revenue change.
      "select sum(l_extendedprice) from lineitem "
      "where l_shipdate >= 730 and l_shipdate < 1095 "
      "and l_discount >= 0.05 and l_discount <= 0.07 and l_quantity < 24.0",
      // Q3: shipping priority.
      "select o_orderkey, o_orderdate, o_shippriority, sum(l_extendedprice) "
      "from customer join orders on c_custkey = o_custkey "
      "join lineitem on o_orderkey = l_orderkey "
      "where c_mktsegment = 'BUILDING' and o_orderdate < 1204 "
      "and l_shipdate > 1204 "
      "group by o_orderkey, o_orderdate, o_shippriority",
      // Q10: returned item reporting.
      "select c_custkey, c_name, n_name, sum(l_extendedprice) "
      "from customer join orders on c_custkey = o_custkey "
      "join lineitem on o_orderkey = l_orderkey "
      "join nation on c_nationkey = n_nationkey "
      "where o_orderdate >= 640 and o_orderdate < 730 "
      "and l_returnflag = 'R' group by c_custkey, c_name, n_name",
      // Q12: shipping modes (attr-attr comparison).
      "select l_shipmode, count(*) from orders "
      "join lineitem on o_orderkey = l_orderkey "
      "where l_shipmode = 'MAIL' and l_receiptdate >= 730 "
      "and l_receiptdate < 1095 and l_commitdate < l_receiptdate "
      "group by l_shipmode",
      // Q18 shape: large-volume customers via HAVING.
      "select o_custkey, sum(l_extendedprice) from orders "
      "join lineitem on o_orderkey = l_orderkey "
      "group by o_custkey having sum(l_extendedprice) > 1000.0",
  };
  return v;
}

std::string ChurnStatement(int shape, mpq::Rng* rng) {
  using mpq::StrFormat;
  namespace tpch = mpq::tpch;
  auto pick = [&](const std::vector<std::string>& v) -> const std::string& {
    return v[rng->Uniform(v.size())];
  };
  const int64_t day = rng->Range(tpch::kMinDate, tpch::kMaxDate - 365);
  switch (shape) {
    case 0:
      return StrFormat(
          "select sum(l_extendedprice) from lineitem "
          "where l_shipdate >= %lld and l_shipdate < %lld "
          "and l_discount >= 0.0%lld and l_discount <= 0.0%lld "
          "and l_quantity < %lld.0",
          (long long)day, (long long)(day + rng->Range(30, 365)),
          (long long)rng->Range(1, 4), (long long)rng->Range(5, 9),
          (long long)rng->Range(10, 50));
    case 1:
      return StrFormat(
          "select o_orderkey, o_orderdate, o_shippriority, "
          "sum(l_extendedprice) "
          "from customer join orders on c_custkey = o_custkey "
          "join lineitem on o_orderkey = l_orderkey "
          "where c_mktsegment = '%s' and o_orderdate < %lld "
          "and l_shipdate > %lld "
          "group by o_orderkey, o_orderdate, o_shippriority",
          pick(tpch::Segments()).c_str(), (long long)(day + 365),
          (long long)(day + rng->Range(0, 365)));
    case 2:
      return StrFormat(
          "select c_custkey, c_name, n_name, sum(l_extendedprice) "
          "from customer join orders on c_custkey = o_custkey "
          "join lineitem on o_orderkey = l_orderkey "
          "join nation on c_nationkey = n_nationkey "
          "where o_orderdate >= %lld and o_orderdate < %lld "
          "and l_returnflag = '%s' group by c_custkey, c_name, n_name",
          (long long)day, (long long)(day + rng->Range(60, 365)),
          pick(tpch::ReturnFlags()).c_str());
    case 3:
      return StrFormat(
          "select l_shipmode, count(*) from orders "
          "join lineitem on o_orderkey = l_orderkey "
          "where l_shipmode = '%s' and l_receiptdate >= %lld "
          "and l_receiptdate < %lld and l_commitdate < l_receiptdate "
          "group by l_shipmode",
          pick(tpch::ShipModes()).c_str(), (long long)day,
          (long long)(day + rng->Range(90, 365)));
    default:
      return StrFormat(
          "select o_custkey, sum(l_extendedprice) from orders "
          "join lineitem on o_orderkey = l_orderkey "
          "group by o_custkey having sum(l_extendedprice) > %lld.0",
          (long long)rng->Range(100, 1000000));
  }
}

namespace {

Result<mpq::PlanPtr> PlaintextPlan(const std::string& sql,
                                   const mpq::Catalog& catalog) {
  MPQ_ASSIGN_OR_RETURN(mpq::PlanPtr plan, mpq::PlanFromSql(sql, catalog));
  MPQ_RETURN_NOT_OK(
      mpq::DerivePlaintextNeeds(plan.get(), catalog, mpq::SchemeCaps{}));
  MPQ_RETURN_NOT_OK(mpq::AnnotatePlan(plan.get(), catalog));
  return plan;
}

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

}  // namespace

Oracle::Oracle(const mpq::Catalog* catalog, const TableMap& tables,
               bool row_oracle)
    : catalog_(catalog), tables_(tables) {
  if (row_oracle) {
    rows_ = std::make_unique<mpq::ReferenceExecutor>(catalog);
    for (const auto& [rel, t] : tables) rows_->LoadTable(rel, t);
  }
}

Oracle::~Oracle() = default;

Result<std::vector<std::string>> Oracle::Rows(const std::string& sql) const {
  MPQ_ASSIGN_OR_RETURN(mpq::PlanPtr plan, PlaintextPlan(sql, *catalog_));
  if (rows_ != nullptr) {
    MPQ_ASSIGN_OR_RETURN(mpq::Table out, rows_->Run(plan.get()));
    return mpq::CanonicalRows(out);
  }
  mpq::ExecContext ctx;
  ctx.catalog = catalog_;
  for (const auto& [rel, t] : tables_) ctx.base_tables[rel] = t;
  MPQ_ASSIGN_OR_RETURN(mpq::Table out, mpq::ExecutePlan(plan.get(), &ctx));
  return mpq::CanonicalRows(out);
}

TableMap TablesOf(const mpq::TpchData& db) {
  TableMap m;
  for (const auto& [rel, t] : db.tables) m[rel] = &t;
  return m;
}

uint64_t ResultDigest(const mpq::Table& t) {
  return mpq::HashBytes(t.SerializeColumns());
}

Result<FrontHalf> ProbeFrontHalf(const World& world,
                                 mpq::AuthScenario scenario,
                                 const std::vector<std::string>& sqls) {
  const mpq::Catalog& catalog = world.env.catalog;
  const mpq::Policy& policy = world.policy(scenario);
  const mpq::SchemeCaps caps;
  FrontHalf f;
  for (const std::string& sql : sqls) {
    MPQ_ASSIGN_OR_RETURN(std::string normalized, mpq::NormalizeSql(sql));
    auto t0 = Clock::now();
    MPQ_ASSIGN_OR_RETURN(mpq::AstSelect ast, mpq::ParseSelect(normalized));
    f.parse_us += MicrosSince(t0);

    t0 = Clock::now();
    MPQ_ASSIGN_OR_RETURN(mpq::PlanPtr plan, mpq::BindSelect(ast, catalog));
    f.bind_us += MicrosSince(t0);

    t0 = Clock::now();
    MPQ_RETURN_NOT_OK(mpq::DerivePlaintextNeeds(plan.get(), catalog, caps));
    MPQ_RETURN_NOT_OK(mpq::AnnotatePlan(plan.get(), catalog));
    f.annotate_us += MicrosSince(t0);

    t0 = Clock::now();
    MPQ_ASSIGN_OR_RETURN(mpq::CandidatePlan cp,
                         mpq::ComputeCandidates(plan.get(), policy));
    f.candidates_us += MicrosSince(t0);
    for (const auto& [id, nc] : cp.nodes) {
      (void)id;
      f.lambda_size += static_cast<double>(nc.candidates.size());
    }

    t0 = Clock::now();
    mpq::SchemeMap schemes = mpq::AnalyzeSchemes(plan.get(), catalog, caps);
    mpq::CostModel cost_model(&catalog, &world.prices, &world.topo, &schemes);
    mpq::AssignmentOptimizer optimizer(&policy, &cost_model);
    MPQ_ASSIGN_OR_RETURN(mpq::AssignmentResult assignment,
                         optimizer.Optimize(plan.get(), cp, world.env.user));
    f.optimize_us += MicrosSince(t0);
    f.plan_usd += assignment.exact_cost.total_usd();

    t0 = Clock::now();
    MPQ_RETURN_NOT_OK(
        mpq::VerifyAuthorizedAssignment(assignment.extended, policy));
    f.verify_us += MicrosSince(t0);

    t0 = Clock::now();
    mpq::PlanKeys keys = mpq::DeriveQueryPlanKeys(assignment.extended);
    f.keys_us += MicrosSince(t0);
    f.key_groups += static_cast<double>(keys.groups.size());

    mpq::DistributedRuntime runtime(&catalog, &world.env.subjects);
    t0 = Clock::now();
    runtime.DistributeKeys(keys, world.env.user,
                           mpq::SplitMix64(mpq::HashBytes(normalized)));
    f.keygen_us += MicrosSince(t0);

    std::vector<const mpq::PlanNode*> stack = {assignment.extended.plan.get()};
    while (!stack.empty()) {
      const mpq::PlanNode* n = stack.back();
      stack.pop_back();
      if (n->kind == mpq::OpKind::kEncrypt ||
          n->kind == mpq::OpKind::kDecrypt) {
        f.crypto_nodes += 1;
      }
      for (size_t i = 0; i < n->num_children(); ++i) {
        stack.push_back(n->child(i));
      }
    }
    ++f.statements;
  }
  if (f.statements > 0) {
    const double n = static_cast<double>(f.statements);
    for (double* v : {&f.parse_us, &f.bind_us, &f.annotate_us,
                      &f.candidates_us, &f.optimize_us, &f.verify_us,
                      &f.keys_us, &f.keygen_us, &f.lambda_size, &f.key_groups,
                      &f.crypto_nodes, &f.plan_usd}) {
      *v /= n;
    }
  }
  return f;
}

double PeakRssMb() {
  struct rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
