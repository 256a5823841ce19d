// plan_churn: every request is a statement the service has never seen.
//
// One closed-loop client (this thread) sends the five mix shapes with
// literals drawn from the seed, never repeating a normalized statement, and
// rotates over three services — one per scenario (UA, UAPenc, UAPmix) —
// that execute inline on tiny data (sf 5e-5). Every request misses the plan
// cache, so the front half dominates: parse, bind, profile, candidates,
// assignment and key generation. This is the only workload whose working
// set exceeds the plan cache (8 shards x 32 entries).

#include <numeric>
#include <set>

#include "common/str_util.h"
#include "net/simnet.h"
#include "sql/normalize.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kDataSf = 5e-5;
constexpr int kSetupReps = 5;

struct Fixture {
  std::unique_ptr<World> world;
  struct Server {
    mpq::AuthScenario scenario;
    std::unique_ptr<mpq::SimNet> net;
    std::unique_ptr<mpq::QueryService> service;
    mpq::Session session;
  };
  std::vector<Server> servers;
};

mpq::Result<std::unique_ptr<Fixture>> Setup(bool traced) {
  auto f = std::make_unique<Fixture>();
  MPQ_ASSIGN_OR_RETURN(f->world, MakeWorld(kDataSf));
  const World& w = *f->world;
  for (mpq::AuthScenario s : kScenarios) {
    Fixture::Server srv;
    srv.scenario = s;
    srv.net = std::make_unique<mpq::SimNet>(&w.env.subjects);
    srv.net->ConfigureFromTopology(w.topo, w.env.subjects, 0);
    mpq::ServiceConfig config;
    config.exec_threads = 0;
    config.net = srv.net.get();
    config.trace.enabled = traced;
    srv.service = std::make_unique<mpq::QueryService>(
        &w.env.catalog, &w.env.subjects, &w.policy(s), &w.prices, &w.topo,
        config);
    for (const auto& [rel, t] : w.db.tables) srv.service->LoadTable(rel, &t);
    MPQ_ASSIGN_OR_RETURN(srv.session, srv.service->OpenSession(w.env.user));
    // Warm the code paths with the fixed-literal mix, which the churn
    // statements never repeat.
    for (const std::string& sql : MixStatements()) {
      MPQ_RETURN_NOT_OK(srv.service->ExecuteSql(sql, srv.session).status());
    }
    f->servers.push_back(std::move(srv));
  }
  return f;
}

/// Statements in request order, never repeating a normalized form (the
/// fixed mix included).
class StatementSource {
 public:
  explicit StatementSource(uint64_t seed) : rng_(mpq::SplitMix64(seed)) {
    for (const std::string& sql : MixStatements()) {
      seen_.insert(*mpq::NormalizeSql(sql));
    }
  }

  mpq::Result<std::string> Next() {
    for (;;) {
      std::string sql =
          ChurnStatement(static_cast<int>(rng_.Uniform(5)), &rng_);
      MPQ_ASSIGN_OR_RETURN(std::string normalized, mpq::NormalizeSql(sql));
      if (seen_.insert(std::move(normalized)).second) return sql;
    }
  }

 private:
  mpq::Rng rng_;
  std::set<std::string> seen_;
};

struct Window {
  std::vector<double> latency_ms;
  ReadTotals totals;
  uint64_t errors = 0;
  uint64_t mismatches = 0;
  double seconds = 0;
  double peak_rss_mb = 0;
  std::vector<std::pair<mpq::ServiceMetrics, mpq::ServiceMetrics>> counters;
};

/// Runs the closed loop until `seconds` have gone to generating and serving
/// requests, holding every answer to the row oracle as it arrives. The
/// checks (and, with `ledger`, booking each response's trace) are timed and
/// left out of the window, so neither the figures nor memory depend on how
/// many answers a run produces.
mpq::Result<Window> RunWindow(Fixture* f, StatementSource* source,
                              double seconds, Ledger* ledger) {
  Window win;
  const World& w = *f->world;
  Oracle oracle(&w.env.catalog, TablesOf(w.db), /*row_oracle=*/true);
  for (const auto& srv : f->servers) {
    win.counters.emplace_back(srv.service->Metrics(), mpq::ServiceMetrics{});
  }
  const Clock::time_point start = Clock::now();
  double aside_s = 0;  // checking and booking, outside the window
  for (size_t k = 0; SecondsBetween(start, Clock::now()) - aside_s < seconds;
       ++k) {
    MPQ_ASSIGN_OR_RETURN(std::string sql, source->Next());
    Fixture::Server& srv = f->servers[k % f->servers.size()];
    const Clock::time_point t0 = Clock::now();
    mpq::Result<mpq::QueryResponse> r =
        srv.service->ExecuteSql(sql, srv.session);
    const Clock::time_point t1 = Clock::now();
    if (!r.ok()) {
      ++win.errors;
      continue;
    }
    const double ms = SecondsBetween(t0, t1) * 1e3;
    win.latency_ms.push_back(ms);
    win.totals.Add(r->stats, ms);
    if (ledger != nullptr && r->trace != nullptr) {
      ledger->AddTrace(r->trace->Spans(), ChildRule::kNesting);
    }
    MPQ_ASSIGN_OR_RETURN(std::vector<std::string> want, oracle.Rows(sql));
    if (mpq::CanonicalRows(r->table) != want) ++win.mismatches;
    aside_s += SecondsBetween(t1, Clock::now());
  }
  win.seconds = SecondsBetween(start, Clock::now()) - aside_s;
  for (size_t i = 0; i < f->servers.size(); ++i) {
    win.counters[i].second = f->servers[i].service->Metrics();
  }
  win.peak_rss_mb = PeakRssMb();
  return win;
}

}  // namespace

mpq::Result<WorkloadResult> RunPlanChurn(const RunArgs& args) {
  WorkloadResult res;
  res.workload = "plan_churn";
  MPQ_ASSIGN_OR_RETURN(auto setup,
                       RepeatSetup<std::unique_ptr<Fixture>>(kSetupReps, [&] {
                         return Setup(/*traced=*/false);
                       }));
  std::unique_ptr<Fixture> f = std::move(setup.first);
  res.meta = {{"scenarios", "UA, UAPenc, UAPmix (one service each)"},
              {"threads", "1 (client; inline execution)"},
              {"data_sf", mpq::StrFormat("%g", kDataSf)},
              {"lineitem_rows",
               std::to_string(f->world->db.at(f->world->env.lineitem)
                                  .num_rows())}};
  StatementSource source(args.seed);
  // A traced run brackets its traced half with two untraced quarters, so
  // drift over the run cancels out of trace.overhead_ratio.
  const double seconds = args.trace ? args.seconds / 4 : args.seconds;
  MPQ_ASSIGN_OR_RETURN(Window win, RunWindow(f.get(), &source, seconds,
                                             /*ledger=*/nullptr));
  const Summary lat = Summarize(win.latency_ms, 9900);
  auto account = [&](const Window& w) {
    res.attempted += w.latency_ms.size() + w.errors;
    res.failed += w.errors + w.mismatches;
    res.mismatches += w.mismatches;
  };
  account(win);
  if (!args.trace) {
    res.end_to_end = {
        {"setup_s", setup.second, "s"},
        {"read_p50_ms", lat.median, "ms"},
        {"read_p99_ms", lat.tail, "ms"},
        {"read_qps", static_cast<double>(lat.count) / win.seconds, "1/s"},
        {"plan_usd_per_query",
         win.totals.plan_usd / std::max<double>(1, win.totals.reads), "usd"},
        {"peak_rss_mb", win.peak_rss_mb, "MiB"},
    };
  } else {
    LayerInputs in;
    f.reset();
    MPQ_ASSIGN_OR_RETURN(f, Setup(/*traced=*/true));
    MPQ_ASSIGN_OR_RETURN(Window traced,
                         RunWindow(f.get(), &source, 2 * seconds, &in.ledger));
    account(traced);
    f.reset();
    MPQ_ASSIGN_OR_RETURN(f, Setup(/*traced=*/false));
    MPQ_ASSIGN_OR_RETURN(Window again,
                         RunWindow(f.get(), &source, seconds, nullptr));
    account(again);
    std::vector<double> untraced = win.latency_ms;
    untraced.insert(untraced.end(), again.latency_ms.begin(),
                    again.latency_ms.end());
    in.untraced_p50_ms = Summarize(untraced, 5000).median;
    const Summary tlat = Summarize(traced.latency_ms, 9900);
    in.traced_p50_ms = tlat.median;
    in.windows = traced.counters;
    in.reads = traced.totals;
    in.own = {std::begin(kScenarios), std::end(kScenarios)};
    std::vector<std::string> probe;
    StatementSource probe_source(args.seed ^ 0x9e37);
    for (int i = 0; i < 100; ++i) {
      MPQ_ASSIGN_OR_RETURN(std::string sql, probe_source.Next());
      probe.push_back(std::move(sql));
    }
    MPQ_RETURN_NOT_OK(ProbeAllScenarios(*f->world, probe, &in));
    res.layers = LayerMetrics(in);
    res.end_to_end = {{"read_p50_ms", tlat.median, "ms"},
                      {"read_mean_ms",
                       std::accumulate(traced.latency_ms.begin(),
                                       traced.latency_ms.end(), 0.0) /
                           std::max<double>(1, traced.latency_ms.size()),
                       "ms"}};
  }
  res.figures = {
      {"read_tail_pct", lat.tail_pct, "%"},
      {"read_samples", static_cast<double>(lat.count), "count"},
      {"failed_ratio",
       static_cast<double>(res.failed) /
           std::max<double>(1, static_cast<double>(res.attempted)),
       "ratio"},
  };
  return res;
}

}  // namespace perfbench
