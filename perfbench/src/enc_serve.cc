// enc_serve: the paper's UAPenc scenario served open-loop.
//
// One generator thread (this one) calls ExecuteAsync on a fixed schedule
// over the TPC-H mix at sf 0.002; the service executes on a 3-worker pool,
// so the workload uses 4 threads. Every statement is planned during set-up,
// so the plan cache always hits and time goes to the execution operators,
// the morsel scheduler, crypto and the wire.
//
// Requests are timed from the moment they were due, not from when the
// generator got round to sending them, and the generator's lateness is
// reported. Completions are observed by polling between sends.
//
// The offered rates form a fixed ladder. Latency is reported at the nominal
// rung; the highest rung whose p99 stays under kLatencyLimitMs with nothing
// shed and no growing backlog is the sustainable rate. Rungs run lowest
// first and the service drains between rungs.

#include <cmath>
#include <thread>

#include "common/str_util.h"
#include "net/simnet.h"
#include "stats.h"
#include "testing/reference_exec.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kDataSf = 0.002;
constexpr size_t kExecThreads = 3;
/// Above kQueueCap, so admission never turns a queued query away: with the
/// cap below the queue depth (8 against 64), async queries that cannot
/// claim a slot requeue behind each other and the service stopped making
/// progress in this workload.
constexpr size_t kMaxInFlight = 256;
constexpr size_t kQueueCap = 64;
/// Offered rates (queries/s), lowest first.
constexpr double kLadderQps[] = {50, 75, 100, 125, 150, 250};
constexpr size_t kNominalRung = 1;
/// Share of the run each rung gets. The nominal rung needs 1000+ samples for
/// its p99; the top rung, far past capacity, measures saturated throughput.
constexpr double kRungShare[] = {0.025, 0.7, 0.025, 0.025, 0.025, 0.2};
static_assert(std::size(kRungShare) == std::size(kLadderQps));
/// Set-up ends with this many queries through the async path, at most one
/// per worker in flight, so the pool and caches are warm.
constexpr size_t kWarmupQueries = 40;
constexpr double kLatencyLimitMs = 50;
/// A rung whose generator ran later than this at its p99 is invalid.
constexpr double kMaxLatenessMs = 1.0;
constexpr int kSetupReps = 5;

struct Fixture {
  std::unique_ptr<World> world;
  std::unique_ptr<mpq::SimNet> net;
  std::unique_ptr<mpq::QueryService> service;
  mpq::Session session;
  std::vector<mpq::StatementHandle> handles;
  std::vector<uint64_t> digests;  ///< Reference response per statement.
  size_t oracle_mismatches = 0;
};

mpq::Result<std::unique_ptr<Fixture>> Setup(bool traced) {
  auto f = std::make_unique<Fixture>();
  MPQ_ASSIGN_OR_RETURN(f->world, MakeWorld(kDataSf));
  const World& w = *f->world;
  f->net = std::make_unique<mpq::SimNet>(&w.env.subjects);
  f->net->ConfigureFromTopology(w.topo, w.env.subjects, 0);
  mpq::ServiceConfig config;
  config.exec_threads = kExecThreads;
  config.max_in_flight = kMaxInFlight;
  config.max_queue_depth = kQueueCap;
  config.net = f->net.get();
  config.trace.enabled = traced;
  f->service = std::make_unique<mpq::QueryService>(
      &w.env.catalog, &w.env.subjects,
      &w.policy(mpq::AuthScenario::kUAPenc), &w.prices, &w.topo, config);
  for (const auto& [rel, t] : w.db.tables) f->service->LoadTable(rel, &t);
  MPQ_ASSIGN_OR_RETURN(f->session, f->service->OpenSession(w.env.user));
  for (const std::string& sql : MixStatements()) {
    MPQ_ASSIGN_OR_RETURN(mpq::StatementHandle h, f->service->Prepare(sql));
    MPQ_ASSIGN_OR_RETURN(mpq::QueryResponse cold,
                         f->service->Execute(h, f->session));
    (void)cold;
    MPQ_ASSIGN_OR_RETURN(mpq::QueryResponse warm,
                         f->service->Execute(h, f->session));
    f->digests.push_back(ResultDigest(warm.table));
    f->handles.push_back(std::move(h));
  }
  std::vector<std::shared_ptr<mpq::AsyncQuery>> running;
  for (size_t i = 0; i < kWarmupQueries; ++i) {
    const size_t s = i % f->handles.size();
    MPQ_ASSIGN_OR_RETURN(auto q,
                         f->service->ExecuteAsync(f->handles[s], f->session));
    running.push_back(std::move(q));
    if (running.size() == kExecThreads || i + 1 == kWarmupQueries) {
      for (auto& r : running) MPQ_RETURN_NOT_OK(r->Wait().status());
      running.clear();
    }
  }
  return f;
}

/// Holds each statement's first answer to the row oracle. Runs outside the
/// set-up timer.
mpq::Status CheckAgainstOracle(Fixture* f) {
  const World& w = *f->world;
  Oracle oracle(&w.env.catalog, TablesOf(w.db), /*row_oracle=*/true);
  for (size_t i = 0; i < f->handles.size(); ++i) {
    MPQ_ASSIGN_OR_RETURN(std::vector<std::string> want,
                         oracle.Rows(MixStatements()[i]));
    MPQ_ASSIGN_OR_RETURN(mpq::QueryResponse r,
                         f->service->Execute(f->handles[i], f->session));
    if (mpq::CanonicalRows(r.table) != want ||
        ResultDigest(r.table) != f->digests[i]) {
      ++f->oracle_mismatches;
    }
  }
  return mpq::Status::OK();
}

struct Rung {
  double rate = 0;
  double seconds = 0;
  size_t sent = 0, completed = 0, shed = 0, errors = 0, mismatches = 0;
  size_t backlog_mid = 0, backlog_end = 0;
  /// Completions per second while the rung was still sending: the
  /// service's throughput when offered more than it can serve.
  double saturated_qps = 0;
  std::vector<double> latency_ms;  ///< From the intended send time.
  std::vector<double> lateness_ms;
  ReadTotals totals;
  Summary latency, lateness;
  bool valid = true;
  bool pass = false;
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

Rung RunRung(Fixture* f, double rate, double seconds, mpq::Rng* rng,
             std::vector<std::shared_ptr<const mpq::QueryTrace>>* traces) {
  Rung r;
  r.rate = rate;
  r.seconds = seconds;
  const size_t n = std::max<size_t>(1, std::llround(rate * seconds));
  const auto period = std::chrono::duration<double>(1.0 / rate);
  struct Pending {
    std::shared_ptr<mpq::AsyncQuery> q;
    Clock::time_point due;
    size_t stmt;
  };
  std::vector<Pending> pending;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  size_t i = 0;
  size_t in_window = 0;  // completions seen while still sending
  Clock::time_point last_send = t0;
  for (;;) {
    Clock::time_point now = Clock::now();
    while (i < n) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(period * i);
      if (due > now) break;
      r.lateness_ms.push_back(Ms(now - due));
      const size_t s = rng->Uniform(f->handles.size());
      auto q = f->service->ExecuteAsync(f->handles[s], f->session);
      if (q.ok()) {
        pending.push_back({std::move(*q), due, s});
      } else if (q.status().code() == mpq::StatusCode::kUnavailable) {
        ++r.shed;
      } else {
        ++r.errors;
      }
      ++i;
      if (i == n / 2) r.backlog_mid = pending.size();
      if (i == n) {
        r.backlog_end = pending.size();
        last_send = due;
      }
      now = Clock::now();
    }
    for (size_t k = 0; k < pending.size();) {
      if (!pending[k].q->Done()) {
        ++k;
        continue;
      }
      const double latency = Ms(Clock::now() - pending[k].due);
      if (i < n) ++in_window;
      const mpq::Result<mpq::QueryResponse>& resp = pending[k].q->Wait();
      if (!resp.ok()) {
        ++r.errors;
      } else {
        ++r.completed;
        r.latency_ms.push_back(latency);
        r.totals.Add(resp->stats, latency);
        if (ResultDigest(resp->table) != f->digests[pending[k].stmt]) {
          ++r.mismatches;
        }
        if (traces != nullptr && resp->trace != nullptr) {
          traces->push_back(resp->trace);
        }
      }
      pending[k] = std::move(pending.back());
      pending.pop_back();
    }
    if (i == n && pending.empty()) break;
    std::this_thread::yield();
  }
  r.sent = n;
  r.saturated_qps = static_cast<double>(in_window) /
                    std::max(1e-9, SecondsBetween(t0, last_send));
  r.latency = Summarize(r.latency_ms, 9900);
  r.lateness = Summarize(r.lateness_ms, 9900);
  r.valid = r.lateness.tail <= kMaxLatenessMs;
  // A shed or failed request misses every latency limit.
  r.pass = r.valid && r.shed == 0 && r.errors == 0 &&
           r.latency.tail < kLatencyLimitMs &&
           r.backlog_end <= 2 * r.backlog_mid + kExecThreads;
  return r;
}

struct Ladder {
  std::vector<Rung> rungs;
  double peak_rss_mb = 0;
};

/// The ladder over `seconds`, split by kRungShare. Peak memory is read after
/// the nominal rung, before overload fills the queue.
Ladder RunLadder(Fixture* f, double seconds, mpq::Rng* rng,
                 std::vector<std::shared_ptr<const mpq::QueryTrace>>* traces) {
  Ladder out;
  for (size_t k = 0; k < std::size(kLadderQps); ++k) {
    out.rungs.push_back(
        RunRung(f, kLadderQps[k], seconds * kRungShare[k], rng, traces));
    if (k == kNominalRung) out.peak_rss_mb = PeakRssMb();
  }
  return out;
}

/// Counts attempts and failures. A shed is not a failed operation here: it
/// is how a rung past capacity answers, and it already fails that rung.
void Account(const Ladder& ladder, size_t oracle_mismatches,
             WorkloadResult* res) {
  res->mismatches += oracle_mismatches;
  res->failed += oracle_mismatches;
  for (const Rung& r : ladder.rungs) {
    res->attempted += r.sent;
    res->mismatches += r.mismatches;
    res->failed += r.errors + r.mismatches;
  }
}

std::string LadderText() {
  std::string s;
  for (size_t k = 0; k < std::size(kLadderQps); ++k) {
    s += mpq::StrFormat("%s%g%s", k == 0 ? "" : ",", kLadderQps[k],
                        k == kNominalRung ? " (nominal)" : "");
  }
  return s;
}

}  // namespace

mpq::Result<WorkloadResult> RunEncServe(const RunArgs& args) {
  WorkloadResult res;
  res.workload = "enc_serve";
  MPQ_ASSIGN_OR_RETURN(auto setup,
                       RepeatSetup<std::unique_ptr<Fixture>>(kSetupReps, [&] {
                         return Setup(/*traced=*/false);
                       }));
  std::unique_ptr<Fixture> f = std::move(setup.first);
  res.meta = {{"scenario", "UAPenc"},
              {"threads", "4 (generator + 3 exec workers)"},
              {"data_sf", mpq::StrFormat("%g", kDataSf)},
              {"lineitem_rows",
               std::to_string(f->world->db.at(f->world->env.lineitem)
                                  .num_rows())},
              {"ladder_qps", LadderText()},
              {"latency_limit_ms", mpq::StrFormat("%g", kLatencyLimitMs)}};

  mpq::Rng rng(mpq::SplitMix64(args.seed ^ 0xe5e5));
  // A traced run brackets its traced half with two untraced quarters, so
  // drift over the run cancels out of trace.overhead_ratio.
  const double seconds = args.trace ? args.seconds / 4 : args.seconds;
  Ladder ladder = RunLadder(f.get(), seconds, &rng, nullptr);
  MPQ_RETURN_NOT_OK(CheckAgainstOracle(f.get()));
  Account(ladder, f->oracle_mismatches, &res);
  const Rung& nominal = ladder.rungs[kNominalRung];
  const Rung& top = ladder.rungs.back();

  if (!args.trace) {
    res.end_to_end = {
        {"setup_s", setup.second, "s"},
        {"read_p50_ms", nominal.latency.median, "ms"},
        {"read_p99_ms", nominal.latency.tail, "ms"},
        {"read_qps", top.saturated_qps, "1/s"},
        {"plan_usd_per_query",
         nominal.totals.plan_usd /
             std::max<double>(1, static_cast<double>(nominal.totals.reads)),
         "usd"},
        {"peak_rss_mb", ladder.peak_rss_mb, "MiB"},
    };
  } else {
    LayerInputs in;
    f.reset();
    MPQ_ASSIGN_OR_RETURN(f, Setup(/*traced=*/true));
    std::vector<std::shared_ptr<const mpq::QueryTrace>> traces;
    in.windows.emplace_back(f->service->Metrics(), mpq::ServiceMetrics{});
    Ladder traced = RunLadder(f.get(), 2 * seconds, &rng, &traces);
    in.windows.back().second = f->service->Metrics();
    MPQ_RETURN_NOT_OK(CheckAgainstOracle(f.get()));
    Account(traced, f->oracle_mismatches, &res);
    f.reset();
    MPQ_ASSIGN_OR_RETURN(f, Setup(/*traced=*/false));
    Ladder again = RunLadder(f.get(), seconds, &rng, nullptr);
    MPQ_RETURN_NOT_OK(CheckAgainstOracle(f.get()));
    Account(again, f->oracle_mismatches, &res);
    std::vector<double> untraced = nominal.latency_ms;
    const std::vector<double>& more = again.rungs[kNominalRung].latency_ms;
    untraced.insert(untraced.end(), more.begin(), more.end());
    in.untraced_p50_ms = Summarize(untraced, 5000).median;
    for (const auto& t : traces) {
      in.ledger.AddTrace(t->Spans(), ChildRule::kParentLink);
    }
    double latency_sum = 0;
    size_t latency_n = 0;
    for (const Rung& r : traced.rungs) {
      in.reads.Merge(r.totals);
      for (double ms : r.latency_ms) latency_sum += ms;
      latency_n += r.latency_ms.size();
    }
    in.traced_p50_ms = traced.rungs[kNominalRung].latency.median;
    in.own = {mpq::AuthScenario::kUAPenc};
    MPQ_RETURN_NOT_OK(ProbeAllScenarios(*f->world, MixStatements(), &in));
    res.layers = LayerMetrics(in);
    res.end_to_end = {
        {"read_p50_ms", in.traced_p50_ms, "ms"},
        {"read_mean_ms", latency_sum / std::max<double>(1, latency_n), "ms"}};
  }

  int max_pass = -1;
  for (size_t k = 0; k < ladder.rungs.size() && ladder.rungs[k].pass; ++k) {
    max_pass = static_cast<int>(k);
  }
  res.figures = {
      {"max_rate_qps", max_pass < 0 ? 0 : ladder.rungs[max_pass].rate, "1/s"},
      {"read_tail_pct", nominal.latency.tail_pct, "%"},
      {"read_samples", static_cast<double>(nominal.latency.count), "count"},
      {"failed_ratio",
       static_cast<double>(res.failed) /
           std::max<double>(1, static_cast<double>(res.attempted)),
       "ratio"},
  };
  for (const Rung& r : ladder.rungs) {
    const std::string p = mpq::StrFormat("rung_%g.", r.rate);
    res.figures.push_back({p + "p50_ms", r.latency.median, "ms"});
    res.figures.push_back({p + "tail_ms", r.latency.tail, "ms"});
    res.figures.push_back({p + "completed_qps", r.saturated_qps, "1/s"});
    res.figures.push_back({p + "shed", static_cast<double>(r.shed), "count"});
    res.figures.push_back(
        {p + "backlog_mid", static_cast<double>(r.backlog_mid), "count"});
    res.figures.push_back(
        {p + "backlog_end", static_cast<double>(r.backlog_end), "count"});
    res.figures.push_back({p + "lateness_p99_ms", r.lateness.tail, "ms"});
    res.figures.push_back({p + "pass", r.pass ? 1.0 : 0.0, "bool"});
    if (!r.valid) {
      res.notes.push_back(mpq::StrFormat(
          "rung %g qps invalid: generator p%g lateness %.3f ms over the "
          "%g ms bound",
          r.rate, r.lateness.tail_pct, r.lateness.tail, kMaxLatenessMs));
    }
  }
  return res;
}

}  // namespace perfbench
