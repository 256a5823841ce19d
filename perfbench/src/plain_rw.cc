// plain_rw: the UA scenario over a TableStore, reads racing writes.
//
// Two closed-loop reader threads run the mix at sf 0.01 while this thread
// sends UPDATE / DELETE / INSERT statements on orders and lineitem at a
// fixed rate (3 threads; execution is inline). UA plans use no crypto, and
// every commit publishes a snapshot whose epoch keys the plan cache, so the
// readers re-plan after each write — the cache is used the opposite way to
// enc_serve.
//
// Answers are checked after the window: reads that report the same snapshot
// must be byte-identical, and the committed writes are replayed serially
// into a second store up to each reported snapshot, where the single-site
// engine gives the reference answer. The row oracle checks each statement
// at the first and the last state.

#include <map>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/str_util.h"
#include "exec/table_store.h"
#include "exec/write_executor.h"
#include "net/simnet.h"
#include "sql/binder.h"
#include "sql/normalize.h"
#include "sql/parser.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kDataSf = 0.01;
constexpr size_t kReaders = 2;
constexpr double kWriteQps = 15;
constexpr int kSetupReps = 5;

struct Fixture {
  std::unique_ptr<World> world;
  std::unique_ptr<mpq::TableStore> store;
  std::unique_ptr<mpq::SimNet> net;
  std::unique_ptr<mpq::QueryService> service;
  std::vector<mpq::Session> readers;
  mpq::Session writer;
};

/// Loads every relation of `db` into `store` in one fixed order, so two
/// stores loaded alike number their snapshots alike.
void LoadStore(const mpq::TpchData& db, mpq::TableStore* store) {
  for (const auto& [rel, t] : db.tables) store->Put(rel, t);
}

mpq::Result<std::unique_ptr<Fixture>> Setup(bool traced) {
  auto f = std::make_unique<Fixture>();
  MPQ_ASSIGN_OR_RETURN(f->world, MakeWorld(kDataSf));
  const World& w = *f->world;
  f->store = std::make_unique<mpq::TableStore>();
  LoadStore(w.db, f->store.get());
  f->net = std::make_unique<mpq::SimNet>(&w.env.subjects);
  f->net->ConfigureFromTopology(w.topo, w.env.subjects, 0);
  mpq::ServiceConfig config;
  config.exec_threads = 0;
  config.net = f->net.get();
  config.store = f->store.get();
  config.trace.enabled = traced;
  f->service = std::make_unique<mpq::QueryService>(
      &w.env.catalog, &w.env.subjects, &w.policy(mpq::AuthScenario::kUA),
      &w.prices, &w.topo, config);
  for (size_t r = 0; r < kReaders; ++r) {
    MPQ_ASSIGN_OR_RETURN(mpq::Session s, f->service->OpenSession(w.env.user));
    f->readers.push_back(s);
  }
  MPQ_ASSIGN_OR_RETURN(f->writer, f->service->OpenSession(w.env.user));
  for (const std::string& sql : MixStatements()) {
    MPQ_RETURN_NOT_OK(f->service->ExecuteSql(sql, f->readers[0]).status());
  }
  return f;
}

/// The j-th write. Writes come in cycles of six that insert an order and
/// one of its lines, update an existing order and its lines, and delete the
/// inserted rows again, so the tables keep their size.
std::string WriteStatement(size_t j, int64_t orders, mpq::Rng* rng) {
  using mpq::StrFormat;
  const long long fresh = static_cast<long long>(orders) + 1 +
                          static_cast<long long>(j / 6);
  const long long old = static_cast<long long>(rng->Range(1, orders));
  const long long day = static_cast<long long>(rng->Range(0, 2555));
  switch (j % 6) {
    case 0:
      return StrFormat(
          "insert into orders values (%lld, %lld, 'O', %lld.5, %lld, "
          "'3-MEDIUM', 0)",
          fresh, (long long)rng->Range(1, orders / 10), (long long)rng->Range(1000, 400000), day);
    case 1:
      return StrFormat(
          "insert into lineitem values (%lld, %lld, %lld, 1, %lld.0, %lld.25, "
          "0.05, 0.02, 'N', 'O', %lld, %lld, %lld, 'MAIL')",
          fresh, (long long)rng->Range(1, 2000), (long long)rng->Range(1, 100),
          (long long)rng->Range(1, 50), (long long)rng->Range(900, 100000),
          day, day + 10, day + 5);
    case 2:
      return StrFormat("update orders set o_orderdate = %lld where o_orderkey = %lld",
                       day, old);
    case 3:
      return StrFormat(
          "update lineitem set l_discount = 0.0%lld where l_orderkey = %lld",
          (long long)rng->Range(0, 9), old);
    case 4:
      return StrFormat("delete from lineitem where l_orderkey = %lld", fresh);
    default:
      return StrFormat("delete from orders where o_orderkey = %lld", fresh);
  }
}

struct Committed {
  std::string sql;
  uint64_t snapshot_id = 0;
};

/// Reads that saw one (snapshot, statement): the first answer and its
/// digest.
struct Group {
  uint64_t digest = 0;
  mpq::Table first;
};

struct Window {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  ReadTotals totals;
  uint64_t read_errors = 0;
  uint64_t write_errors = 0;
  uint64_t mismatches = 0;
  double seconds = 0;
  double peak_rss_mb = 0;  ///< Before the answers are checked.
  std::vector<Committed> committed;
  std::map<std::pair<uint64_t, size_t>, Group> groups;
  uint64_t epoch_before = 0, epoch_after = 0;
  std::vector<std::pair<mpq::ServiceMetrics, mpq::ServiceMetrics>> counters;
};

mpq::Status Replay(const World& w, const Committed& c,
                   mpq::WriteExecutor* exec) {
  MPQ_ASSIGN_OR_RETURN(std::string normalized, mpq::NormalizeSql(c.sql));
  MPQ_ASSIGN_OR_RETURN(mpq::AstStatement ast, mpq::ParseStatement(normalized));
  MPQ_ASSIGN_OR_RETURN(mpq::BoundWrite bound,
                       mpq::BindWrite(ast, w.env.catalog));
  return exec->Execute(bound, w.env.user).status();
}

TableMap TablesOf(const mpq::Snapshot& snap) {
  TableMap m;
  for (const auto& [rel, t] : snap.tables) m[rel] = t.get();
  return m;
}

/// Replays the committed writes serially and holds every group's answer to
/// the reference at the snapshot it reported. Returns the mismatches.
mpq::Result<uint64_t> Verify(const World& w, const Window& win,
                             uint64_t initial_snapshot) {
  const std::vector<std::string>& mix = MixStatements();
  mpq::TableStore replay;
  LoadStore(w.db, &replay);
  mpq::WriteExecutor exec(&w.policy(mpq::AuthScenario::kUA), &replay);
  uint64_t mismatches = 0;
  size_t applied = 0;
  auto check_all = [&](const TableMap& tables) -> mpq::Status {
    Oracle rows(&w.env.catalog, tables, /*row_oracle=*/true);
    Oracle engine(&w.env.catalog, tables, /*row_oracle=*/false);
    for (const std::string& sql : mix) {
      MPQ_ASSIGN_OR_RETURN(auto want, rows.Rows(sql));
      MPQ_ASSIGN_OR_RETURN(auto got, engine.Rows(sql));
      if (want != got) ++mismatches;
    }
    return mpq::Status::OK();
  };
  MPQ_RETURN_NOT_OK(check_all(TablesOf(*replay.Current())));
  uint64_t state = initial_snapshot;
  std::unique_ptr<Oracle> engine;
  for (const auto& [key, group] : win.groups) {
    const auto& [snap, stmt] = key;
    while (applied < win.committed.size() &&
           win.committed[applied].snapshot_id <= snap) {
      MPQ_RETURN_NOT_OK(Replay(w, win.committed[applied], &exec));
      state = win.committed[applied].snapshot_id;
      ++applied;
      engine.reset();
    }
    if (state != snap) {  // a snapshot no committed write produced
      ++mismatches;
      continue;
    }
    if (engine == nullptr) {
      engine = std::make_unique<Oracle>(
          &w.env.catalog, TablesOf(*replay.Current()), /*row_oracle=*/false);
    }
    MPQ_ASSIGN_OR_RETURN(auto want, engine->Rows(mix[stmt]));
    if (mpq::CanonicalRows(group.first) != want) ++mismatches;
  }
  engine.reset();
  for (; applied < win.committed.size(); ++applied) {
    MPQ_RETURN_NOT_OK(Replay(w, win.committed[applied], &exec));
  }
  MPQ_RETURN_NOT_OK(check_all(TablesOf(*replay.Current())));
  return mismatches;
}

mpq::Result<Window> RunWindow(Fixture* f, uint64_t seed, double seconds,
                              std::vector<Ledger>* ledgers) {
  Window win;
  const World& w = *f->world;
  const uint64_t initial = f->store->snapshot_epoch();
  win.epoch_before = initial;
  win.counters.emplace_back(f->service->Metrics(), mpq::ServiceMetrics{});
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::mutex mu;  // guards the window's shared fields below
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      mpq::Rng rng(mpq::SplitMix64(seed * 31 + r));
      std::vector<double> local_ms;
      ReadTotals local;
      uint64_t errors = 0, mismatches = 0;
      while (Clock::now() < deadline) {
        const size_t s = rng.Uniform(MixStatements().size());
        const Clock::time_point t0 = Clock::now();
        mpq::Result<mpq::QueryResponse> resp =
            f->service->ExecuteSql(MixStatements()[s], f->readers[r]);
        const double ms = SecondsBetween(t0, Clock::now()) * 1e3;
        if (!resp.ok()) {
          ++errors;
          continue;
        }
        local_ms.push_back(ms);
        local.Add(resp->stats, ms);
        if (ledgers != nullptr && resp->trace != nullptr) {
          (*ledgers)[r].AddTrace(resp->trace->Spans(), ChildRule::kNesting);
        }
        const uint64_t digest = ResultDigest(resp->table);
        std::lock_guard<std::mutex> lock(mu);
        auto [it, fresh] =
            win.groups.try_emplace({resp->stats.snapshot_id, s});
        if (fresh) {
          it->second.digest = digest;
          it->second.first = std::move(resp->table);
        } else if (it->second.digest != digest) {
          ++mismatches;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      win.read_ms.insert(win.read_ms.end(), local_ms.begin(), local_ms.end());
      win.totals.Merge(local);
      win.read_errors += errors;
      win.mismatches += mismatches;
    });
  }
  mpq::Rng rng(mpq::SplitMix64(seed ^ 0x7717e5));
  const int64_t orders =
      static_cast<int64_t>(w.db.at(w.env.orders).num_rows());
  for (size_t j = 0;; ++j) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(j / kWriteQps));
    if (due >= deadline) break;
    std::this_thread::sleep_until(due);
    std::string sql = WriteStatement(j, orders, &rng);
    const Clock::time_point t0 = Clock::now();
    mpq::Result<mpq::WriteResult> r = f->service->ExecuteWrite(sql, f->writer);
    const double ms = SecondsBetween(t0, Clock::now()) * 1e3;
    if (!r.ok()) {
      ++win.write_errors;
      continue;
    }
    win.write_ms.push_back(ms);
    win.committed.push_back({std::move(sql), r->snapshot_id});
  }
  for (std::thread& t : readers) t.join();
  win.seconds = SecondsBetween(start, Clock::now());
  win.epoch_after = f->store->snapshot_epoch();
  win.counters[0].second = f->service->Metrics();
  win.peak_rss_mb = PeakRssMb();
  MPQ_ASSIGN_OR_RETURN(uint64_t bad, Verify(w, win, initial));
  win.mismatches += bad;
  return win;
}

}  // namespace

mpq::Result<WorkloadResult> RunPlainRw(const RunArgs& args) {
  WorkloadResult res;
  res.workload = "plain_rw";
  MPQ_ASSIGN_OR_RETURN(auto setup,
                       RepeatSetup<std::unique_ptr<Fixture>>(kSetupReps, [&] {
                         return Setup(/*traced=*/false);
                       }));
  std::unique_ptr<Fixture> f = std::move(setup.first);
  res.meta = {{"scenario", "UA"},
              {"threads", "3 (2 readers + 1 writer; inline execution)"},
              {"data_sf", "0.01"},
              {"lineitem_rows",
               std::to_string(f->world->db.at(f->world->env.lineitem)
                                  .num_rows())},
              {"write_qps", mpq::StrFormat("%g", kWriteQps)}};
  // A traced run brackets its traced half with two untraced quarters, so
  // drift over the run cancels out of trace.overhead_ratio.
  const double seconds = args.trace ? args.seconds / 4 : args.seconds;
  MPQ_ASSIGN_OR_RETURN(Window win,
                       RunWindow(f.get(), args.seed, seconds, nullptr));
  auto account = [&](const Window& w) {
    res.attempted += w.read_ms.size() + w.read_errors + w.write_ms.size() +
                     w.write_errors;
    res.failed += w.read_errors + w.write_errors + w.mismatches;
    res.mismatches += w.mismatches;
  };
  account(win);
  const Summary reads = Summarize(win.read_ms, 9900);
  const Summary writes = Summarize(win.write_ms, 9000);
  if (!args.trace) {
    res.end_to_end = {
        {"setup_s", setup.second, "s"},
        {"read_p50_ms", reads.median, "ms"},
        {"read_p99_ms", reads.tail, "ms"},
        {"read_qps", static_cast<double>(reads.count) / win.seconds, "1/s"},
        {"plan_usd_per_query",
         win.totals.plan_usd / std::max<double>(1, win.totals.reads), "usd"},
        {"peak_rss_mb", win.peak_rss_mb, "MiB"},
    };
  } else {
    LayerInputs in;
    f.reset();
    MPQ_ASSIGN_OR_RETURN(f, Setup(/*traced=*/true));
    std::vector<Ledger> ledgers(kReaders);
    MPQ_ASSIGN_OR_RETURN(Window traced, RunWindow(f.get(), args.seed + 1,
                                                  2 * seconds, &ledgers));
    account(traced);
    f.reset();
    MPQ_ASSIGN_OR_RETURN(f, Setup(/*traced=*/false));
    MPQ_ASSIGN_OR_RETURN(Window again,
                         RunWindow(f.get(), args.seed + 2, seconds, nullptr));
    account(again);
    std::vector<double> untraced = win.read_ms;
    untraced.insert(untraced.end(), again.read_ms.begin(),
                    again.read_ms.end());
    in.untraced_p50_ms = Summarize(untraced, 5000).median;
    for (const Ledger& l : ledgers) in.ledger.Merge(l);
    const Summary treads = Summarize(traced.read_ms, 9900);
    in.traced_p50_ms = treads.median;
    in.windows = traced.counters;
    in.reads = traced.totals;
    in.writes = traced.write_ms.size();
    in.write_ms = std::accumulate(traced.write_ms.begin(),
                                  traced.write_ms.end(), 0.0);
    in.snapshot_publishes = traced.epoch_after - traced.epoch_before;
    in.own = {mpq::AuthScenario::kUA};
    MPQ_RETURN_NOT_OK(ProbeAllScenarios(*f->world, MixStatements(), &in));
    res.layers = LayerMetrics(in);
    res.end_to_end = {{"read_p50_ms", treads.median, "ms"},
                      {"read_mean_ms",
                       std::accumulate(traced.read_ms.begin(),
                                       traced.read_ms.end(), 0.0) /
                           std::max<double>(1, traced.read_ms.size()),
                       "ms"}};
  }
  res.figures = {
      {"write_p50_ms", writes.median, "ms"},
      {"write_p90_ms", writes.tail, "ms"},
      {"write_tail_pct", writes.tail_pct, "%"},
      {"write_samples", static_cast<double>(writes.count), "count"},
      {"read_tail_pct", reads.tail_pct, "%"},
      {"read_samples", static_cast<double>(reads.count), "count"},
      {"snapshots_read", static_cast<double>(win.groups.size()), "count"},
      {"failed_ratio",
       static_cast<double>(res.failed) /
           std::max<double>(1, static_cast<double>(res.attempted)),
       "ratio"},
  };
  return res;
}

}  // namespace perfbench
