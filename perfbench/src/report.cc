// Per-layer metric assembly and the benchmark's output lines.

#include <cstdio>
#include <thread>

#include "common/json_util.h"
#include "workloads.h"

namespace perfbench {

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Differences of the counters a window moved, summed over services.
struct CounterDelta {
  double hits = 0, misses = 0, sheds = 0, accepted = 0, admission_waits = 0;
  double queue_depth_peak = 0, morsels = 0, scan_leads = 0, scan_attaches = 0;
  double rows_written = 0;
  mpq::OpProfileSnapshot ops;
};

CounterDelta Deltas(
    const std::vector<std::pair<mpq::ServiceMetrics, mpq::ServiceMetrics>>&
        windows) {
  CounterDelta d;
  auto diff = [](uint64_t before, uint64_t after) {
    return static_cast<double>(after - before);
  };
  for (const auto& [a, b] : windows) {
    d.hits += diff(a.cache_hits, b.cache_hits);
    d.misses += diff(a.cache_misses, b.cache_misses);
    d.sheds += diff(a.sheds, b.sheds);
    d.accepted += diff(a.async_queries, b.async_queries);
    d.admission_waits += diff(a.admission_waits, b.admission_waits);
    d.queue_depth_peak =
        std::max(d.queue_depth_peak, static_cast<double>(b.queue_depth_peak));
    d.morsels += diff(a.morsels_executed, b.morsels_executed);
    d.scan_leads += diff(a.scan_leads, b.scan_leads);
    d.scan_attaches += diff(a.scan_attaches, b.scan_attaches);
    d.rows_written += diff(a.rows_written, b.rows_written);
    for (size_t k = 0; k < mpq::kNumOpKinds; ++k) {
      const mpq::OpCounterSnapshot& x = a.ops.ops[k];
      const mpq::OpCounterSnapshot& y = b.ops.ops[k];
      mpq::OpCounterSnapshot& o = d.ops.ops[k];
      o.calls += y.calls - x.calls;
      o.rows_out += y.rows_out - x.rows_out;
      o.hom_folds += y.hom_folds - x.hom_folds;
    }
  }
  return d;
}

void WriteMetrics(mpq::JsonWriter* w, const std::vector<Metric>& metrics,
                  const std::string& prefix) {
  for (const Metric& m : metrics) {
    w->Key(prefix + m.name)
        .BeginObject()
        .Key("value")
        .Double(m.value)
        .Key("unit")
        .String(m.unit)
        .EndObject();
  }
}

}  // namespace

std::vector<Metric> LayerMetrics(const LayerInputs& in) {
  const CounterDelta d = Deltas(in.windows);
  const double q = std::max<double>(1, static_cast<double>(in.reads.reads));
  const Ledger& l = in.ledger;
  std::vector<Metric> out;
  auto add = [&](const std::string& name, double value, const char* unit) {
    out.push_back(Metric{name, value, unit});
  };

  // The front half, timed directly and averaged over the scenarios the
  // workload serves.
  FrontHalf f;
  for (mpq::AuthScenario s : in.own) {
    const FrontHalf& g = in.front.at(s);
    const double n = static_cast<double>(in.own.size());
    f.parse_us += g.parse_us / n;
    f.bind_us += g.bind_us / n;
    f.annotate_us += g.annotate_us / n;
    f.candidates_us += g.candidates_us / n;
    f.optimize_us += g.optimize_us / n;
    f.verify_us += g.verify_us / n;
    f.keys_us += g.keys_us / n;
    f.keygen_us += g.keygen_us / n;
    f.lambda_size += g.lambda_size / n;
    f.key_groups += g.key_groups / n;
    f.crypto_nodes += g.crypto_nodes / n;
  }

  add("service.cache_hit_ratio", Ratio(d.hits, d.hits + d.misses), "ratio");
  add("service.cache_probe_us", l.MeanSpanUs("cache_probe"), "us");
  add("service.queue_wait_ms", in.reads.queue_wait_ms / q, "ms");
  add("service.shed_ratio", Ratio(d.sheds, d.sheds + d.accepted), "ratio");
  add("service.queue_depth_peak", d.queue_depth_peak, "count");
  add("service.admission_waits", d.admission_waits, "count");
  add("service.query_self_ms", l.MeanMs("query"), "ms");

  add("sql.parse_us", f.parse_us, "us");
  add("sql.bind_us", f.bind_us, "us");
  add("profile.annotate_us", f.annotate_us, "us");
  add("candidates.compute_us", f.candidates_us, "us");
  add("candidates.lambda_size", f.lambda_size, "count");
  add("assign.optimize_us", f.optimize_us, "us");
  add("assign.verify_us", f.verify_us, "us");
  for (mpq::AuthScenario s : kScenarios) {
    auto it = in.front.find(s);
    add(std::string("assign.plan_usd.") + mpq::AuthScenarioName(s),
        it == in.front.end() ? 0 : it->second.plan_usd, "usd");
  }
  add("extend.keys_us", f.keys_us, "us");
  add("extend.keygen_us", f.keygen_us, "us");
  add("extend.key_groups", f.key_groups, "count");
  add("extend.crypto_nodes", f.crypto_nodes, "count");

  for (mpq::OpKind k : {mpq::OpKind::kBase, mpq::OpKind::kProject,
                        mpq::OpKind::kSelect, mpq::OpKind::kJoin,
                        mpq::OpKind::kGroupBy}) {
    const std::string name = mpq::OpKindName(k);
    add("exec.op." + name + ".self_ms", l.MeanMs("op:" + name), "ms");
    add("exec.op." + name + ".rows_out",
        static_cast<double>(d.ops.of(k).rows_out) / q, "rows");
  }
  add("exec.dispatch_ms", l.MeanMs("dispatch"), "ms");
  add("exec.frag_overhead_ms", l.MeanMs("frag"), "ms");
  add("exec.morsels", d.morsels / q, "count");
  add("exec.scan_attach_ratio",
      Ratio(d.scan_attaches, d.scan_leads + d.scan_attaches), "ratio");
  const double writes = static_cast<double>(in.writes);
  add("exec.write_ms", Ratio(in.write_ms, writes), "ms");
  add("exec.snapshot_publishes", static_cast<double>(in.snapshot_publishes),
      "count");
  add("exec.rows_written", d.rows_written, "count");
  add("exec.replans_per_write", Ratio(d.misses, writes), "count");

  double folds = 0;
  for (const mpq::OpCounterSnapshot& c : d.ops.ops) {
    folds += static_cast<double>(c.hom_folds);
  }
  add("crypto.encrypt.self_ms", l.MeanMs("op:encrypt"), "ms");
  add("crypto.decrypt.self_ms", l.MeanMs("op:decrypt"), "ms");
  add("crypto.encrypt.rows",
      static_cast<double>(d.ops.of(mpq::OpKind::kEncrypt).rows_out) / q,
      "rows");
  add("crypto.hom_folds", folds / q, "count");

  add("net.xfer_ms", l.MeanMs("xfer"), "ms");
  add("net.bytes_per_query", in.reads.transfer_bytes / q, "bytes");
  add("net.messages_per_query", in.reads.messages / q, "count");
  add("net.virtual_ms_per_query", in.reads.net_virtual_s * 1e3 / q, "ms");

  add("trace.overhead_ratio", Ratio(in.traced_p50_ms, in.untraced_p50_ms),
      "ratio");
  return out;
}

mpq::Status ProbeAllScenarios(const World& world,
                              const std::vector<std::string>& sqls,
                              LayerInputs* in) {
  // Cycle the statements so every mean averages at least 100 plannings.
  std::vector<std::string> batch;
  while (!sqls.empty() && batch.size() < 100) {
    batch.insert(batch.end(), sqls.begin(), sqls.end());
  }
  for (mpq::AuthScenario s : kScenarios) {
    MPQ_ASSIGN_OR_RETURN(in->front[s], ProbeFrontHalf(world, s, batch));
  }
  return mpq::Status::OK();
}

void PrintWorkload(const WorkloadResult& r, bool trace) {
  std::printf("[%s]\n", r.workload.c_str());
  for (const auto& [k, v] : r.meta) std::printf("  %s: %s\n", k.c_str(), v.c_str());
  auto print = [](const char* title, const std::vector<Metric>& ms) {
    if (ms.empty()) return;
    std::printf("  %s\n", title);
    for (const Metric& m : ms) {
      std::printf("    %-32s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  };
  print(trace ? "end to end (traced window)" : "end to end", r.end_to_end);
  print("figures", r.figures);
  print("per layer", r.layers);
  std::printf("  attempted %llu, failed %llu, mismatches %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.mismatches));
  for (const std::string& n : r.notes) std::printf("  note: %s\n", n.c_str());
}

std::string ReportJson(const std::vector<WorkloadResult>& results,
                       const RunArgs& args, const std::string& git_sha) {
  mpq::JsonWriter w;
  w.BeginObject()
      .Key("seed")
      .UInt(args.seed)
      .Key("seconds")
      .Double(args.seconds)
      .Key("trace")
      .Bool(args.trace)
      .Key("git_sha")
      .String(git_sha)
      .Key("nproc")
      .UInt(std::thread::hardware_concurrency())
      .Key("workloads")
      .BeginArray();
  for (const WorkloadResult& r : results) {
    w.BeginObject().Key("workload").String(r.workload).Key("meta").BeginObject();
    for (const auto& [k, v] : r.meta) w.Key(k).String(v);
    w.EndObject().Key("end_to_end").BeginObject();
    WriteMetrics(&w, r.end_to_end, "");
    w.EndObject().Key("figures").BeginObject();
    WriteMetrics(&w, r.figures, "");
    w.EndObject().Key("layers").BeginObject();
    WriteMetrics(&w, r.layers, "");
    w.EndObject()
        .Key("attempted")
        .UInt(r.attempted)
        .Key("failed")
        .UInt(r.failed)
        .Key("mismatches")
        .UInt(r.mismatches)
        .Key("notes")
        .BeginArray();
    for (const std::string& n : r.notes) w.String(n);
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
  return w.TakeString();
}

std::string ResultLine(const std::vector<WorkloadResult>& results,
                       bool trace) {
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  for (const WorkloadResult& r : results) {
    correct = correct && r.mismatches == 0;
    attempted += r.attempted;
    failed += r.failed;
  }
  mpq::JsonWriter w;
  w.BeginObject()
      .Key("correct")
      .Bool(correct)
      .Key("attempted")
      .UInt(attempted)
      .Key("failed")
      .UInt(failed)
      .Key("metrics")
      .BeginObject();
  for (const WorkloadResult& r : results) {
    WriteMetrics(&w, trace ? r.layers : r.end_to_end,
                 results.size() > 1 ? r.workload + "." : "");
  }
  w.EndObject().EndObject();
  return w.TakeString();
}

}  // namespace perfbench
