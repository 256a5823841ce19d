// Unit checks of the benchmark's own helpers: the latency summary against a
// sorted-sample oracle, and span self time on synthetic nested, overlapping
// and chained spans. Exits non-zero on the first failed check.
//
//   perfbench_selftest

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ledger.h"
#include "stats.h"

using perfbench::ChildRule;

namespace {

int failures = 0;

#define CHECK_EQ(a, b)                                                     \
  do {                                                                     \
    auto va = (a);                                                         \
    auto vb = (b);                                                         \
    if (!(va == vb)) {                                                     \
      std::printf("FAIL %s:%d: %s == %s (%s vs %s)\n", __FILE__, __LINE__, \
                  #a, #b, std::to_string(va).c_str(),                      \
                  std::to_string(vb).c_str());                             \
      ++failures;                                                          \
    }                                                                      \
  } while (0)

mpq::SpanRecord MakeSpan(uint64_t id, uint64_t parent, uint64_t start,
                         uint64_t end, std::string name = "s",
                         std::string cat = "exec") {
  mpq::SpanRecord s;
  s.span_id = id;
  s.parent_id = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.name = std::move(name);
  s.cat = std::move(cat);
  return s;
}

// The oracle ranks by scanning for the smallest k with k/n >= p, in exact
// integer arithmetic, instead of the closed form the helper uses.
void SummaryMatchesSortedOracle() {
  mpq::Rng rng(7);
  for (size_t n : {1u, 2u, 9u, 20u, 21u, 99u, 100u, 109u, 110u, 999u, 1000u,
                   1009u, 1010u, 2500u, 9999u, 10000u}) {
    std::vector<double> sample;
    for (size_t i = 0; i < n; ++i) {
      sample.push_back(static_cast<double>(rng.Range(0, 1000000)) / 7.0);
    }
    std::vector<double> sorted = sample;
    std::sort(sorted.begin(), sorted.end());
    auto oracle_rank = [&](uint32_t bp) {
      size_t k = 1;
      while (k * 10000 < static_cast<size_t>(bp) * n) ++k;
      return k;
    };
    for (uint32_t max_bp : {9000u, 9900u, 9990u}) {
      perfbench::Summary s = perfbench::Summarize(sample, max_bp);
      CHECK_EQ(s.count, n);
      CHECK_EQ(s.median, sorted[oracle_rank(5000) - 1]);
      uint32_t want_bp = 5000;
      for (uint32_t bp : perfbench::kTailBasisPoints) {
        if (bp <= max_bp && n - oracle_rank(bp) >= perfbench::kTailMargin) {
          want_bp = bp;
        }
      }
      CHECK_EQ(s.tail_pct, want_bp / 100.0);
      CHECK_EQ(s.tail, sorted[oracle_rank(want_bp) - 1]);
    }
  }
  // Hand-checked: 1..1000 leaves exactly 10 samples above p99 = 990; one
  // sample fewer drops the tail to p90.
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  perfbench::Summary s = perfbench::Summarize(ramp, 9900);
  CHECK_EQ(s.median, 500.0);
  CHECK_EQ(s.tail_pct, 99.0);
  CHECK_EQ(s.tail, 990.0);
  ramp.pop_back();
  s = perfbench::Summarize(ramp, 9900);
  CHECK_EQ(s.tail_pct, 90.0);
  CHECK_EQ(s.tail, 900.0);
  CHECK_EQ(perfbench::Summarize({}, 9900).count, size_t{0});
}

void SelfTimeOfNestedSpans() {
  // A[0,100] with disjoint children B[10,30], C[40,60].
  std::vector<mpq::SpanRecord> spans = {MakeSpan(1, 0, 0, 100),
                                        MakeSpan(2, 1, 10, 30),
                                        MakeSpan(3, 1, 40, 60)};
  for (ChildRule rule : {ChildRule::kParentLink, ChildRule::kNesting}) {
    std::vector<uint64_t> self = perfbench::SelfTimesNs(spans, rule);
    CHECK_EQ(self[0], uint64_t{60});
    CHECK_EQ(self[1], uint64_t{20});
    CHECK_EQ(self[2], uint64_t{20});
  }
}

void SelfTimeOfOverlappingChildren() {
  // Parallel children B[10,50] and C[30,70] cover 60 ns of A, not 80.
  std::vector<mpq::SpanRecord> spans = {MakeSpan(1, 0, 0, 100),
                                        MakeSpan(2, 1, 10, 50),
                                        MakeSpan(3, 1, 30, 70)};
  std::vector<uint64_t> self =
      perfbench::SelfTimesNs(spans, ChildRule::kParentLink);
  CHECK_EQ(self[0], uint64_t{40});
  CHECK_EQ(self[1], uint64_t{40});
  CHECK_EQ(self[2], uint64_t{40});
  // A child running past its parent's end is clipped to the parent.
  spans = {MakeSpan(1, 0, 0, 50), MakeSpan(2, 1, 40, 80)};
  self = perfbench::SelfTimesNs(spans, ChildRule::kParentLink);
  CHECK_EQ(self[0], uint64_t{40});
  CHECK_EQ(self[1], uint64_t{40});
}

void SelfTimeOfChainedSiblings() {
  // dispatch D[0,100]; fragments F1 ⊃ F2 ⊃ F3 all name D as parent (each
  // fragment ran its consumer inline); F3 holds an operator span.
  std::vector<mpq::SpanRecord> spans = {
      MakeSpan(1, 0, 0, 100, "dispatch"), MakeSpan(2, 1, 5, 95, "frag:base"),
      MakeSpan(3, 1, 20, 80, "frag:select"), MakeSpan(4, 1, 30, 70, "frag:groupby"),
      MakeSpan(5, 4, 35, 65, "groupby", "op")};
  // Naive subtraction would give D 100 - 90 - 60 - 40 = -90.
  std::vector<uint64_t> self =
      perfbench::SelfTimesNs(spans, ChildRule::kParentLink);
  CHECK_EQ(self[0], uint64_t{10});
  CHECK_EQ(self[1], uint64_t{90});  // chained siblings are not its children
  CHECK_EQ(self[4], uint64_t{30});
  // By nesting, each fragment keeps only the time outside its consumer and
  // the self times add up to the root's duration.
  self = perfbench::SelfTimesNs(spans, ChildRule::kNesting);
  CHECK_EQ(self[0], uint64_t{10});
  CHECK_EQ(self[1], uint64_t{30});
  CHECK_EQ(self[2], uint64_t{20});
  CHECK_EQ(self[3], uint64_t{10});
  CHECK_EQ(self[4], uint64_t{30});
  uint64_t total = 0;
  for (uint64_t s : self) total += s;
  CHECK_EQ(total, uint64_t{100});
}

void LedgerBooksLayers() {
  std::vector<mpq::SpanRecord> spans = {
      MakeSpan(1, 0, 0, 4000000, "query"),
      MakeSpan(2, 1, 0, 3000000, "dispatch"),
      MakeSpan(3, 2, 0, 2000000, "frag:join", "frag"),
      MakeSpan(4, 3, 0, 1000000, "join", "op"),
      MakeSpan(5, 2, 2000000, 3000000, "merge")};
  perfbench::Ledger ledger;
  ledger.AddTrace(spans, ChildRule::kParentLink);
  ledger.AddTrace(spans, ChildRule::kParentLink);
  CHECK_EQ(ledger.traces(), size_t{2});
  CHECK_EQ(ledger.MeanMs("query"), 1.0);
  CHECK_EQ(ledger.MeanMs("dispatch"), 1.0);  // dispatch + merge self time
  CHECK_EQ(ledger.MeanMs("frag"), 1.0);
  CHECK_EQ(ledger.MeanMs("op:join"), 1.0);
  CHECK_EQ(ledger.MeanSpanUs("frag:join"), 2000.0);
  CHECK_EQ(ledger.MeanMs("absent"), 0.0);
}

}  // namespace

int main() {
  SummaryMatchesSortedOracle();
  SelfTimeOfNestedSpans();
  SelfTimeOfOverlappingChildren();
  SelfTimeOfChainedSiblings();
  LedgerBooksLayers();
  std::printf("%s (%d failed checks)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
