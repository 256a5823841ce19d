// Per-layer time attribution from the spans QueryService records.
//
// A span's self time is its duration minus the union of its children's
// intervals, clipped to the span. Subtracting child durations one by one is
// wrong twice over: fragments of one query run in parallel, so their spans
// overlap, and with inline execution a fragment schedules its consumer on
// its own call stack, so sibling `frag:*` spans chain inside each other.
// Both make the naive `dispatch` self time negative.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Which spans count as a span's children.
enum class ChildRule {
  /// Spans naming it as parent: right when fragments run on pool threads.
  kParentLink,
  /// Spans whose interval lies inside its own: right for a trace recorded
  /// on one thread, where nesting in time means one call ran inside another.
  kNesting,
};

/// Self time (ns) of every span of one trace, in input order. Never
/// negative.
std::vector<uint64_t> SelfTimesNs(const std::vector<mpq::SpanRecord>& spans,
                                  ChildRule rule);

/// The layer key a span's self time is booked under: "op:<kind>" for
/// operator spans, "frag" for fragment spans, "dispatch" for the dispatch
/// and merge spans, otherwise the span name.
std::string LayerKey(const mpq::SpanRecord& span);

/// Self time summed per layer key over many traces.
class Ledger {
 public:
  void AddTrace(const std::vector<mpq::SpanRecord>& spans, ChildRule rule);
  void Merge(const Ledger& other);

  size_t traces() const { return traces_; }
  /// Mean self milliseconds per trace booked under `key`.
  double MeanMs(const std::string& key) const;
  /// Mean duration (not self time) in microseconds of spans named `name`,
  /// over the spans that occurred.
  double MeanSpanUs(const std::string& name) const;

 private:
  size_t traces_ = 0;
  std::map<std::string, uint64_t> self_ns_;
  std::map<std::string, std::pair<uint64_t, uint64_t>> span_ns_;  // sum, n
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
