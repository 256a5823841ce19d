#include "ledger.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace perfbench {

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
uint64_t CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                   uint64_t lo, uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t reach = lo;  // everything before `reach` is already counted
  for (auto [s, e] : intervals) {
    s = std::max(s, reach);
    e = std::min(e, hi);
    if (e <= s) continue;
    covered += e - s;
    reach = e;
  }
  return covered;
}

uint64_t Duration(const mpq::SpanRecord& s) {
  return s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
}

}  // namespace

std::vector<uint64_t> SelfTimesNs(const std::vector<mpq::SpanRecord>& spans,
                                  ChildRule rule) {
  const size_t n = spans.size();
  std::vector<std::vector<size_t>> children(n);
  if (rule == ChildRule::kParentLink) {
    std::unordered_map<uint64_t, size_t> by_id;
    for (size_t i = 0; i < n; ++i) by_id[spans[i].span_id] = i;
    for (size_t i = 0; i < n; ++i) {
      auto it = by_id.find(spans[i].parent_id);
      if (spans[i].parent_id != 0 && it != by_id.end() && it->second != i) {
        children[it->second].push_back(i);
      }
    }
  } else {
    // Enclosure forest: sweep by (start asc, end desc); the innermost open
    // span that still covers a span's end encloses it. Ties keep input
    // order, which lists a parent before the child it opened.
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (spans[a].start_ns != spans[b].start_ns) {
        return spans[a].start_ns < spans[b].start_ns;
      }
      return spans[a].end_ns > spans[b].end_ns;
    });
    std::vector<size_t> open;
    for (size_t i : order) {
      while (!open.empty() && spans[open.back()].end_ns < spans[i].end_ns) {
        open.pop_back();
      }
      if (!open.empty()) children[open.back()].push_back(i);
      open.push_back(i);
    }
  }
  std::vector<uint64_t> self(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    iv.reserve(children[i].size());
    for (size_t c : children[i]) {
      iv.emplace_back(spans[c].start_ns, spans[c].end_ns);
    }
    self[i] = Duration(spans[i]) -
              CoveredNs(std::move(iv), spans[i].start_ns, spans[i].end_ns);
  }
  return self;
}

std::string LayerKey(const mpq::SpanRecord& span) {
  if (span.cat == "op") return "op:" + span.name;
  if (span.cat == "frag") return "frag";
  if (span.name == "merge") return "dispatch";
  return span.name;
}

void Ledger::AddTrace(const std::vector<mpq::SpanRecord>& spans,
                      ChildRule rule) {
  ++traces_;
  std::vector<uint64_t> self = SelfTimesNs(spans, rule);
  for (size_t i = 0; i < spans.size(); ++i) {
    self_ns_[LayerKey(spans[i])] += self[i];
    auto& [sum, count] = span_ns_[spans[i].name];
    sum += Duration(spans[i]);
    ++count;
  }
}

void Ledger::Merge(const Ledger& other) {
  traces_ += other.traces_;
  for (const auto& [k, v] : other.self_ns_) self_ns_[k] += v;
  for (const auto& [k, v] : other.span_ns_) {
    span_ns_[k].first += v.first;
    span_ns_[k].second += v.second;
  }
}

double Ledger::MeanMs(const std::string& key) const {
  auto it = self_ns_.find(key);
  if (it == self_ns_.end() || traces_ == 0) return 0;
  return static_cast<double>(it->second) / 1e6 / static_cast<double>(traces_);
}

double Ledger::MeanSpanUs(const std::string& name) const {
  auto it = span_ns_.find(name);
  if (it == span_ns_.end() || it->second.second == 0) return 0;
  return static_cast<double>(it->second.first) / 1e3 /
         static_cast<double>(it->second.second);
}

}  // namespace perfbench
