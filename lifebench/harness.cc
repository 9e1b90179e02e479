#include "harness.h"

#include <malloc.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <utility>

#include "common/strings.h"
#include "obs/stats.h"

namespace lifebench {

using bornsql::StrFormat;
using bornsql::obs::PlanStatsNode;

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double WindowedQuantile(const std::vector<std::vector<double>>& windows,
                        double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(Quantile(w, q));
  }
  return Median(std::move(per_window));
}

double TailPercentile(size_t n, size_t min_beyond) {
  double best = 0;
  double beyond = 0.5;  // share of samples above the candidate percentile
  for (double p = 50; p < 100; p = 100 - beyond * 100) {
    if (static_cast<double>(n) * beyond < static_cast<double>(min_beyond)) {
      break;
    }
    best = p;
    beyond = beyond == 0.5 ? 0.1 : beyond / 10;
  }
  return best;
}

// ---- spans ----

int SpanRecorder::Begin(std::string name, uint64_t request_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = request_id;
  span.start_ns = bornsql::obs::SteadyNowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = bornsql::obs::SteadyNowNs();
  // Spans close innermost first; tolerate a recorder disabled mid-span.
  while (!open_.empty() && open_.back() != index) open_.pop_back();
  if (!open_.empty()) open_.pop_back();
}

std::vector<uint64_t> SelfNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<uint64_t, uint64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t reach = s.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, s.end_ns);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = s.end_ns - s.start_ns - covered;
  }
  return self;
}

std::string SpanRecorder::ToChromeJson() const {
  const std::vector<uint64_t> self = SelfNs(spans_);
  const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += StrFormat(
        "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"parent\": %d, "
        "\"request_id\": %llu, \"self_us\": %.3f}}",
        i == 0 ? "" : ",", s.name.c_str(), (s.start_ns - base) / 1e3,
        (s.end_ns - s.start_ns) / 1e3, s.parent,
        static_cast<unsigned long long>(s.request_id), self[i] / 1e3);
  }
  out += "\n]}\n";
  return out;
}

// ---- executor attribution ----

const std::vector<std::string>& OperatorClasses() {
  static const std::vector<std::string> kClasses = {
      "HashAggregate", "HashJoin", "IndexJoin", "Project",
      "CteScan",       "SeqScan",  "Write",     "Other"};
  return kClasses;
}

std::string OperatorClassOf(const std::string& debug_name) {
  const std::string type = bornsql::obs::OperatorTypeOf(debug_name);
  if (type == "Insert" || type == "CreateTableAs") return "Write";
  const std::vector<std::string>& classes = OperatorClasses();
  if (std::find(classes.begin(), classes.end(), type) != classes.end()) {
    return type;
  }
  return "Other";
}

namespace {

using InstanceKey = std::tuple<std::string, uint64_t, uint64_t>;

// True when `child` ran inside `parent`'s lifetime. Synthetic DML roots
// carry no lifetime (first_ns == 0) and contain every child.
bool RanInside(const PlanStatsNode& parent, const PlanStatsNode& child) {
  if (parent.stats.first_ns == 0) return true;
  return child.stats.first_ns >= parent.stats.first_ns &&
         child.stats.last_ns <= parent.stats.last_ns;
}

void Attribute(const PlanStatsNode& node, std::set<InstanceKey>* seen,
               ExecAttribution* out) {
  if (!seen->emplace(node.name, node.stats.first_ns, node.stats.wall_nanos)
           .second) {
    return;  // already counted under another CteScan
  }
  uint64_t children_ns = 0;
  for (const PlanStatsNode& child : node.children) {
    if (RanInside(node, child)) children_ns += child.stats.wall_nanos;
  }
  const double self_ms =
      (node.stats.wall_nanos - std::min(children_ns, node.stats.wall_nanos)) /
      1e6;
  out->self_ms[OperatorClassOf(node.name)] += self_ms;
  out->total_ms += self_ms;
  out->rows += node.stats.rows_emitted;
  for (const PlanStatsNode& child : node.children) {
    Attribute(child, seen, out);
  }
}

}  // namespace

ExecAttribution AttributeExec(const PlanStatsNode& root) {
  ExecAttribution out;
  for (const std::string& cls : OperatorClasses()) out.self_ms[cls] = 0;
  std::set<InstanceKey> seen;
  Attribute(root, &seen, &out);
  return out;
}

// ---- memory ----

uint64_t HeapBytesInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

uint64_t PeakRssBytes() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

// ---- host ----

HostSpeed MeasureHostSpeed() {
  constexpr size_t kSlots = size_t{1} << 26;  // uint32_t slots: 256 MiB
  constexpr uint64_t kSteps = 10'000'000;
  constexpr size_t kLoads = 400'000;
  constexpr int kRounds = 3;
  // Mapped directly rather than malloc'd: freeing a chunk this large would
  // raise glibc's mmap threshold and change how the process allocates after
  // it.
  void* mem = mmap(nullptr, kSlots * sizeof(uint32_t), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return {};
  uint32_t* next = static_cast<uint32_t*>(mem);
  // A full-period LCG modulo 2^26 (multiplier 1 mod 4, odd increment) is
  // one cycle through every slot, in an order no prefetcher follows.
  for (size_t i = 0; i < kSlots; ++i) {
    next[i] = static_cast<uint32_t>((0x5851f42d4c957f2dULL * i +
                                     0x14057b7ef767814fULL) &
                                    (kSlots - 1));
  }
  std::vector<double> alu, chase;
  volatile uint64_t sink = 0;
  for (int round = 0; round < kRounds; ++round) {
    uint64_t start = bornsql::obs::SteadyNowNs();
    uint64_t v = static_cast<uint64_t>(round) + 1;
    for (uint64_t i = 0; i < kSteps; ++i) {
      v = v * 6364136223846793005ULL + (v >> 7);
    }
    alu.push_back(static_cast<double>(bornsql::obs::SteadyNowNs() - start) /
                  static_cast<double>(kSteps));
    start = bornsql::obs::SteadyNowNs();
    uint32_t slot = static_cast<uint32_t>(round);
    for (size_t i = 0; i < kLoads; ++i) slot = next[slot];
    chase.push_back(static_cast<double>(bornsql::obs::SteadyNowNs() - start) /
                    static_cast<double>(kLoads));
    sink = sink + v + slot;
  }
  munmap(mem, kSlots * sizeof(uint32_t));
  return {Median(std::move(alu)), Median(std::move(chase))};
}

// ---- result ----

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", metrics[i].name.c_str(),
                     metrics[i].value, metrics[i].unit.c_str());
  }
  out += "}}";
  return out;
}

}  // namespace lifebench
