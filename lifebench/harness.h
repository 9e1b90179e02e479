// Engine-independent pieces of the lifecycle benchmark (lifebench.cc):
// order statistics over timing samples, the in-memory span recorder of the
// traced run, per-operator self-time attribution over a profiled plan, RSS
// readings, a host-speed calibration, and the one-line JSON result.
#ifndef LIFEBENCH_HARNESS_H_
#define LIFEBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/plan_stats.h"

namespace lifebench {

// ---- order statistics ----

// The q-quantile (0 <= q <= 1) of `values` by linear interpolation between
// closest ranks (numpy's default). Requires a non-empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// The median over `windows` of each non-empty window's q-quantile: the
// percentile of a typical stretch of the run, which host contention in a
// minority of windows does not move. Requires a non-empty window.
double WindowedQuantile(const std::vector<std::vector<double>>& windows,
                        double q);

// The highest percentile of the ladder 50, 90, 99, 99.9, ... that still has
// at least `min_beyond` of `n` samples above it; 0 when even the median
// does not.
double TailPercentile(size_t n, size_t min_beyond = 10);

// ---- spans ----

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;  // index into SpanRecorder::spans(), -1 for a root
  uint64_t request_id = 0;
};

// Each span's duration minus the part of it its child spans cover (the
// union of their intervals, clipped to the span's own).
std::vector<uint64_t> SelfNs(const std::vector<Span>& spans);

// Records nested spans in memory. Disabled recorders record nothing, so
// the untraced run pays one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Opens a span under the innermost open one; returns its index, or -1
  // when disabled.
  int Begin(std::string name, uint64_t request_id);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace_event JSON ("X" events, microseconds); self time, parent
  // and request id ride in each event's args.
  std::string ToChromeJson() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, uint64_t request_id)
      : recorder_(recorder),
        index_(recorder->Begin(std::move(name), request_id)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

// ---- executor attribution ----

// The operator classes exec.self_ms.<class>.<stmt> reports.
const std::vector<std::string>& OperatorClasses();

// "Write" for the Insert / CreateTableAs roots, the operator type for the
// six classes it names, "Other" for everything else.
std::string OperatorClassOf(const std::string& debug_name);

struct ExecAttribution {
  std::map<std::string, double> self_ms;  // by OperatorClassOf
  uint64_t rows = 0;     // rows emitted, summed over operator instances
  double total_ms = 0;   // sum of self_ms
};

// Splits a profiled statement's time by operator class. PlanStatsNode
// repeats a materialized CTE's producer under every CteScan that reads it;
// each operator instance (keyed by name, first_ns, wall_nanos) is counted
// once, and a node's self time subtracts only the children that ran inside
// its own lifetime — the producer runs inside the first gate to open.
ExecAttribution AttributeExec(const bornsql::obs::PlanStatsNode& root);

// ---- memory ----

// Bytes the allocator has handed out and not yet freed (mallinfo2: arena
// plus mmap'd chunks). Unlike RSS, which the kernel counts approximately
// (two identical runs differ by a few pages), this repeats exactly.
uint64_t HeapBytesInUse();
// The process's peak resident set size (getrusage), in bytes.
uint64_t PeakRssBytes();

// ---- host ----

// Fixed work that does not touch the engine, timed: a dependent integer
// multiply-add chain, and a dependent random walk through 256 MiB, which
// like the engine's working set lives in the shared L3 and DRAM, past the
// TLB's reach. The same on every run of every build, so a change in it
// between runs is the host's, not the program's. It maps 256 MiB while it
// runs, so call it only after the peak RSS has been read.
struct HostSpeed {
  double alu_ns = 0;    // per multiply-add step, median of three rounds
  double chase_ns = 0;  // per dependent load, median of three rounds
};
HostSpeed MeasureHostSpeed();

// ---- result ----

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The result line: {"correct": .., "attempted": .., "failed": ..,
// "metrics": {name: {"value": .., "unit": ..}, ...}}, values printed with
// all their digits. Names must be unique.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace lifebench

#endif  // LIFEBENCH_HARNESS_H_
