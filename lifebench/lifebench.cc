// lifebench — the BornSQL model lifecycle benchmark.
//
//   lifebench --workload train|serve --seed N --seconds S --trace 0|1
//             [--publications N] [--trace-out FILE]
//
// Every run synthesizes the Scopus stand-in (ScopusSynthesizer, 12,000
// publications by default) from --seed and labels every publication with
// the in-memory reference classifier (born_ref, untimed). It then sets up
// the deployed §4.2 model — generate + load + Fit + Deploy — three times,
// reporting the median as setup_s, and after each set-up one client drives
// the workload in a closed loop for a third of --seconds:
//
//   train  lifecycle cycles (Fit, Unlearn + PartialFit, Deploy + batch
//          Predict), each followed by point predictions through the driver,
//          which lexes, parses and plans ~1 KB of SQL per request.
//   serve  lifecycle cycles, each followed by EXECUTEs of a PREPAREd predict
//          statement through a serve::Session for seeded random ids:
//          plan-cache hits.
//
// Every prediction is checked against the reference labels and the corpus
// is checked row for row after every Unlearn + PartialFit pair; a wrong
// answer counts as a failed operation. The last stdout line is the JSON
// result. --trace 1 instead replays a slice of each workload untraced and
// then traced with the benchmark's spans on, runs the per-layer probes and
// prints the per-layer metrics (README.md has the metric-to-layer map).
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "born/born_ref.h"
#include "born/born_sql.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/timer.h"
#include "data/scopus.h"
#include "engine/database.h"
#include "engine/planner.h"
#include "harness.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/session.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "storage/table.h"

namespace {

namespace born = bornsql::born;
namespace data = bornsql::data;
namespace engine = bornsql::engine;
namespace serve = bornsql::serve;
namespace storage = bornsql::storage;
using bornsql::Result;
using bornsql::Rng;
using bornsql::Row;
using bornsql::Status;
using bornsql::StrFormat;
using bornsql::Value;
using bornsql::WallTimer;
using lifebench::Median;
using lifebench::Metric;
using lifebench::Quantile;
using lifebench::ScopedSpan;
using lifebench::SpanRecorder;

constexpr char kModel[] = "m";
constexpr char kTrainItems[] =
    "SELECT id AS n FROM publication WHERE id % 10 <= 7";
constexpr char kSliceItems[] =
    "SELECT id AS n FROM publication WHERE id % 10 = 7";
constexpr char kHeldOutItems[] =
    "SELECT id AS n FROM publication WHERE id % 10 >= 8";
// Set-ups per run; the end-to-end run measures a segment after each.
constexpr int kSetupReps = 3;
// Point latencies are grouped into windows of this length.
constexpr double kWindowSeconds = 1.0;
// Point predictions through the driver after each train cycle.
constexpr int kTrainPointRequests = 1000;
// Seconds of serving after each serve cycle.
constexpr double kServeSeconds = 1.0;
// Unlearn + PartialFit and Deploy + Predict(held-out) rounds per lifecycle
// cycle: the shorter operations get twice the samples of Fit.
constexpr int kRounds = 2;
constexpr double kCorpusTolerance = 1e-9;
// Seed offset of the request-id stream, so ids and data differ.
constexpr uint64_t kIdStream = 0x9e3779b97f4a7c15ULL;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  size_t publications = 12000;
  std::string trace_out;
};

double NowSeconds() {
  return static_cast<double>(bornsql::obs::SteadyNowNs()) / 1e9;
}

// ---- correctness ----

// Operations attempted and failed; prints the first few failures.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool invariants_ok = true;

  void Record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 5) {
      std::fprintf(stderr, "lifebench: FAILED %s\n", what.c_str());
    }
  }
  void Violate(const std::string& what) {
    invariants_ok = false;
    std::fprintf(stderr, "lifebench: FAILED %s\n", what.c_str());
  }
};

// Reference label per publication id (index = id); Null when the model
// knows no feature of the publication, in which case SQL returns no row.
using Labels = std::vector<Value>;

Labels ReferenceLabels(const data::ScopusSynthesizer& synth) {
  born::BornClassifierRef ref;
  std::vector<born::Example> train;
  for (const data::Publication& pub : synth.publications()) {
    if (pub.id % 10 <= 7) train.push_back(synth.ToExample(pub));
  }
  Labels labels(synth.publications().size() + 1);
  if (!ref.Fit(train).ok() || !ref.Deploy().ok()) return labels;
  for (const data::Publication& pub : synth.publications()) {
    Result<Value> label = ref.Predict(synth.ToExample(pub).x);
    if (label.ok()) labels[static_cast<size_t>(pub.id)] = *label;
  }
  return labels;
}

// True when `rows` (n, k) hold exactly one row per labelled id in `ids`,
// each with the reference label.
bool MatchesLabels(const std::vector<std::pair<Value, Value>>& rows,
                   const std::vector<int64_t>& ids, const Labels& labels) {
  size_t expected = 0;
  for (int64_t id : ids) {
    if (!labels[static_cast<size_t>(id)].is_null()) ++expected;
  }
  if (rows.size() != expected) return false;
  std::vector<bool> seen(labels.size(), false);
  for (const auto& [n, k] : rows) {
    if (!n.is_int() || n.AsInt() < 1 ||
        static_cast<size_t>(n.AsInt()) >= labels.size()) {
      return false;
    }
    const size_t id = static_cast<size_t>(n.AsInt());
    if (seen[id] || labels[id].is_null() ||
        Value::Compare(labels[id], k) != 0) {
      return false;
    }
    seen[id] = true;
  }
  return true;
}

std::vector<std::pair<Value, Value>> Pairs(
    const std::vector<born::SqlPrediction>& preds) {
  std::vector<std::pair<Value, Value>> out;
  out.reserve(preds.size());
  for (const born::SqlPrediction& p : preds) out.emplace_back(p.n, p.k);
  return out;
}

std::vector<std::pair<Value, Value>> Pairs(const std::vector<Row>& rows) {
  std::vector<std::pair<Value, Value>> out;
  out.reserve(rows.size());
  for (const Row& r : rows) {
    if (r.size() == 2) out.emplace_back(r[0], r[1]);
  }
  return out;
}

struct CorpusRow {
  std::string j;
  Value k;
  double w = 0;
};
using Corpus = std::vector<CorpusRow>;

Result<Corpus> ReadCorpus(engine::Database& db) {
  BORNSQL_ASSIGN_OR_RETURN(
      engine::QueryResult result,
      db.Execute(StrFormat("SELECT j, k, w FROM %s_corpus", kModel)));
  Corpus out;
  out.reserve(result.rows.size());
  for (Row& r : result.rows) {
    out.push_back({r[0].AsText(), r[1], r[2].AsDouble()});
  }
  std::sort(out.begin(), out.end(), [](const CorpusRow& a, const CorpusRow& b) {
    if (a.j != b.j) return a.j < b.j;
    return Value::Compare(a.k, b.k) < 0;
  });
  return out;
}

bool CorpusMatches(engine::Database& db, const Corpus& expected) {
  Result<Corpus> actual = ReadCorpus(db);
  if (!actual.ok() || actual->size() != expected.size()) return false;
  for (size_t i = 0; i < expected.size(); ++i) {
    const CorpusRow& a = (*actual)[i];
    const CorpusRow& e = expected[i];
    if (a.j != e.j || Value::Compare(a.k, e.k) != 0) return false;
    const double scale = std::max(std::fabs(a.w), std::fabs(e.w));
    if (std::fabs(a.w - e.w) > kCorpusTolerance * scale) return false;
  }
  return true;
}

// ---- the deployed model ----

// Where the model lives. train's end-to-end run loads into a plain
// engine::Database. The serve workload and every traced run need serving
// sessions, so they load into a serve::Server and run the driver on its
// first session's Database; serve traffic uses a second session over the
// same catalog. The driver always calls Database::Execute (no plan cache).
struct Deployment {
  std::unique_ptr<engine::Database> plain;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::Session> admin;
  std::unique_ptr<born::BornSqlClassifier> clf;

  engine::Database& db() { return plain ? *plain : admin->database(); }
  void Reset() {
    clf.reset();
    admin.reset();
    server.reset();
    plain.reset();
  }
};

born::SqlSource ScopusSource() {
  born::SqlSource source;
  source.x_parts = data::ScopusSynthesizer::XParts();
  source.y = data::ScopusSynthesizer::YQuery();
  return source;
}

const char* const kBaseTables[] = {"publication", "pub_author", "pub_keyword",
                                   "pub_term"};

uint64_t BaseRows(engine::Database& db) {
  uint64_t rows = 0;
  for (const char* name : kBaseTables) {
    if (auto t = db.catalog().GetTable(name); t.ok()) rows += (*t)->row_count();
  }
  return rows;
}

struct SetupTimes {
  std::vector<double> total, generate, load, fit, deploy;
};

// State fixed by the first set-up of a run.
struct Baseline {
  Labels labels;
  Corpus fitted;  // corpus right after Fit(train)
  uint64_t base_rows = 0;
  uint64_t load_heap_growth = 0;
};

// generate + load + Fit + Deploy into a fresh Deployment. The first call
// also labels the data with the reference model (untimed) and records the
// baseline corpus and the heap growth across Load.
Status SetUp(const Options& opt, SpanRecorder* rec, Deployment* d,
             SetupTimes* times, Baseline* base) {
  d->Reset();
  const bool first = base->labels.empty();
  ScopedSpan setup_span(rec, "setup", 0);
  WallTimer timer;
  std::unique_ptr<data::ScopusSynthesizer> synth;
  {
    ScopedSpan span(rec, "data.generate", 0);
    data::ScopusOptions so;
    so.num_publications = opt.publications;
    so.seed = opt.seed;
    synth = std::make_unique<data::ScopusSynthesizer>(so);
  }
  const double generate = timer.ElapsedSeconds();
  if (first) {
    ScopedSpan span(rec, "oracle.labels", 0);
    base->labels = ReferenceLabels(*synth);
  }
  timer.Reset();
  if (opt.workload == "serve" || opt.trace) {
    d->server = std::make_unique<serve::Server>();
    d->admin = d->server->Connect();
  } else {
    d->plain = std::make_unique<engine::Database>();
  }
  const uint64_t heap_before = lifebench::HeapBytesInUse();
  {
    ScopedSpan span(rec, "data.load", 0);
    BORNSQL_RETURN_IF_ERROR(synth->Load(&d->db()));
  }
  const double load = timer.ElapsedSeconds();
  if (first) {
    base->load_heap_growth = lifebench::HeapBytesInUse() - heap_before;
    base->base_rows = BaseRows(d->db());
  }
  synth.reset();
  d->clf = std::make_unique<born::BornSqlClassifier>(&d->db(), kModel,
                                                     ScopusSource());
  timer.Reset();
  {
    ScopedSpan span(rec, "born.fit", 0);
    BORNSQL_RETURN_IF_ERROR(d->clf->Fit(kTrainItems));
  }
  const double fit = timer.ElapsedSeconds();
  if (first) {
    BORNSQL_ASSIGN_OR_RETURN(base->fitted, ReadCorpus(d->db()));
  }
  timer.Reset();
  {
    ScopedSpan span(rec, "born.deploy", 0);
    BORNSQL_RETURN_IF_ERROR(d->clf->Deploy());
  }
  const double deploy = timer.ElapsedSeconds();
  times->generate.push_back(generate);
  times->load.push_back(load);
  times->fit.push_back(fit);
  times->deploy.push_back(deploy);
  times->total.push_back(generate + load + fit + deploy);
  return Status::OK();
}


// ---- operations ----

struct Samples {
  std::vector<double> fit, unlearn, partial_fit, deploy, predict_batch;
  // Point latencies in microseconds, one group per window: a second of a
  // point loop, or the block of point requests after a train cycle.
  std::vector<std::vector<double>> point_us;
  // Statements each driver operation issued, last seen (span name -> count).
  std::map<std::string, uint64_t> statements;
  // Plan-cache outcomes of the serve sessions.
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;

  void NewWindow() { point_us.emplace_back(); }
  void AddPoint(double us) {
    if (point_us.empty()) NewWindow();
    point_us.back().push_back(us);
  }
  std::vector<double> AllPoints() const {
    std::vector<double> all;
    for (const std::vector<double>& w : point_us) {
      all.insert(all.end(), w.begin(), w.end());
    }
    return all;
  }
};

// What every operation needs: the model, the expected answers, and where
// spans, samples and outcomes go.
struct Ctx {
  Deployment& d;
  const Baseline& base;
  SpanRecorder* rec;
  Samples* s;
  Tally* tally;
};

std::vector<int64_t> HeldOutIds(size_t publications) {
  std::vector<int64_t> ids;
  for (int64_t id = 1; id <= static_cast<int64_t>(publications); ++id) {
    if (id % 10 >= 8) ids.push_back(id);
  }
  return ids;
}

// Runs one driver operation inside a span, appends its wall time to `out`
// and counts the statements it executed.
template <typename Op>
Status Timed(Ctx& c, const char* name, std::vector<double>* out, Op&& op) {
  const bornsql::obs::MetricsRegistry& metrics = c.d.db().metrics();
  const uint64_t before = metrics.counter(bornsql::obs::kQueriesExecuted);
  ScopedSpan span(c.rec, name, 0);
  WallTimer timer;
  Status st = op();
  out->push_back(timer.ElapsedSeconds());
  c.s->statements[name] =
      metrics.counter(bornsql::obs::kQueriesExecuted) - before;
  return st;
}

// One lifecycle cycle over the deployed model: Fit -> kRounds x
// (Unlearn(slice) -> PartialFit(slice) -> corpus check) -> kRounds x
// (Deploy -> Predict(held-out) -> label check). Leaves the model deployed
// on the fitted corpus.
void LifecycleCycle(Ctx& c, const std::vector<int64_t>& held_out) {
  born::BornSqlClassifier& clf = *c.d.clf;
  Status st =
      Timed(c, "born.fit", &c.s->fit, [&] { return clf.Fit(kTrainItems); });
  c.tally->Record(st.ok(), "Fit: " + st.ToString());
  for (int round = 0; round < kRounds; ++round) {
    st = Timed(c, "born.unlearn", &c.s->unlearn,
               [&] { return clf.Unlearn(kSliceItems); });
    c.tally->Record(st.ok(), "Unlearn: " + st.ToString());
    st = Timed(c, "born.partial_fit", &c.s->partial_fit,
               [&] { return clf.PartialFit(kSliceItems); });
    c.tally->Record(st.ok() && CorpusMatches(c.d.db(), c.base.fitted),
                    "PartialFit + corpus check: " + st.ToString());
  }
  for (int round = 0; round < kRounds; ++round) {
    st = Timed(c, "born.deploy", &c.s->deploy, [&] { return clf.Deploy(); });
    c.tally->Record(st.ok(), "Deploy: " + st.ToString());
    Result<std::vector<born::SqlPrediction>> preds = Status::OK();
    Timed(c, "born.predict_batch", &c.s->predict_batch, [&] {
      preds = clf.Predict(kHeldOutItems);
      return preds.status();
    });
    c.tally->Record(
        preds.ok() && MatchesLabels(Pairs(*preds), held_out, c.base.labels),
        "batch Predict: " + preds.status().ToString());
  }
}

// The point-predict item query for one document.
std::string PointItems(int64_t id) {
  return StrFormat("SELECT %" PRId64 " AS n", id);
}

// One point prediction through the driver (Database::Execute, no cache).
void DriverPoint(Ctx& c, int64_t id, uint64_t request) {
  ScopedSpan span(c.rec, "request.driver", request);
  const std::string q_n = PointItems(id);
  WallTimer timer;
  Result<std::vector<born::SqlPrediction>> preds = c.d.clf->Predict(q_n);
  c.s->AddPoint(timer.ElapsedSeconds() * 1e6);
  c.tally->Record(
      preds.ok() && MatchesLabels(Pairs(*preds), {id}, c.base.labels),
      StrFormat("point Predict(%" PRId64 "): %s", id,
                preds.status().ToString().c_str()));
}

// A serving client holding the PREPAREd predict statement.
class ServeClient {
 public:
  explicit ServeClient(Deployment& d) : session_(d.server->Connect()) {
    prepared_ok_ = session_
                       ->Execute("PREPARE predict AS " +
                                 d.clf->BuildPredictSql("SELECT $1 AS n"))
                       .ok();
  }

  serve::Session& session() { return *session_; }
  bool prepared() const { return prepared_ok_; }

  void Request(Ctx& c, int64_t id, uint64_t request) {
    ScopedSpan span(c.rec, "request.serve", request);
    const std::string sql = StrFormat("EXECUTE predict(%" PRId64 ")", id);
    WallTimer timer;
    Result<engine::QueryResult> result = session_->Execute(sql);
    c.s->AddPoint(timer.ElapsedSeconds() * 1e6);
    c.tally->Record(
        result.ok() && MatchesLabels(Pairs(result->rows), {id}, c.base.labels),
        StrFormat("EXECUTE predict(%" PRId64 "): %s", id,
                  result.status().ToString().c_str()));
  }

  // Adds the session's plan-cache hits and lookups to `s`.
  void CountCache(Samples* s) const {
    s->cache_hits += session_->cache_hits();
    s->cache_lookups += session_->cache_hits() + session_->cache_misses();
  }

 private:
  std::unique_ptr<serve::Session> session_;
  bool prepared_ok_ = false;
};

// The seeded request-id sequence: uniform over every publication.
class IdStream {
 public:
  IdStream(uint64_t seed, size_t publications)
      : rng_(seed ^ kIdStream), n_(publications) {}
  // The i-th id of the sequence.
  int64_t At(size_t i) {
    while (ids_.size() <= i) {
      ids_.push_back(static_cast<int64_t>(rng_.Uniform(n_)) + 1);
    }
    return ids_[i];
  }

 private:
  Rng rng_;
  size_t n_;
  std::vector<int64_t> ids_;
};

// Runs `step(i)` for i = 0, 1, ... for about `seconds` (at least once):
// no step starts that would, at the last step's pace, end more than half
// a step past the deadline. Returns the number of steps.
template <typename Step>
uint64_t RunFor(double seconds, Step&& step) {
  const double deadline = NowSeconds() + seconds;
  uint64_t i = 0;
  double now = NowSeconds();
  double last = 0;
  do {
    const double start = now;
    step(i++);
    now = NowSeconds();
    last = now - start;
  } while (now + last / 2 < deadline);
  return i;
}

// Runs `request(i)` for i = 0, 1, ... for `seconds`, opening a new window
// of point samples every kWindowSeconds; returns the number of requests.
template <typename Request>
uint64_t PointLoop(double seconds, Samples* s, Request&& request) {
  double window_end = 0;
  return RunFor(seconds, [&](uint64_t i) {
    if (const double now = NowSeconds(); now >= window_end) {
      s->NewWindow();
      window_end = now + kWindowSeconds;
    }
    request(i);
  });
}

// One train cycle and its window of point requests, numbered from
// `first_request` in the id sequence.
void TrainStep(Ctx& c, IdStream& ids, const std::vector<int64_t>& held_out,
               uint64_t first_request) {
  LifecycleCycle(c, held_out);
  c.s->NewWindow();
  for (uint64_t r = first_request; r < first_request + kTrainPointRequests;
       ++r) {
    DriverPoint(c, ids.At(r), r);
  }
}

double HitRate(const Samples& s) {
  return s.cache_lookups == 0 ? 0
                              : static_cast<double>(s.cache_hits) /
                                    static_cast<double>(s.cache_lookups);
}

// ---- the end-to-end run ----

// The informational point-latency line: sample count and the pooled
// percentiles up to the highest with at least ten samples beyond it.
void PrintTail(const Samples& s) {
  const std::vector<double> us = s.AllPoints();
  std::printf("# point requests: %zu samples in %zu windows; pooled",
              us.size(), s.point_us.size());
  const double tail = lifebench::TailPercentile(us.size());
  for (double p = 50; tail > 0 && p <= tail + 1e-9;
       p = p == 50 ? 90 : 100 - (100 - p) / 10) {
    std::printf(" p%g %.1f us", p, Quantile(us, p / 100));
  }
  std::printf("\n");
}

// One segment of the end-to-end run, on a fresh set-up: lifecycle cycles
// for `seconds`, each followed by the workload's point requests. Segments
// follow each set-up, and cycles alternate with point requests, so that
// every metric's samples spread over the whole run; the host flips between
// fast and slow periods lasting seconds.
void RunSegment(Ctx& c, const Options& opt, double seconds, IdStream& ids,
                uint64_t* request) {
  const std::vector<int64_t> held_out = HeldOutIds(opt.publications);
  if (opt.workload == "train") {
    RunFor(seconds, [&](uint64_t) {
      TrainStep(c, ids, held_out, *request);
      *request += kTrainPointRequests;
    });
    return;
  }
  ServeClient client(c.d);
  if (!client.prepared()) c.tally->Violate("PREPARE predict");
  RunFor(seconds, [&](uint64_t) {
    LifecycleCycle(c, held_out);
    PointLoop(kServeSeconds, c.s, [&](uint64_t) {
      client.Request(c, ids.At(*request), *request);
      ++*request;
    });
  });
  client.CountCache(c.s);
}

std::vector<Metric> EndToEndMetrics(const Options& opt, const Baseline& base,
                                    const SetupTimes& setup, Samples& s,
                                    Tally* tally) {
  // The set-ups' Fit and Deploy are the same statements as a cycle's.
  s.fit.insert(s.fit.end(), setup.fit.begin(), setup.fit.end());
  s.deploy.insert(s.deploy.end(), setup.deploy.begin(), setup.deploy.end());
  std::printf(
      "# samples: %zu set-ups; fit %zu, unlearn %zu, deploy %zu, "
      "predict_batch %zu\n",
      setup.total.size(), s.fit.size(), s.unlearn.size(), s.deploy.size(),
      s.predict_batch.size());
  PrintTail(s);
  if (opt.workload == "serve") {
    std::printf("# serve: plan-cache hit rate %.5f\n", HitRate(s));
    if (HitRate(s) < 0.99) {
      tally->Violate(StrFormat("plan-cache hit rate %.4f < 0.99", HitRate(s)));
    }
  }
  const double held = static_cast<double>(HeldOutIds(opt.publications).size());
  return {
      {"setup_s", Median(setup.total), "s"},
      {"peak_rss_bytes", static_cast<double>(lifebench::PeakRssBytes()), "B"},
      {"stored_bytes_per_row",
       static_cast<double>(base.load_heap_growth) /
           static_cast<double>(base.base_rows),
       "B/row"},
      {"fit_s", Median(s.fit), "s"},
      {"unlearn_s", Median(s.unlearn), "s"},
      {"deploy_s", Median(s.deploy), "s"},
      {"predict_batch_items_per_s", held / Median(s.predict_batch), "items/s"},
      {"point_p50_us", lifebench::WindowedQuantile(s.point_us, 0.5), "us"},
      {"point_p90_us", lifebench::WindowedQuantile(s.point_us, 0.9), "us"},
  };
}

// ---- the traced run ----

// Requests the per-request probes replay, and rounds the storage probes
// take a median over.
constexpr size_t kProbeRequests = 200;
constexpr size_t kProfiledPoints = 50;
constexpr int kProbeRounds = 5;
constexpr size_t kStorageKeys = 4096;
constexpr int kTraceWindows = 10;
constexpr int kTraceWindowRequests = 100;

// The statements whose executor time exec.* breaks down, each with the
// operator classes its plans never contain, which it does not report; time
// in an unreported class would go to Other.
const std::vector<std::pair<std::string, std::vector<std::string>>>
    kProfiledStatements = {
        {"fit", {}},
        {"unlearn", {}},
        {"deploy", {"IndexJoin"}},
        {"predict_batch", {"HashJoin", "Write"}},
        {"predict_point", {"HashJoin", "Write"}},
};

// Runs `step(i)` untraced for `seconds` (at least once), then the same
// steps again with the span recorder on; returns traced / untraced time.
template <typename Step>
double TraceOverhead(SpanRecorder* rec, double seconds, Step&& step) {
  rec->set_enabled(false);
  WallTimer timer;
  const uint64_t n = RunFor(seconds, step);
  const double untraced = timer.ElapsedSeconds();
  rec->set_enabled(true);
  timer.Reset();
  for (uint64_t i = 0; i < n; ++i) step(i);
  return timer.ElapsedSeconds() / untraced;
}

// Per-call time of `probe(i)` for i < n, in `unit_scale` units of a second
// (1e9 = ns), median over kProbeRounds rounds.
template <typename Probe>
double PerCall(SpanRecorder* rec, const char* name, size_t n,
               double unit_scale, Probe&& probe) {
  std::vector<double> per_call;
  for (int round = 0; round < kProbeRounds; ++round) {
    ScopedSpan span(rec, name, static_cast<uint64_t>(round));
    WallTimer timer;
    for (size_t i = 0; i < n; ++i) probe(i);
    per_call.push_back(timer.ElapsedSeconds() * unit_scale /
                       static_cast<double>(n));
  }
  return Median(per_call);
}

// exec.self_ms.<class>.<stmt> and exec.rows.<stmt>: the driver's main
// statement of each operation through Database::ExecuteProfiled, with the
// model restored (and checked) after each.
void ExecProbes(Ctx& c, IdStream& ids, const std::vector<int64_t>& held_out,
                std::vector<Metric>* m) {
  born::BornSqlClassifier& clf = *c.d.clf;
  engine::Database& db = c.d.db();
  struct Totals {
    lifebench::ExecAttribution sum;
    double measured_ms = 0;
    int calls = 0;
  };
  std::map<std::string, Totals> totals;
  auto profile = [&](const std::string& stmt, const std::string& sql,
                     uint64_t request) {
    ScopedSpan span(c.rec, "profile." + stmt, request);
    WallTimer timer;
    Result<engine::ProfiledQuery> q = db.ExecuteProfiled(sql);
    const double measured_ms = timer.ElapsedMillis();
    if (q.ok()) {
      const lifebench::ExecAttribution a = lifebench::AttributeExec(q->plan);
      Totals& t = totals[stmt];
      for (const auto& [cls, ms] : a.self_ms) t.sum.self_ms[cls] += ms;
      t.sum.rows += a.rows;
      t.sum.total_ms += a.total_ms;
      t.measured_ms += measured_ms;
      ++t.calls;
    }
    return q;
  };
  // Unlearn and PartialFit are one upsert with the sign flipped.
  bool ok = profile("unlearn", clf.BuildFitSql(kSliceItems, true), 0).ok() &&
            profile("partial_fit", clf.BuildFitSql(kSliceItems, false), 0)
                .ok() &&
            CorpusMatches(db, c.base.fitted);
  c.tally->Record(ok, "profiled Unlearn + PartialFit");
  // Fit is the same upsert into an empty corpus.
  ok = db.Execute("DELETE FROM " + clf.corpus_table()).ok() &&
       profile("fit", clf.BuildFitSql(kTrainItems, false), 0).ok() &&
       CorpusMatches(db, c.base.fitted);
  c.tally->Record(ok, "profiled Fit");
  // Deploy's CREATE TABLE AS; the driver's Deploy then rebuilds it with
  // its index.
  ok = clf.Undeploy().ok() && profile("deploy", clf.BuildDeploySql(), 0).ok() &&
       clf.Deploy().ok();
  c.tally->Record(ok, "profiled Deploy");
  Result<engine::ProfiledQuery> batch =
      profile("predict_batch", clf.BuildPredictSql(kHeldOutItems), 0);
  c.tally->Record(batch.ok() && MatchesLabels(Pairs(batch->result.rows),
                                              held_out, c.base.labels),
                  "profiled batch Predict");
  for (size_t i = 0; i < kProfiledPoints; ++i) {
    const int64_t id = ids.At(i);
    Result<engine::ProfiledQuery> point =
        profile("predict_point", clf.BuildPredictSql(PointItems(id)), i);
    c.tally->Record(
        point.ok() && MatchesLabels(Pairs(point->result.rows), {id},
                                    c.base.labels),
        StrFormat("profiled point Predict(%" PRId64 ")", id));
  }
  for (const auto& [stmt, absent] : kProfiledStatements) {
    const Totals& t = totals[stmt];
    const double calls = std::max(t.calls, 1);
    std::printf("# exec %s: operators cover %.3f of %.3f ms per call\n",
                stmt.c_str(), t.sum.total_ms / calls, t.measured_ms / calls);
    auto reported = [&](const std::string& cls) {
      return std::find(absent.begin(), absent.end(), cls) == absent.end();
    };
    std::map<std::string, double> ms;
    for (const auto& [cls, total] : t.sum.self_ms) {
      ms[reported(cls) ? cls : "Other"] += total / calls;
    }
    for (const std::string& cls : lifebench::OperatorClasses()) {
      if (reported(cls)) {
        m->push_back({"exec.self_ms." + cls + "." + stmt, ms[cls], "ms"});
      }
    }
    m->push_back({"exec.rows." + stmt, static_cast<double>(t.sum.rows) / calls,
                  "rows"});
  }
}

// born.sql_bytes / sql.* / engine.*: the phases Database::Execute runs on
// the driver's point-predict SQL before executing it.
void PlannerProbes(Ctx& c, IdStream& ids, std::vector<Metric>* m) {
  engine::Database& db = c.d.db();
  engine::Planner planner(&db.catalog(), &db.config());
  std::vector<double> bytes, tokens, lex, parse, build, optimize, lower;
  bool ok = true;
  for (size_t i = 0; i < kProbeRequests && ok; ++i) {
    const std::string sql = c.d.clf->BuildPredictSql(PointItems(ids.At(i)));
    bytes.push_back(static_cast<double>(sql.size()));
    WallTimer timer;
    auto timed = [&](const char* name, std::vector<double>* out, auto&& fn) {
      ScopedSpan span(c.rec, name, i);
      timer.Reset();
      auto r = fn();
      out->push_back(timer.ElapsedSeconds() * 1e6);
      return r;
    };
    Result<std::vector<bornsql::sql::Token>> toks =
        timed("sql.lex", &lex, [&] { return bornsql::sql::Lex(sql); });
    if (!toks.ok()) break;
    tokens.push_back(static_cast<double>(toks->size()));
    Result<bornsql::sql::Statement> stmt = timed("sql.parse", &parse, [&] {
      return bornsql::sql::ParseStatementTokens(std::move(*toks));
    });
    ok = stmt.ok() && stmt->select != nullptr;
    if (!ok) break;
    Result<bornsql::plan::LogicalPlan> plan =
        timed("engine.build", &build,
              [&] { return planner.BuildLogical(*stmt->select); });
    ok = plan.ok() &&
         timed("engine.optimize", &optimize,
               [&] { return planner.OptimizeLogical(&*plan); })
             .ok() &&
         timed("engine.lower", &lower,
               [&] { return planner.LowerLogical(*plan); })
             .ok();
  }
  if (!ok || lower.empty()) {
    c.tally->Violate("planning the point-predict SQL");
    return;
  }
  m->push_back({"born.sql_bytes.predict_point", Median(bytes), "B"});
  m->push_back({"sql.tokens.predict_point", Median(tokens), "count"});
  m->push_back({"sql.lex_us.predict_point", Median(lex), "us"});
  m->push_back({"sql.parse_us.predict_point", Median(parse), "us"});
  m->push_back({"engine.build_us.predict_point", Median(build), "us"});
  m->push_back({"engine.optimize_us.predict_point", Median(optimize), "us"});
  m->push_back({"engine.lower_us.predict_point", Median(lower), "us"});
}

// storage.*: index probes, upsert conflict checks and column-slice scans
// straight against the tables the statements use.
void StorageProbes(Ctx& c, const Options& opt, std::vector<Metric>* m) {
  bornsql::catalog::Catalog& catalog = c.d.db().catalog();
  Result<storage::Table*> weights = catalog.GetTable(c.d.clf->weights_table());
  Result<storage::Table*> corpus = catalog.GetTable(c.d.clf->corpus_table());
  Result<storage::Table*> terms = catalog.GetTable("pub_term");
  if (!weights.ok() || !corpus.ok() || !terms.ok() ||
      (*weights)->row_count() == 0 || (*corpus)->row_count() == 0) {
    c.tally->Violate("storage probes: model tables missing");
    return;
  }
  const size_t weights_j = (*weights)->FindIndexOn({0});
  const size_t term_pubid = (*terms)->FindIndexOn({0});
  if (weights_j == storage::Table::kNpos ||
      term_pubid == storage::Table::kNpos) {
    c.tally->Violate("storage probes: indexes missing");
    return;
  }
  Rng rng(opt.seed);
  std::vector<Row> weight_keys, pubid_keys, corpus_rows;
  for (size_t i = 0; i < kStorageKeys; ++i) {
    const std::vector<Row>& w = (*weights)->rows();
    weight_keys.push_back({w[rng.Uniform(w.size())][0]});
    pubid_keys.push_back(
        {Value::Int(static_cast<int64_t>(rng.Uniform(opt.publications)) + 1)});
    const std::vector<Row>& cr = (*corpus)->rows();
    corpus_rows.push_back(cr[rng.Uniform(cr.size())]);
  }
  std::vector<size_t> hits;
  size_t sink = 0;
  m->push_back({"storage.weights_probe_ns",
                PerCall(c.rec, "probe.weights_index", kStorageKeys, 1e9,
                        [&](size_t i) {
                          hits.clear();
                          (*weights)->LookupIndex(weights_j, weight_keys[i],
                                                  &hits);
                          sink += hits.size();
                        }),
                "ns"});
  m->push_back({"storage.base_probe_ns",
                PerCall(c.rec, "probe.base_index", kStorageKeys, 1e9,
                        [&](size_t i) {
                          hits.clear();
                          (*terms)->LookupIndex(term_pubid, pubid_keys[i],
                                                &hits);
                          sink += hits.size();
                        }),
                "ns"});
  m->push_back({"storage.upsert_probe_ns",
                PerCall(c.rec, "probe.upsert_conflict", kStorageKeys, 1e9,
                        [&](size_t i) {
                          sink += (*corpus)->FindConflict(corpus_rows[i]);
                        }),
                "ns"});
  const storage::Table& scanned = **corpus;
  const size_t rows = scanned.row_count();
  std::vector<Value> slice;
  m->push_back(
      {"storage.scan_ns_per_row",
       PerCall(c.rec, "probe.scan", 1, 1e9 / static_cast<double>(rows),
               [&](size_t) {
                 for (size_t col = 0; col < scanned.schema().size(); ++col) {
                   for (size_t start = 0; start < rows; start += 2048) {
                     slice.clear();
                     scanned.CopyColumnSlice(
                         col, start, std::min<size_t>(2048, rows - start),
                         &slice);
                     sink += slice.size();
                   }
                 }
               }),
       "ns"});
  uint64_t bytes = 0;
  uint64_t base_rows = 0;
  for (const char* name : kBaseTables) {
    if (auto t = catalog.GetTable(name); t.ok()) {
      bytes += (*t)->approx_bytes();
      base_rows += (*t)->row_count();
    }
  }
  m->push_back({"storage.engine_bytes_per_row",
                static_cast<double>(bytes) / static_cast<double>(base_rows),
                "B/row"});
  if (sink == 0) c.tally->Violate("storage probes found nothing");
}

// serve.* and obs.engine_trace_ratio: the cached-EXECUTE path taken apart.
void ServeProbes(Ctx& c, ServeClient& client, IdStream& ids,
                 std::vector<Metric>* m) {
  engine::Database& db = client.session().database();
  Result<bornsql::sql::Statement> parsed = bornsql::sql::ParseStatement(
      c.d.clf->BuildPredictSql("SELECT $1 AS n"));
  if (!parsed.ok() || parsed->select == nullptr) {
    c.tally->Violate("parsing the PREPAREd predict SQL");
    return;
  }
  std::vector<double> build_us, cached_us;
  Result<bornsql::plan::LogicalPlan> plan = Status::Internal("not built");
  for (size_t i = 0; i < kProbeRequests; ++i) {
    ScopedSpan span(c.rec, "serve.build_plan", i);
    WallTimer timer;
    plan = db.BuildOptimizedPlan(*parsed->select);
    build_us.push_back(timer.ElapsedSeconds() * 1e6);
    if (!plan.ok()) break;
  }
  if (!plan.ok()) {
    c.tally->Violate("BuildOptimizedPlan: " + plan.status().ToString());
    return;
  }
  for (size_t i = 0; i < kProbeRequests; ++i) {
    const int64_t id = ids.At(i);
    ScopedSpan span(c.rec, "serve.cached_exec", i);
    WallTimer timer;
    Result<engine::QueryResult> r =
        db.ExecuteCachedPlan(*plan, {Value::Int(id)}, "lifebench predict");
    cached_us.push_back(timer.ElapsedSeconds() * 1e6);
    c.tally->Record(
        r.ok() && MatchesLabels(Pairs(r->rows), {id}, c.base.labels),
        StrFormat("ExecuteCachedPlan(%" PRId64 ")", id));
  }
  Samples session;
  Ctx sc{c.d, c.base, c.rec, &session, c.tally};
  for (size_t i = 0; i < kProbeRequests; ++i) client.Request(sc, ids.At(i), i);
  const double cached = Median(cached_us);
  m->push_back({"serve.build_plan_us", Median(build_us), "us"});
  m->push_back({"serve.cached_exec_us", cached, "us"});
  m->push_back(
      {"serve.session_us", Median(session.AllPoints()) - cached, "us"});
  // Engine statement trace on vs off, in alternating windows.
  Samples on, off;
  size_t request = 0;
  for (int w = 0; w < kTraceWindows; ++w) {
    for (bool trace : {true, false}) {
      client.session().Execute(trace ? "SET born.trace = 1"
                                     : "SET born.trace = 0");
      Ctx wc{c.d, c.base, c.rec, trace ? &on : &off, c.tally};
      for (int r = 0; r < kTraceWindowRequests; ++r, ++request) {
        client.Request(wc, ids.At(request), request);
      }
    }
  }
  client.session().Execute("SET born.trace = 1");
  m->push_back({"obs.engine_trace_ratio",
                Median(on.AllPoints()) / Median(off.AllPoints()), "ratio"});
}

std::vector<Metric> PerLayer(const Options& opt, Deployment& d,
                             const Baseline& base, const SetupTimes& setup,
                             SpanRecorder* rec, Tally* tally) {
  std::vector<Metric> m = {
      {"data.generate_s", Median(setup.generate), "s"},
      {"data.load_s", Median(setup.load), "s"},
  };
  Samples s;
  Ctx c{d, base, rec, &s, tally};
  const std::vector<int64_t> held_out = HeldOutIds(opt.publications);
  IdStream ids(opt.seed, opt.publications);
  // A sixth of the run for each workload untraced, then the same
  // operations traced.
  const double slice = opt.seconds / 6;
  const double train = TraceOverhead(rec, slice, [&](uint64_t i) {
    TrainStep(c, ids, held_out, i * kTrainPointRequests);
  });
  for (const char* op :
       {"fit", "unlearn", "partial_fit", "deploy", "predict_batch"}) {
    m.push_back({StrFormat("born.statements.%s", op),
                 static_cast<double>(s.statements[StrFormat("born.%s", op)]),
                 "count"});
  }
  ServeClient client(d);
  if (!client.prepared()) tally->Violate("PREPARE predict");
  const double serve = TraceOverhead(
      rec, slice, [&](uint64_t i) { client.Request(c, ids.At(i), i); });
  client.CountCache(&s);
  m.push_back({"serve.hit_rate", HitRate(s), "ratio"});
  ExecProbes(c, ids, held_out, &m);
  PlannerProbes(c, ids, &m);
  StorageProbes(c, opt, &m);
  ServeProbes(c, client, ids, &m);
  const uint64_t engine_peak = bornsql::obs::MemoryTracker::Process().peak();
  m.push_back(
      {"obs.engine_peak_bytes", static_cast<double>(engine_peak), "B"});
  m.push_back({"bench.trace_overhead.train", train, "ratio"});
  m.push_back({"bench.trace_overhead.serve", serve, "ratio"});
  return m;
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--publications") {
      opt->publications = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace-out") {
      opt->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (opt->workload == "train" || opt->workload == "serve") &&
         opt->seconds > 0 && opt->publications >= 100;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "lifebench: refusing to time a build without NDEBUG (debug "
               "builds arm the plan/chunk verifiers and the driver's SQL "
               "lint); configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: lifebench --workload train|serve --seed N "
                 "--seconds S --trace 0|1 [--publications N] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  // The end-to-end run keeps the benchmark's spans off.
  SpanRecorder rec(opt.trace);
  Deployment d;
  SetupTimes setup;
  Baseline base;
  Tally tally;
  Samples s;
  Ctx c{d, base, &rec, &s, &tally};
  IdStream ids(opt.seed, opt.publications);
  uint64_t request = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Status st = SetUp(opt, &rec, &d, &setup, &base);
    if (!st.ok()) {
      std::fprintf(stderr, "lifebench: set-up failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    if (!opt.trace) RunSegment(c, opt, opt.seconds / kSetupReps, ids, &request);
  }
  const std::vector<Metric> metrics =
      opt.trace ? PerLayer(opt, d, base, setup, &rec, &tally)
                : EndToEndMetrics(opt, base, setup, s, &tally);
  d.Reset();
  // After the metrics, so the calibration's buffer never counts in the
  // peak RSS.
  const lifebench::HostSpeed host = lifebench::MeasureHostSpeed();
  std::printf("# host: {\"alu_ns\": %.4f, \"chase_ns\": %.3f}\n", host.alu_ns,
              host.chase_ns);
  if (!opt.trace_out.empty()) {
    std::ofstream(opt.trace_out) << rec.ToChromeJson();
  }
  bool correct = tally.failed == 0 && tally.invariants_ok;
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value) || (!opt.trace && metric.value <= 0)) {
      std::fprintf(stderr, "lifebench: metric %s = %g\n", metric.name.c_str(),
                   metric.value);
      correct = false;
    }
  }
  std::printf("%s\n", lifebench::ResultJson(correct, tally.attempted,
                                            tally.failed, metrics)
                          .c_str());
  return 0;
}
