// Vectorized (chunk-at-a-time) physical operators.
//
// Every operator exposes Open() / Next(&chunk). Next returns Result<bool>:
// OK+true = produced a non-empty DataChunk (up to vector_size rows),
// OK+false = exhausted, error = abort. Operators never emit empty chunks:
// they loop internally until they have at least one row or the input is
// exhausted. Pipelining operators (scan, filter, project, hash-join probe
// side, union-all, limit) stream chunk by chunk; blocking operators (sort,
// hash aggregate, window, join build sides) materialize exactly the state
// the textbook algorithm requires — this is what makes the Fig. 3/4
// linearity claims hold in our reproduction. DESIGN.md §14 has the operator
// adaptation table.
#ifndef BORNSQL_EXEC_OPERATORS_H_
#define BORNSQL_EXEC_OPERATORS_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "exec/aggregates.h"
#include "exec/chunk.h"
#include "exec/evaluator.h"
#include "obs/memory.h"
#include "obs/stats.h"
#include "storage/table.h"
#include "types/schema.h"
#include "types/value.h"

namespace bornsql::exec {

// Heterogeneous hash-key views (C++20 transparent lookup). Probe-side hash
// lookups in joins, grouping, and DISTINCT hash and compare directly
// against columnar key vectors, so the steady-state inner loop copies no
// Values and allocates nothing; a key is materialized as a Row only the
// first time it is inserted. View hashing must stay bit-identical to
// HashRow() over the materialized key. The key columns come from
// EvalExprs: entry k points either at the input chunk's own column (bare
// column key — no copy at all) or at a scratch vector holding a computed
// key expression's values.
struct ColsKeyView {
  const KeyColumnRefs* cols;  // (*cols)[k]->at(row) = key part k
  size_t row;
};
struct RowKeyHash {
  using is_transparent = void;
  size_t operator()(const Row& key) const { return HashRow(key); }
  size_t operator()(const ColsKeyView& v) const;
};
struct RowKeyEq {
  using is_transparent = void;
  bool operator()(const Row& a, const Row& b) const;
  bool operator()(const Row& a, const ColsKeyView& b) const;
  bool operator()(const ColsKeyView& a, const Row& b) const;
};

// Read-only view of one bound expression an operator evaluates at runtime,
// together with the schema whose rows the expression's column indices index
// into. Operators publish these via CollectBindings() so the plan verifier
// (lint/plan_verifier.h) can check index bounds and key-type agreement
// without operators exposing their private members.
struct ExprBinding {
  const BoundExpr* expr = nullptr;  // never null when emitted
  const Schema* input = nullptr;    // row layout the expr evaluates against
  const char* role = "";            // "predicate", "left key", "project", ...
  // Join key pairing: bindings with the same non-negative pair_group are the
  // two sides of one equi-join key and must agree on type. -1 => unpaired.
  int pair_group = -1;
};

class Operator;

// Execution-contract observer armed at every operator boundary (lint/
// chunk_verifier.h implements it; the interface lives here so exec does not
// depend on lint). The executor's Open/Next/Close hooks call back into the
// verifier; a non-OK status from a check aborts the statement.
class ExecVerifier {
 public:
  virtual ~ExecVerifier() = default;
  // A successful OpenImpl() completed on `op`.
  virtual void AfterOpen(const Operator& op) = 0;
  // About to call NextImpl() on `op`; lifecycle violations (Next before
  // Open, Next after exhaustion, Next after Close) are caught here, before
  // the operator runs on state it does not expect.
  virtual Status BeforeNext(const Operator& op) = 0;
  // NextImpl() returned OK; `produced` distinguishes a data chunk from the
  // final exhaustion pull. The chunk is mutable only so test sabotage hooks
  // can corrupt it; real checks treat it as read-only.
  virtual Status AfterNext(const Operator& op, DataChunk* chunk,
                           bool produced) = 0;
  // Close() was called on `op` (possibly repeatedly; Close is idempotent).
  virtual void AfterClose(const Operator& op) = 0;
  // A selection vector `sel` over `src` is about to compact an output
  // chunk (filter/distinct); checks in-bounds and strict ascent before the
  // indexes are dereferenced.
  virtual Status CheckSelection(const Operator& op, const DataChunk& src,
                                SelectionVector* sel) = 0;
};

// Base operator. Open()/Next() are non-virtual instrumentation hooks that
// dispatch to the per-operator OpenImpl()/NextImpl(): with stats disabled
// and no verifier armed (the default) the hook is a single branch, so the
// uninstrumented path costs nothing measurable; with stats enabled (EXPLAIN
// ANALYZE, profiled execution) each call is counted and timed into an
// obs::OperatorStats, and with a verifier armed (debug builds,
// SET born.verify_chunks) every boundary crossing is contract-checked.
class Operator {
 public:
  // Default and maximum chunk cardinality (EngineConfig::vector_size;
  // SET born.vector_size). 1 is the scalar-compatibility escape hatch:
  // chunk-of-one execution, observationally the old tuple-at-a-time engine.
  static constexpr size_t kDefaultVectorSize = 2048;
  static constexpr size_t kMaxVectorSize = 65536;

  // Memory charges accumulate locally and flush to the tracker in chunks
  // of this many bytes (see ChargeMemory). Public so the chunk verifier's
  // BSV025 balance check can name the granularity it allows.
  static constexpr uint64_t kMemChunkBytes = 64 * 1024;

  virtual ~Operator() { ReleaseMemory(); }
  virtual const Schema& schema() const = 0;

  // One-line plan description for EXPLAIN.
  virtual std::string DebugString() const = 0;
  // Direct inputs, for EXPLAIN's plan-tree walk and stats propagation.
  virtual std::vector<Operator*> children() const { return {}; }

  // Appends every bound expression this operator evaluates (with its input
  // schema and role) to `out`. Leaf and pass-through operators that hold no
  // expressions keep the default no-op.
  virtual void CollectBindings(std::vector<ExprBinding>* out) const {
    (void)out;
  }

  Status Open() {
    if (!stats_enabled_ && verifier_ == nullptr) return OpenImpl();
    return OpenInstrumented();
  }

  // Stats are tuple-granular, not chunk-granular: a successful pull counts
  // the chunk's cardinality into next_calls and rows_emitted, and the final
  // empty pull counts one call. A full drain of n rows therefore reports
  // rows=n next=n+1 at every vector size — byte-identical to the
  // tuple-at-a-time engine's EXPLAIN ANALYZE / born_stat_operators output.
  Result<bool> Next(DataChunk* out) {
    if (!stats_enabled_ && verifier_ == nullptr) return NextImpl(out);
    return NextInstrumented(out);
  }

  // Lifecycle close: marks the end of this subtree's execution for the
  // chunk verifier's BSV024 state machine (and, in the morsel arc, for the
  // scheduler's pipeline teardown). Idempotent; does not release memory —
  // reservations live until destruction, exactly as before, so memory
  // accounting and its tests are unchanged. With `release`, the subtree's
  // operators, which will never run again, also free the data they buffer:
  // a write sink closes its drained input so, tearing down (and timing) a
  // statement's read side before it writes. Plan lines and stats stay.
  void Close(bool release = false);

  // Turns stats collection on/off for this operator and its whole subtree.
  // Enabling resets any previously collected counters.
  void EnableStats(bool on);

  // Points this operator and its whole subtree at the query's
  // MemoryTracker; materializing operators charge their buffered state
  // against it. nullptr detaches (releasing any live charge first).
  void SetMemoryTracker(obs::MemoryTracker* tracker);

  // Sets the target chunk cardinality for this operator and its whole
  // subtree, clamped to [1, kMaxVectorSize]. Takes effect from the next
  // Open().
  void SetVectorSize(size_t n);

  // Arms (or, with nullptr, disarms) the execution-contract verifier for
  // this operator and its whole subtree. The verifier must outlive every
  // Open/Next/Close call on the tree.
  void SetExecVerifier(ExecVerifier* verifier);

  bool stats_enabled() const { return stats_enabled_; }
  const obs::OperatorStats& stats() const { return stats_; }

  // Target chunk cardinality; boundary chunks must carry 1..vector_size()
  // rows (BSV021).
  size_t vector_size() const { return vector_size_; }

  // Memory-accounting introspection for the verifier's BSV025 balance
  // check: bytes flushed to the tracker, bytes still accumulating locally
  // (always < 64 KiB — ChargeMemory auto-flushes), and the tracker itself.
  uint64_t memory_reserved_bytes() const { return mem_reserved_; }
  uint64_t memory_pending_bytes() const { return mem_pending_; }
  obs::MemoryTracker* memory_tracker() const { return mem_; }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<bool> NextImpl(DataChunk* out) = 0;
  // Close(/*release=*/true)'s part for this operator: frees what it buffers.
  virtual void ReleaseImpl() {}

  // The armed verifier, or null. Operators that compact through a
  // SelectionVector call CheckSelection on it before dereferencing the
  // indexes (BSV022).
  ExecVerifier* exec_verifier() const { return verifier_; }

  // Blocking operators report the size of their materialized state (hash
  // entries, buffered rows). No-op while stats are disabled.
  void RecordPeakEntries(size_t entries) {
    if (stats_enabled_ && entries > stats_.peak_entries) {
      stats_.peak_entries = entries;
    }
  }

  // Accounts `bytes` of newly materialized state. Charges accumulate
  // locally and flush to the tracker in ~64 KiB chunks, so the per-row
  // cost is one addition; a limit breach surfaces as ResourceExhausted
  // from the flush. Call FlushMemory() when materialization completes so
  // sub-chunk state still reaches the tracker (and its limit).
  Status ChargeMemory(uint64_t bytes) {
    mem_pending_ += bytes;
    if (stats_enabled_) {
      const uint64_t total = mem_reserved_ + mem_pending_;
      if (total > stats_.peak_mem_bytes) stats_.peak_mem_bytes = total;
    }
    if (mem_pending_ >= kMemChunkBytes) return FlushMemory();
    return Status::OK();
  }
  Status FlushMemory();
  // Returns this operator's whole reservation to the tracker. Safe to
  // call repeatedly; also runs from the base destructor.
  void ReleaseMemory();

 private:
  // Out-of-line slow paths of Open()/Next(): replicate the stats logic
  // exactly (counters and timer scope unchanged so goldens stay pinned),
  // then run the verifier callbacks outside the timed region.
  Status OpenInstrumented();
  Result<bool> NextInstrumented(DataChunk* out);

  bool stats_enabled_ = false;
  obs::OperatorStats stats_;
  obs::MemoryTracker* mem_ = nullptr;
  ExecVerifier* verifier_ = nullptr;
  uint64_t mem_reserved_ = 0;  // flushed to mem_
  uint64_t mem_pending_ = 0;   // accumulated locally, not yet flushed
  size_t vector_size_ = kDefaultVectorSize;
};

using OperatorPtr = std::unique_ptr<Operator>;

// A query result kept in its chunked columnar form: the operator's output
// chunks verbatim, no per-row materialization. The statement result
// buffer builds each client row once by moving values out of the columns.
struct MaterializedChunks {
  Schema schema;
  std::vector<DataChunk> chunks;
  size_t row_count = 0;

  // DataChunk::ApproxRowBytes summed over the chunks.
  uint64_t ApproxRowBytes() const;
};

// Drains `op` into its output chunks (calls Open first).
Result<MaterializedChunks> DrainChunks(Operator& op);

// Serves a buffer an operator filled at Open: moves its rows [*pos, *pos +
// vector_size) into `out` (Reset to the buffer's width) and advances *pos.
// Returns false when *pos is at the end.
bool EmitSlice(DataChunk* rows, size_t* pos, size_t vector_size,
               DataChunk* out);

// An operator's input buffered at Open: its rows in one chunk, and its key
// expressions' values over them (keys[k][i] is row i's key k).
struct KeyedRows {
  DataChunk rows;
  std::vector<std::vector<Value>> keys;
};

// Emits a single empty row; used for FROM-less SELECTs.
class SingleRowOp : public Operator {
 public:
  SingleRowOp() = default;
  const Schema& schema() const override { return schema_; }
  std::string DebugString() const override { return "SingleRow"; }

 protected:
  Status OpenImpl() override {
    done_ = false;
    return Status::OK();
  }
  Result<bool> NextImpl(DataChunk* out) override {
    out->Reset(0);
    if (done_) return false;
    done_ = true;
    out->SetCardinality(1);
    return true;
  }

 private:
  Schema schema_;
  bool done_ = true;
};

// Scans a base table. `schema` carries the exposed qualifier (alias).
// Emits column slices of up to vector_size rows straight out of the
// row store (storage::Table::CopyColumnSlice does the transpose). With
// `row_ids`, each row also carries its position in the table as a
// trailing INTEGER column: how UPDATE and DELETE find the rows they write.
// The plan line shows the table's size when planned: a statement's writes
// come after its scans.
class SeqScanOp : public Operator {
 public:
  SeqScanOp(const storage::Table* table, Schema schema, bool row_ids = false)
      : table_(table),
        schema_(std::move(schema)),
        row_ids_(row_ids),
        planned_rows_(table->row_count()) {
    if (row_ids_) schema_.Add(Column{"", "#row_id", ValueType::kInt});
  }
  const Schema& schema() const override { return schema_; }
  std::string DebugString() const override { return StrFormat("SeqScan(%s, %zu rows)", table_->name().c_str(), planned_rows_); }

 protected:
  Status OpenImpl() override {
    pos_ = 0;
    table_->RecordScan();
    return Status::OK();
  }
  Result<bool> NextImpl(DataChunk* out) override;

 private:
  const storage::Table* table_;
  Schema schema_;
  bool row_ids_;
  size_t planned_rows_;
  size_t pos_ = 0;
};

// Serves a buffer of rows made at Open() as chunk slices: a fixed result,
// served again on every Open, or in a subclass the rows its Produce()
// makes (a system view's snapshot, VALUES rows, a write's count).
class MaterializedScanOp : public Operator {
 public:
  MaterializedScanOp(DataChunk rows, Schema schema)
      : fixed_(std::move(rows)), schema_(std::move(schema)) {}
  const Schema& schema() const override { return schema_; }
  std::string DebugString() const override { return StrFormat("MaterializedScan(%zu rows)", fixed_.size()); }

 protected:
  explicit MaterializedScanOp(Schema schema) : schema_(std::move(schema)) {}
  // Fills `rows`, Reset to the schema's width, with the rows Open serves.
  virtual Status Produce(DataChunk* rows) {
    rows->AppendRange(fixed_, 0, fixed_.size());
    return Status::OK();
  }
  Status OpenImpl() final;
  Result<bool> NextImpl(DataChunk* out) final {
    return EmitSlice(&rows_, &pos_, vector_size(), out);
  }
  void ReleaseImpl() override { rows_ = DataChunk(); }

 private:
  DataChunk fixed_;
  Schema schema_;
  DataChunk rows_;
  size_t pos_ = 0;
};

// Scans a system view (born_stat_statements & friends). The view's rows
// are produced by a generator at Open() time, so each execution observes a
// fresh snapshot of the engine's introspection state — re-running the query
// sees updated counters, exactly like pg_stat_statements.
class SystemViewScanOp : public MaterializedScanOp {
 public:
  using Generator = std::function<Result<std::vector<Row>>()>;

  SystemViewScanOp(std::string view_name, Generator generator, Schema schema)
      : MaterializedScanOp(std::move(schema)),
        view_name_(std::move(view_name)),
        generator_(std::move(generator)) {}
  std::string DebugString() const override {
    return StrFormat("SystemViewScan(%s)", view_name_.c_str());
  }

 protected:
  // Transposes the snapshot into columns.
  Status Produce(DataChunk* rows) override {
    BORNSQL_ASSIGN_OR_RETURN(std::vector<Row> snapshot, generator_());
    for (Row& row : snapshot) rows->AppendRow(std::move(row));
    return Status::OK();
  }

 private:
  std::string view_name_;
  Generator generator_;
};

// Evaluates the predicate over each input chunk as a whole, collects the
// surviving row indexes in a SelectionVector, and emits the compacted
// chunk. An all-pass chunk is moved through without copying.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, BoundExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}
  const Schema& schema() const override { return child_->schema(); }
  std::string DebugString() const override { return "Filter"; }
  std::vector<Operator*> children() const override { return {child_.get()}; }
  void CollectBindings(std::vector<ExprBinding>* out) const override {
    out->push_back({predicate_.get(), &child_->schema(), "predicate", -1});
  }

 protected:
  Status OpenImpl() override { return child_->Open(); }
  Result<bool> NextImpl(DataChunk* out) override;

 private:
  OperatorPtr child_;
  BoundExprPtr predicate_;
  DataChunk input_;               // refilled from the child per pull
  std::vector<Value> pred_vals_;  // predicate values, per chunk
  SelectionVector sel_;           // surviving rows, per chunk
};

// Columnar projection: each output column is one EvalChunk over the input
// chunk, written directly into the output chunk's column vector.
class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<BoundExprPtr> exprs, Schema schema)
      : child_(std::move(child)),
        exprs_(std::move(exprs)),
        expr_list_(ExprList(exprs_)),
        schema_(std::move(schema)) {
    // Precompute which output expressions are bare input columns: those
    // bypass the evaluator at Next time, and the last reference to each
    // input column moves the column vector instead of copying it.
    const size_t in_width = child_->schema().size();
    bare_cols_.resize(exprs_.size(), kNotBare);
    last_col_ref_.resize(exprs_.size(), false);
    std::vector<size_t> last_ref(in_width, kNotBare);
    for (size_t j = 0; j < exprs_.size(); ++j) {
      const BoundExpr& e = *exprs_[j];
      if (e.kind == BoundKind::kColumn && e.column_index < in_width) {
        bare_cols_[j] = e.column_index;
        last_ref[e.column_index] = j;
      }
    }
    for (size_t c = 0; c < in_width; ++c) {
      if (last_ref[c] != kNotBare) last_col_ref_[last_ref[c]] = true;
    }
  }
  const Schema& schema() const override { return schema_; }
  std::string DebugString() const override { return StrFormat("Project(%zu columns)", exprs_.size()); }
  std::vector<Operator*> children() const override { return {child_.get()}; }
  void CollectBindings(std::vector<ExprBinding>* out) const override {
    for (const BoundExprPtr& e : exprs_) {
      out->push_back({e.get(), &child_->schema(), "project", -1});
    }
  }

 protected:
  Status OpenImpl() override { return child_->Open(); }
  Result<bool> NextImpl(DataChunk* out) override;

 private:
  static constexpr size_t kNotBare = static_cast<size_t>(-1);

  OperatorPtr child_;
  std::vector<BoundExprPtr> exprs_;
  std::vector<const BoundExpr*> expr_list_;
  Schema schema_;
  DataChunk input_;  // refilled from the child per pull
  std::vector<std::vector<Value>> scratch_;  // computed columns, per chunk
  KeyColumnRefs cols_;
  std::vector<size_t> bare_cols_;   // input column index, or kNotBare
  std::vector<bool> last_col_ref_;  // expr j is the last ref to its column
};

enum class JoinType { kInner, kLeft, kCross };

// Equi hash join: builds on the right input, probes with the left.
// Output row = left columns ++ right columns. NULL keys never match.
// The build side is consumed chunk-at-a-time with columnar key evaluation;
// the probe side evaluates a whole chunk of keys at once, then gathers its
// (probe row, build row) pairs until the output chunk fills.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right,
             std::vector<BoundExprPtr> left_keys,
             std::vector<BoundExprPtr> right_keys, JoinType type);
  const Schema& schema() const override { return schema_; }
  std::string DebugString() const override { return StrFormat("HashJoin(%s, %zu keys)", type_ == JoinType::kLeft ? "left" : "inner", left_keys_.size()); }
  std::vector<Operator*> children() const override { return {left_.get(), right_.get()}; }
  void CollectBindings(std::vector<ExprBinding>* out) const override {
    for (size_t i = 0; i < left_keys_.size(); ++i) {
      out->push_back({left_keys_[i].get(), &left_->schema(), "left key",
                      static_cast<int>(i)});
    }
    for (size_t i = 0; i < right_keys_.size(); ++i) {
      out->push_back({right_keys_[i].get(), &right_->schema(), "right key",
                      static_cast<int>(i)});
    }
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(DataChunk* out) override;
  void ReleaseImpl() override {
    build_data_ = DataChunk();
    build_index_ = {};
  }

 private:
  // Computes the match list for probe_chunk_ row probe_row_.
  void BeginProbeRow();
  // Gathers the pending pairs into `out` and clears them. Must run before
  // probe_chunk_ is replaced (the pair indices point into it).
  void FlushPairs(DataChunk* out);

  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<BoundExprPtr> left_keys_;
  std::vector<BoundExprPtr> right_keys_;
  std::vector<const BoundExpr*> probe_exprs_;  // left_keys_
  JoinType type_;
  Schema schema_;

  // Pending output rows as (probe row, build row or kNoRow) index pairs.
  // Emission is deferred so the copies run column-at-a-time over the whole
  // batch.
  std::vector<RowPair> pairs_;

  // Build side stored columnar: one chunk holding every (non-NULL-key)
  // build row, indexed by position. Avoids a heap-allocated Row per build
  // tuple, which dominates the build cost on wide inputs.
  DataChunk build_data_;
  std::unordered_map<Row, std::vector<size_t>, RowKeyHash, RowKeyEq>
      build_index_;

  DataChunk probe_chunk_;
  // (*probe_keys_[k])[i] = key expr k over probe row i. Bare column keys
  // alias probe_chunk_'s columns; computed keys live in the scratch
  // vectors. Rebuilt whenever probe_chunk_ is refilled.
  KeyColumnRefs probe_keys_;
  std::vector<std::vector<Value>> probe_key_scratch_;
  size_t probe_row_ = 0;
  const std::vector<size_t>* matches_ = nullptr;
  size_t match_pos_ = 0;
  bool left_emitted_ = false;  // for LEFT joins: did the probe row match?
  bool left_done_ = false;     // probe input exhausted; never re-pull it
};

// Sort-merge equi join (inner / left). Used as an alternative strategy in
// the "different DBMS" ablation. Open buffers both inputs with their key
// columns, stable-sorts a permutation of each, and merges the two into
// (left row, right row) pairs: left-major in key order, each right group
// in input order. NextImpl gathers the pairs a chunk at a time.
class SortMergeJoinOp : public Operator {
 public:
  SortMergeJoinOp(OperatorPtr left, OperatorPtr right,
                  std::vector<BoundExprPtr> left_keys,
                  std::vector<BoundExprPtr> right_keys, JoinType type);
  const Schema& schema() const override { return schema_; }
  std::string DebugString() const override { return StrFormat("SortMergeJoin(%s, %zu keys)", type_ == JoinType::kLeft ? "left" : "inner", left_keys_.size()); }
  std::vector<Operator*> children() const override { return {left_.get(), right_.get()}; }
  void CollectBindings(std::vector<ExprBinding>* out) const override {
    for (size_t i = 0; i < left_keys_.size(); ++i) {
      out->push_back({left_keys_[i].get(), &left_->schema(), "left key",
                      static_cast<int>(i)});
    }
    for (size_t i = 0; i < right_keys_.size(); ++i) {
      out->push_back({right_keys_[i].get(), &right_->schema(), "right key",
                      static_cast<int>(i)});
    }
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(DataChunk* out) override;
  void ReleaseImpl() override {
    lrows_ = {};
    rrows_ = {};
    pairs_ = {};
  }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<BoundExprPtr> left_keys_;
  std::vector<BoundExprPtr> right_keys_;
  JoinType type_;
  Schema schema_;

  KeyedRows lrows_;
  KeyedRows rrows_;
  std::vector<RowPair> pairs_;  // the join's rows, in output order
  size_t pos_ = 0;              // next pair to emit
};

// Nested-loop join with an optional residual predicate evaluated over the
// concatenated row. Handles cross joins and non-equi conditions. The right
// side is buffered in one chunk and the left side streams in chunks; each
// left row's (left ++ right) candidate pairs are gathered in order, up to
// the output chunk's room, and the predicate evaluates over them at once.
// The passing pairs (and a LEFT join's NULL-padded misses) gather into the
// output chunk together.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, BoundExprPtr predicate,
                   JoinType type);
  const Schema& schema() const override { return schema_; }
  std::string DebugString() const override { return StrFormat("NestedLoopJoin(%s)", type_ == JoinType::kLeft ? "left" : (type_ == JoinType::kCross ? "cross" : "inner")); }
  std::vector<Operator*> children() const override { return {left_.get(), right_.get()}; }
  void CollectBindings(std::vector<ExprBinding>* out) const override {
    if (predicate_ != nullptr) {
      // The residual predicate sees the concatenated left++right row.
      out->push_back({predicate_.get(), &schema_, "join predicate", -1});
    }
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(DataChunk* out) override;
  void ReleaseImpl() override { right_rows_ = {}; }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  BoundExprPtr predicate_;  // may be null (pure cross product)
  JoinType type_;
  Schema schema_;

  KeyedRows right_rows_;  // the right input, buffered; no keys
  DataChunk left_chunk_;
  size_t left_row_ = 0;   // current row within left_chunk_
  size_t right_pos_ = 0;  // its next right row
  bool left_matched_ = false;
  bool left_done_ = false;  // left input exhausted; never re-pull it
  std::vector<RowPair> pairs_;  // output rows awaiting the gather
  DataChunk candidates_;        // (left ++ right) pairs awaiting the predicate
  std::vector<Value> pred_vals_;
};

// Index nested-loop join (inner): streams `outer` in chunks, probing a
// secondary hash index on `inner_table` per outer row (keys evaluated
// columnar per chunk), and gathers the (outer row, table row) pairs: the
// outer columns from the chunk, the inner ones from the table's rows. With
// `inner_on_left` the output row is inner ++ outer (so the op can replace
// a join whose build side was the indexed table without disturbing
// downstream column indexes); otherwise outer ++ inner.
class IndexJoinOp : public Operator {
 public:
  IndexJoinOp(OperatorPtr outer, const storage::Table* inner_table,
              Schema inner_schema, size_t index_id,
              std::vector<BoundExprPtr> outer_keys, bool inner_on_left);
  const Schema& schema() const override { return schema_; }
  std::string DebugString() const override { return StrFormat("IndexJoin(%s via index, %zu keys)", inner_table_->name().c_str(), outer_keys_.size()); }
  std::vector<Operator*> children() const override { return {outer_.get()}; }
  void CollectBindings(std::vector<ExprBinding>* out) const override {
    for (const BoundExprPtr& k : outer_keys_) {
      out->push_back({k.get(), &outer_->schema(), "outer key", -1});
    }
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(DataChunk* out) override;

 private:
  // Probes the index for outer_chunk_ row outer_row_.
  void BeginOuterRow();
  // Gathers the pending pairs into `out` and clears them. Must run before
  // outer_chunk_ is replaced (the pair indices point into it).
  void FlushPairs(DataChunk* out);

  OperatorPtr outer_;
  const storage::Table* inner_table_;
  Schema inner_schema_;
  size_t index_id_;
  std::vector<BoundExprPtr> outer_keys_;
  std::vector<const BoundExpr*> outer_exprs_;  // outer_keys_
  bool inner_on_left_;
  Schema schema_;

  DataChunk outer_chunk_;  // the outer chunk in flight
  KeyColumnRefs outer_key_cols_;  // its key columns
  std::vector<std::vector<Value>> outer_key_scratch_;
  size_t outer_row_ = 0;         // cursor within outer_chunk_
  std::vector<size_t> matches_;  // index matches of the outer row
  size_t match_pos_ = 0;         // cursor within matches_
  bool outer_done_ = false;      // outer input exhausted; never re-pull it
  std::vector<RowPair> pairs_;   // (outer row, table row) awaiting the gather
};

struct AggSpec {
  AggFunc func;
  BoundExprPtr arg;  // null for COUNT(*)
};

// Hash aggregation. Output schema: group columns then aggregate columns.
// With no group keys, emits exactly one row even for empty input. Input is
// consumed chunk-at-a-time with columnar evaluation of the group keys and
// aggregate arguments; the hash insert/accumulate step is per row.
class HashAggOp : public Operator {
 public:
  HashAggOp(OperatorPtr child, std::vector<BoundExprPtr> group_exprs,
            std::vector<AggSpec> aggs, Schema schema);
  const Schema& schema() const override { return schema_; }
  std::string DebugString() const override { return StrFormat("HashAggregate(%zu group keys, %zu aggregates)", group_exprs_.size(), aggs_.size()); }
  std::vector<Operator*> children() const override { return {child_.get()}; }
  // Output width contract for the plan verifier: schema = groups ++ aggs.
  size_t group_key_count() const { return group_exprs_.size(); }
  size_t aggregate_count() const { return aggs_.size(); }
  void CollectBindings(std::vector<ExprBinding>* out) const override {
    for (const BoundExprPtr& g : group_exprs_) {
      out->push_back({g.get(), &child_->schema(), "group key", -1});
    }
    for (const AggSpec& a : aggs_) {
      if (a.arg != nullptr) {  // null arg => COUNT(*)
        out->push_back({a.arg.get(), &child_->schema(), "aggregate arg", -1});
      }
    }
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(DataChunk* out) override;

 private:
  OperatorPtr child_;
  std::vector<BoundExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  Schema schema_;
  // What each input chunk evaluates: the group keys, then every
  // aggregate's argument (null for COUNT(*)).
  std::vector<const BoundExpr*> exprs_;

  // The groups, columnar: key parts, written as each group first appears,
  // then the finalized aggregate values. NextImpl serves slices of it.
  DataChunk results_;
  size_t pos_ = 0;
};

struct SortKey {
  BoundExprPtr expr;
  bool desc = false;
};

// Buffers its input with the key columns, stable-sorts a permutation of
// the rows (ties keep input order), gathers the rows in that order, and
// serves them as slices.
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<SortKey> keys);
  const Schema& schema() const override { return child_->schema(); }
  std::string DebugString() const override { return StrFormat("Sort(%zu keys)", keys_.size()); }
  std::vector<Operator*> children() const override { return {child_.get()}; }
  void CollectBindings(std::vector<ExprBinding>* out) const override {
    for (const SortKey& k : keys_) {
      out->push_back({k.expr.get(), &child_->schema(), "sort key", -1});
    }
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(DataChunk* out) override;
  void ReleaseImpl() override { rows_ = DataChunk(); }

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  std::vector<const BoundExpr*> key_exprs_;
  std::vector<bool> desc_;  // per key
  DataChunk rows_;          // the sorted rows
  size_t pos_ = 0;
};

// LIMIT/OFFSET over chunks: the offset is skipped lazily by slicing into
// the child's chunks (a cut can land mid-chunk), and the limit truncates
// the final chunk to exactly the remaining row budget.
class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, int64_t limit, int64_t offset)
      : child_(std::move(child)), limit_(limit), offset_(offset) {}
  const Schema& schema() const override { return child_->schema(); }
  std::string DebugString() const override { return StrFormat("Limit(%lld offset %lld)", static_cast<long long>(limit_), static_cast<long long>(offset_)); }
  std::vector<Operator*> children() const override { return {child_.get()}; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(DataChunk* out) override;

 private:
  OperatorPtr child_;
  int64_t limit_;
  int64_t offset_;
  int64_t produced_ = 0;
  int64_t to_skip_ = 0;
  DataChunk input_;
};

// Concatenates children by position; schema comes from the first child with
// qualifiers cleared. Chunks flow through unchanged.
class UnionAllOp : public Operator {
 public:
  explicit UnionAllOp(std::vector<OperatorPtr> children);
  const Schema& schema() const override { return schema_; }
  std::string DebugString() const override {
    return StrFormat("UnionAll(%zu inputs)", children_.size());
  }
  std::vector<Operator*> children() const override {
    std::vector<Operator*> out;
    for (const OperatorPtr& c : children_) out.push_back(c.get());
    return out;
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(DataChunk* out) override;

 private:
  std::vector<OperatorPtr> children_;
  Schema schema_;
  size_t current_ = 0;
};

// Streaming DISTINCT: per input chunk, rows are probed against the seen-set
// and the first occurrences are compacted out via a selection vector.
class DistinctOp : public Operator {
 public:
  explicit DistinctOp(OperatorPtr child) : child_(std::move(child)) {}
  const Schema& schema() const override { return child_->schema(); }
  std::string DebugString() const override { return "Distinct"; }
  std::vector<Operator*> children() const override { return {child_.get()}; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(DataChunk* out) override;

 private:
  OperatorPtr child_;
  std::unordered_map<Row, bool, RowKeyHash, RowKeyEq> seen_;
  DataChunk input_;
  KeyColumnRefs cols_;  // every column of input_: the whole row is the key
  SelectionVector sel_;
};

// Window computation: ROW_NUMBER / RANK / DENSE_RANK
// OVER (PARTITION BY ... ORDER BY ...). ROW_NUMBER is what inference
// (paper §3.4 argmax) needs; the others come along for free.
// Output = child columns ++ one INTEGER column per spec.
enum class WindowFunc { kRowNumber, kRank, kDenseRank };

struct WindowSpec {
  WindowFunc func = WindowFunc::kRowNumber;
  std::vector<BoundExprPtr> partition_by;
  std::vector<SortKey> order_by;
  std::string output_name;
};

class WindowOp : public Operator {
 public:
  WindowOp(OperatorPtr child, std::vector<WindowSpec> specs);
  const Schema& schema() const override { return schema_; }
  std::string DebugString() const override { return StrFormat("Window(%zu functions)", specs_.size()); }
  std::vector<Operator*> children() const override { return {child_.get()}; }
  // Output width contract for the plan verifier: schema = child ++ specs.
  size_t window_func_count() const { return specs_.size(); }
  void CollectBindings(std::vector<ExprBinding>* out) const override {
    for (const WindowSpec& s : specs_) {
      for (const BoundExprPtr& p : s.partition_by) {
        out->push_back({p.get(), &child_->schema(), "partition key", -1});
      }
      for (const SortKey& k : s.order_by) {
        out->push_back({k.expr.get(), &child_->schema(), "window order key",
                        -1});
      }
    }
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(DataChunk* out) override;
  void ReleaseImpl() override { rows_ = DataChunk(); }

 private:
  OperatorPtr child_;
  std::vector<WindowSpec> specs_;
  Schema schema_;
  // Every spec's partition keys, then its order keys, in spec order; and
  // which of them sort descending.
  std::vector<const BoundExpr*> key_exprs_;
  std::vector<bool> desc_;
  DataChunk rows_;  // child columns ++ window columns, in input order
  size_t pos_ = 0;
};

}  // namespace bornsql::exec

#endif  // BORNSQL_EXEC_OPERATORS_H_
