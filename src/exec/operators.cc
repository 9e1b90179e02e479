#include "exec/operators.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <numeric>

namespace bornsql::exec {
namespace {

// Assembles the key row for chunk row `i` from columnar key vectors.
Row KeyAt(const KeyColumnRefs& cols, size_t i) {
  Row key;
  key.reserve(cols.size());
  for (const auto* c : cols) key.push_back((*c)[i]);
  return key;
}

// NULL check on columnar key vectors without materializing the key row.
bool KeyColsHaveNull(const KeyColumnRefs& cols, size_t i) {
  for (const auto* c : cols) {
    if ((*c)[i].is_null()) return true;
  }
  return false;
}

// obs::ApproxRowBytes summed over rows [0, n) of `cols`, read as rows.
uint64_t KeyRowBytes(const KeyColumnRefs& cols, size_t n) {
  uint64_t bytes = n * sizeof(Row);
  for (const auto* c : cols) {
    for (size_t i = 0; i < n; ++i) bytes += obs::ApproxValueBytes((*c)[i]);
  }
  return bytes;
}

// Opens `child` and buffers all its rows in *out, with `keys` evaluated
// over them as key columns. `charge(chunk, key_cols)` accounts each input
// chunk before its rows move in.
template <typename Charge>
Status BufferInput(Operator& child, const std::vector<const BoundExpr*>& keys,
                   KeyedRows* out, Charge charge) {
  out->rows.Reset(child.schema().size());
  out->keys.assign(keys.size(), {});
  BORNSQL_RETURN_IF_ERROR(child.Open());
  DataChunk chunk;
  std::vector<std::vector<Value>> scratch;
  KeyColumnRefs cols;
  while (true) {
    BORNSQL_ASSIGN_OR_RETURN(bool more, child.Next(&chunk));
    if (!more) return Status::OK();
    BORNSQL_RETURN_IF_ERROR(EvalExprs(keys, chunk, &scratch, &cols));
    BORNSQL_RETURN_IF_ERROR(charge(chunk, cols));
    for (size_t k = 0; k < keys.size(); ++k) {
      std::vector<Value>& dst = out->keys[k];
      if (cols[k] == &scratch[k]) {  // computed: steal the values
        dst.insert(dst.end(), std::make_move_iterator(scratch[k].begin()),
                   std::make_move_iterator(scratch[k].end()));
      } else {  // a bare column: copy before the rows move
        dst.insert(dst.end(), cols[k]->begin(), cols[k]->end());
      }
    }
    out->rows.AppendRangeMoved(chunk, 0, chunk.size());
  }
}

// Compares buffered rows a and b on key columns [from, to); key k sorts
// descending where desc[k].
int CompareRows(const KeyedRows& in, const std::vector<bool>& desc, size_t a,
                size_t b, size_t from, size_t to) {
  for (size_t k = from; k < to; ++k) {
    const int c = Value::Compare(in.keys[k][a], in.keys[k][b]);
    if (c != 0) return desc[k] ? -c : c;
  }
  return 0;
}

// The buffered rows in the order of key columns [from, to); ties keep
// input order.
std::vector<uint32_t> SortedOrder(const KeyedRows& in,
                                  const std::vector<bool>& desc, size_t from,
                                  size_t to) {
  std::vector<uint32_t> order(in.rows.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return CompareRows(in, desc, a, b, from, to) < 0;
  });
  return order;
}

// Bookkeeping overhead charged per hash-table entry (bucket slot, chaining,
// index vector) and per aggregate state, on top of ApproxRowBytes.
constexpr uint64_t kHashEntryOverhead = 64;
constexpr uint64_t kAggStateBytes = 32;

}  // namespace

// FNV-1a over the key parts, matching HashRow() over the materialized Row
// bit for bit (a view and its Row must land in the same bucket).
size_t RowKeyHash::operator()(const ColsKeyView& v) const {
  size_t h = 1469598103934665603ULL;
  for (const auto* c : *v.cols) {
    h ^= (*c)[v.row].Hash();
    h *= 1099511628211ULL;
  }
  return h;
}

bool RowKeyEq::operator()(const Row& a, const Row& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (Value::Compare(a[i], b[i]) != 0) return false;
  }
  return true;
}

bool RowKeyEq::operator()(const Row& a, const ColsKeyView& b) const {
  if (a.size() != b.cols->size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (Value::Compare(a[i], (*(*b.cols)[i])[b.row]) != 0) return false;
  }
  return true;
}

bool RowKeyEq::operator()(const ColsKeyView& a, const Row& b) const {
  return (*this)(b, a);
}

void Operator::EnableStats(bool on) {
  stats_enabled_ = on;
  if (on) stats_.Reset();
  for (Operator* child : children()) {
    if (child != nullptr) child->EnableStats(on);
  }
}

void Operator::SetMemoryTracker(obs::MemoryTracker* tracker) {
  if (mem_ != tracker) ReleaseMemory();
  mem_ = tracker;
  for (Operator* child : children()) {
    if (child != nullptr) child->SetMemoryTracker(tracker);
  }
}

void Operator::SetVectorSize(size_t n) {
  vector_size_ = std::min(std::max<size_t>(n, 1), kMaxVectorSize);
  for (Operator* child : children()) {
    if (child != nullptr) child->SetVectorSize(vector_size_);
  }
}

void Operator::SetExecVerifier(ExecVerifier* verifier) {
  verifier_ = verifier;
  for (Operator* child : children()) {
    if (child != nullptr) child->SetExecVerifier(verifier);
  }
}

Status Operator::OpenInstrumented() {
  Status st = [&] {
    if (!stats_enabled_) return OpenImpl();
    ++stats_.open_calls;
    obs::StatsTimer timer(&stats_);
    return OpenImpl();
  }();
  if (st.ok() && verifier_ != nullptr) verifier_->AfterOpen(*this);
  return st;
}

Result<bool> Operator::NextInstrumented(DataChunk* out) {
  if (verifier_ != nullptr) {
    BORNSQL_RETURN_IF_ERROR(verifier_->BeforeNext(*this));
  }
  Result<bool> more = [&]() -> Result<bool> {
    if (!stats_enabled_) return NextImpl(out);
    obs::StatsTimer timer(&stats_);
    Result<bool> r = NextImpl(out);
    if (r.ok() && *r) {
      stats_.next_calls += out->size();
      stats_.rows_emitted += out->size();
    } else {
      ++stats_.next_calls;
    }
    return r;
  }();
  if (more.ok() && verifier_ != nullptr) {
    BORNSQL_RETURN_IF_ERROR(verifier_->AfterNext(*this, out, *more));
  }
  return more;
}

void Operator::Close(bool release) {
  if (verifier_ != nullptr) verifier_->AfterClose(*this);
  if (release) ReleaseImpl();
  for (Operator* child : children()) {
    if (child != nullptr) child->Close(release);
  }
}

Status Operator::FlushMemory() {
  const uint64_t pending = mem_pending_;
  // Zero before reserving: on denial the tracker has not been charged, so
  // the pending bytes must not survive into a later release.
  mem_pending_ = 0;
  if (pending == 0 || mem_ == nullptr) return Status::OK();
  BORNSQL_RETURN_IF_ERROR(mem_->TryReserve(pending, DebugString()));
  mem_reserved_ += pending;
  return Status::OK();
}

void Operator::ReleaseMemory() {
  mem_pending_ = 0;
  if (mem_ != nullptr && mem_reserved_ > 0) mem_->Release(mem_reserved_);
  mem_reserved_ = 0;
}

uint64_t MaterializedChunks::ApproxRowBytes() const {
  uint64_t bytes = 0;
  for (const DataChunk& chunk : chunks) bytes += chunk.ApproxRowBytes();
  return bytes;
}

Result<MaterializedChunks> DrainChunks(Operator& op) {
  MaterializedChunks out;
  out.schema = op.schema();
  BORNSQL_RETURN_IF_ERROR(op.Open());
  while (true) {
    DataChunk chunk;
    BORNSQL_ASSIGN_OR_RETURN(bool more, op.Next(&chunk));
    if (!more) break;
    assert(!chunk.empty());  // operators never emit empty chunks
    out.row_count += chunk.size();
    out.chunks.push_back(std::move(chunk));
  }
  op.Close();
  return out;
}

bool EmitSlice(DataChunk* rows, size_t* pos, size_t vector_size,
               DataChunk* out) {
  out->Reset(rows->column_count());
  if (*pos >= rows->size()) return false;
  const size_t n = std::min(vector_size, rows->size() - *pos);
  out->AppendRangeMoved(*rows, *pos, n);
  *pos += n;
  return true;
}

Status MaterializedScanOp::OpenImpl() {
  pos_ = 0;
  ReleaseMemory();  // a re-Open releases the prior charge first
  rows_.Reset(schema_.size());
  BORNSQL_RETURN_IF_ERROR(Produce(&rows_));
  BORNSQL_RETURN_IF_ERROR(ChargeMemory(rows_.ApproxRowBytes()));
  RecordPeakEntries(rows_.size());
  return FlushMemory();
}

Result<bool> SeqScanOp::NextImpl(DataChunk* out) {
  const size_t width = schema_.size() - (row_ids_ ? 1 : 0);
  out->Reset(schema_.size());
  const size_t total = table_->row_count();
  if (pos_ >= total) return false;
  const size_t n = std::min(vector_size(), total - pos_);
  for (size_t c = 0; c < width; ++c) {
    table_->CopyColumnSlice(c, pos_, n, &out->column(c));
  }
  if (row_ids_) {
    std::vector<Value>& ids = out->column(width);
    ids.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(Value::Int(static_cast<int64_t>(pos_ + i)));
    }
  }
  out->SetCardinality(n);
  pos_ += n;
  return true;
}

Result<bool> FilterOp::NextImpl(DataChunk* out) {
  while (true) {
    BORNSQL_ASSIGN_OR_RETURN(bool more, child_->Next(&input_));
    if (!more) {
      out->Reset(input_.column_count());
      return false;
    }
    BORNSQL_ASSIGN_OR_RETURN(const std::vector<Value>* pred_vals,
                             EvalChunkRef(*predicate_, input_, &pred_vals_));
    sel_.clear();
    for (size_t i = 0; i < input_.size(); ++i) {
      const Value& v = (*pred_vals)[i];
      if (!v.is_null() && v.Truthy()) sel_.push_back(static_cast<uint32_t>(i));
    }
    if (exec_verifier() != nullptr) {
      BORNSQL_RETURN_IF_ERROR(
          exec_verifier()->CheckSelection(*this, input_, &sel_));
    }
    if (sel_.empty()) continue;  // whole chunk filtered out; pull the next
    if (sel_.size() == input_.size()) {
      *out = std::move(input_);  // all-pass: no compaction copy
      return true;
    }
    out->Reset(input_.column_count());
    out->AppendSelectedMoved(input_, sel_);
    return true;
  }
}

Result<bool> ProjectOp::NextImpl(DataChunk* out) {
  BORNSQL_ASSIGN_OR_RETURN(bool more, child_->Next(&input_));
  out->Reset(exprs_.size());
  if (!more) return false;
  // Computed expressions evaluate first (they may read any input column)
  // and swap into the output; bare column references then pass through,
  // and the last reference to an input column steals it.
  BORNSQL_RETURN_IF_ERROR(EvalExprs(expr_list_, input_, &scratch_, &cols_));
  for (size_t j = 0; j < exprs_.size(); ++j) {
    const size_t c = bare_cols_[j];
    if (c == kNotBare) {
      out->column(j).swap(scratch_[j]);
    } else if (last_col_ref_[j]) {
      out->column(j) = std::move(input_.column(c));
    } else {
      out->column(j) = input_.column(c);
    }
  }
  out->SetCardinality(input_.size());
  input_.Clear();  // moved-from columns must not leak into the next pull
  return true;
}

// ---- HashJoinOp -----------------------------------------------------------

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::vector<BoundExprPtr> left_keys,
                       std::vector<BoundExprPtr> right_keys, JoinType type)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      probe_exprs_(ExprList(left_keys_)),
      type_(type),
      schema_(Schema::Concat(left_->schema(), right_->schema())) {
  assert(type_ != JoinType::kCross);
  assert(left_keys_.size() == right_keys_.size());
  assert(!left_keys_.empty());
}

Status HashJoinOp::OpenImpl() {
  build_data_.Reset(right_->schema().size());
  build_index_.clear();
  ReleaseMemory();
  // Pairs gather from it even before its first pull.
  probe_chunk_.Reset(left_->schema().size());
  probe_row_ = 0;
  matches_ = nullptr;
  match_pos_ = 0;
  left_emitted_ = false;
  left_done_ = false;
  BORNSQL_RETURN_IF_ERROR(left_->Open());
  BORNSQL_RETURN_IF_ERROR(right_->Open());
  DataChunk chunk;
  const std::vector<const BoundExpr*> build_exprs = ExprList(right_keys_);
  std::vector<std::vector<Value>> key_scratch;
  KeyColumnRefs key_cols;
  SelectionVector keep;
  while (true) {
    auto more = right_->Next(&chunk);
    if (!more.ok()) return more.status();
    if (!*more) break;
    // Bare column keys alias `chunk`; every read below happens before the
    // append at the bottom moves the chunk's values out.
    BORNSQL_RETURN_IF_ERROR(
        EvalExprs(build_exprs, chunk, &key_scratch, &key_cols));
    keep.clear();
    size_t pos = build_data_.size();
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (KeyColsHaveNull(key_cols, i)) continue;  // NULL keys never join
      uint64_t row_bytes = sizeof(Row) + sizeof(Row);
      for (size_t c = 0; c < chunk.column_count(); ++c) {
        row_bytes += obs::ApproxValueBytes(chunk.column(c)[i]);
      }
      for (const auto* kc : key_cols) {
        row_bytes += obs::ApproxValueBytes((*kc)[i]);
      }
      BORNSQL_RETURN_IF_ERROR(ChargeMemory(row_bytes + kHashEntryOverhead));
      // Transparent find against the key columns; the key row is
      // materialized only the first time it is seen.
      auto it = build_index_.find(ColsKeyView{&key_cols, i});
      if (it == build_index_.end()) {
        it = build_index_.emplace(KeyAt(key_cols, i), std::vector<size_t>())
                 .first;
      }
      it->second.push_back(pos++);
      keep.push_back(static_cast<uint32_t>(i));
    }
    if (keep.size() == chunk.size()) {
      build_data_.AppendRangeMoved(chunk, 0, chunk.size());
    } else {
      build_data_.AppendSelectedMoved(chunk, keep);
    }
  }
  RecordPeakEntries(build_data_.size());
  return FlushMemory();
}

void HashJoinOp::BeginProbeRow() {
  left_emitted_ = false;
  match_pos_ = 0;
  matches_ = nullptr;
  if (KeyColsHaveNull(probe_keys_, probe_row_)) return;
  auto it = build_index_.find(ColsKeyView{&probe_keys_, probe_row_});
  if (it != build_index_.end()) matches_ = &it->second;
}

void HashJoinOp::FlushPairs(DataChunk* out) {
  out->AppendPairs(probe_chunk_, build_data_, pairs_);
  pairs_.clear();
}

Result<bool> HashJoinOp::NextImpl(DataChunk* out) {
  out->Reset(schema_.size());
  pairs_.clear();
  while (true) {
    if (probe_row_ >= probe_chunk_.size()) {
      FlushPairs(out);  // indices dangle once probe_chunk_ is replaced
      if (left_done_) return !out->empty();
      BORNSQL_ASSIGN_OR_RETURN(bool more, left_->Next(&probe_chunk_));
      if (!more) {
        left_done_ = true;
        probe_chunk_.Clear();
        return !out->empty();
      }
      BORNSQL_RETURN_IF_ERROR(EvalExprs(probe_exprs_, probe_chunk_,
                                        &probe_key_scratch_, &probe_keys_));
      probe_row_ = 0;
      BeginProbeRow();
    }
    const size_t budget = vector_size() - out->size();
    if (matches_ != nullptr) {
      while (match_pos_ < matches_->size() && pairs_.size() < budget) {
        pairs_.emplace_back(static_cast<uint32_t>(probe_row_),
                            static_cast<uint32_t>((*matches_)[match_pos_++]));
        left_emitted_ = true;
      }
      if (match_pos_ < matches_->size()) {  // output chunk full
        FlushPairs(out);
        return true;
      }
    }
    if (type_ == JoinType::kLeft && !left_emitted_) {
      pairs_.emplace_back(static_cast<uint32_t>(probe_row_), kNoRow);
      left_emitted_ = true;
    }
    ++probe_row_;
    if (probe_row_ < probe_chunk_.size()) BeginProbeRow();
    if (out->size() + pairs_.size() >= vector_size()) {
      FlushPairs(out);
      return true;
    }
  }
}

// ---- SortMergeJoinOp ------------------------------------------------------

SortMergeJoinOp::SortMergeJoinOp(OperatorPtr left, OperatorPtr right,
                                 std::vector<BoundExprPtr> left_keys,
                                 std::vector<BoundExprPtr> right_keys,
                                 JoinType type)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      type_(type),
      schema_(Schema::Concat(left_->schema(), right_->schema())) {
  assert(type_ != JoinType::kCross);
}

Status SortMergeJoinOp::OpenImpl() {
  ReleaseMemory();
  pairs_.clear();
  pos_ = 0;
  // Each buffered row is charged as a (key Row, data Row) pair.
  const auto charge = [this](const DataChunk& chunk,
                             const KeyColumnRefs& keys) {
    return ChargeMemory(chunk.ApproxRowBytes() +
                        KeyRowBytes(keys, chunk.size()));
  };
  BORNSQL_RETURN_IF_ERROR(
      BufferInput(*left_, ExprList(left_keys_), &lrows_, charge));
  BORNSQL_RETURN_IF_ERROR(
      BufferInput(*right_, ExprList(right_keys_), &rrows_, charge));
  RecordPeakEntries(lrows_.rows.size() + rrows_.rows.size());
  const size_t num_keys = left_keys_.size();
  const std::vector<bool> asc(num_keys, false);
  const std::vector<uint32_t> lorder = SortedOrder(lrows_, asc, 0, num_keys);
  const std::vector<uint32_t> rorder = SortedOrder(rrows_, asc, 0, num_keys);
  // Compares left row l with right row r.
  const auto compare = [this](uint32_t l, uint32_t r) {
    for (size_t k = 0; k < lrows_.keys.size(); ++k) {
      const int c = Value::Compare(lrows_.keys[k][l], rrows_.keys[k][r]);
      if (c != 0) return c;
    }
    return 0;
  };
  // NULL keys never match.
  const auto has_null = [](const KeyedRows& in, uint32_t i) {
    for (const std::vector<Value>& key : in.keys) {
      if (key[i].is_null()) return true;
    }
    return false;
  };
  size_t begin = 0;  // first right row not below the current left key
  for (uint32_t l : lorder) {
    size_t end = begin;
    if (!has_null(lrows_, l)) {
      while (begin < rorder.size() && (has_null(rrows_, rorder[begin]) ||
                                       compare(l, rorder[begin]) > 0)) {
        ++begin;
      }
      end = begin;
      while (end < rorder.size() && compare(l, rorder[end]) == 0) ++end;
    }
    for (size_t r = begin; r < end; ++r) pairs_.emplace_back(l, rorder[r]);
    if (begin == end && type_ == JoinType::kLeft) {
      pairs_.emplace_back(l, kNoRow);
    }
  }
  return FlushMemory();
}

Result<bool> SortMergeJoinOp::NextImpl(DataChunk* out) {
  out->Reset(schema_.size());
  if (pos_ >= pairs_.size()) return false;
  const size_t n = std::min(vector_size(), pairs_.size() - pos_);
  out->AppendPairs(lrows_.rows, rrows_.rows,
                   std::span<const RowPair>(pairs_).subspan(pos_, n));
  pos_ += n;
  return true;
}

// ---- NestedLoopJoinOp -----------------------------------------------------

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   BoundExprPtr predicate, JoinType type)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)),
      type_(type),
      schema_(Schema::Concat(left_->schema(), right_->schema())) {}

Status NestedLoopJoinOp::OpenImpl() {
  ReleaseMemory();
  left_done_ = false;
  // Pairs gather from it even before its first pull.
  left_chunk_.Reset(left_->schema().size());
  left_row_ = 0;
  right_pos_ = 0;
  left_matched_ = false;
  BORNSQL_RETURN_IF_ERROR(left_->Open());
  BORNSQL_RETURN_IF_ERROR(BufferInput(
      *right_, {}, &right_rows_,
      [this](const DataChunk& chunk, const KeyColumnRefs&) {
        return ChargeMemory(chunk.ApproxRowBytes());
      }));
  RecordPeakEntries(right_rows_.rows.size());
  return FlushMemory();
}

Result<bool> NestedLoopJoinOp::NextImpl(DataChunk* out) {
  out->Reset(schema_.size());
  const DataChunk& right = right_rows_.rows;
  pairs_.clear();
  while (out->size() + pairs_.size() < vector_size()) {
    if (left_row_ >= left_chunk_.size()) {
      // The pairs index into left_chunk_: gather them before it refills.
      out->AppendPairs(left_chunk_, right, pairs_);
      pairs_.clear();
      if (left_done_) return !out->empty();
      BORNSQL_ASSIGN_OR_RETURN(bool more, left_->Next(&left_chunk_));
      if (!more) {
        left_done_ = true;
        left_chunk_.Clear();
        return !out->empty();
      }
      left_row_ = 0;
      continue;
    }
    // This left row's next candidate pairs, as many as `out` has room for;
    // the predicate evaluates over them at once and keeps those it passes.
    const size_t first = pairs_.size();
    const size_t take = std::min(right.size() - right_pos_,
                                 vector_size() - out->size() - first);
    for (size_t t = 0; t < take; ++t) {
      pairs_.emplace_back(static_cast<uint32_t>(left_row_),
                          static_cast<uint32_t>(right_pos_ + t));
    }
    right_pos_ += take;
    if (predicate_ != nullptr && take > 0) {
      candidates_.Reset(schema_.size());
      candidates_.AppendPairs(left_chunk_, right,
                              std::span<const RowPair>(pairs_).subspan(first));
      BORNSQL_ASSIGN_OR_RETURN(
          const std::vector<Value>* pass,
          EvalChunkRef(*predicate_, candidates_, &pred_vals_));
      size_t kept = first;
      for (size_t c = 0; c < take; ++c) {
        const Value& v = (*pass)[c];
        if (!v.is_null() && v.Truthy()) pairs_[kept++] = pairs_[first + c];
      }
      pairs_.resize(kept);
    }
    left_matched_ = left_matched_ || pairs_.size() > first;
    if (right_pos_ < right.size()) continue;
    if (type_ == JoinType::kLeft && !left_matched_) {
      pairs_.emplace_back(static_cast<uint32_t>(left_row_), kNoRow);
    }
    ++left_row_;
    right_pos_ = 0;
    left_matched_ = false;
  }
  out->AppendPairs(left_chunk_, right, pairs_);
  return true;
}

// ---- IndexJoinOp ------------------------------------------------------------

IndexJoinOp::IndexJoinOp(OperatorPtr outer, const storage::Table* inner_table,
                         Schema inner_schema, size_t index_id,
                         std::vector<BoundExprPtr> outer_keys,
                         bool inner_on_left)
    : outer_(std::move(outer)),
      inner_table_(inner_table),
      inner_schema_(std::move(inner_schema)),
      index_id_(index_id),
      outer_keys_(std::move(outer_keys)),
      outer_exprs_(ExprList(outer_keys_)),
      inner_on_left_(inner_on_left),
      schema_(inner_on_left_ ? Schema::Concat(inner_schema_, outer_->schema())
                             : Schema::Concat(outer_->schema(),
                                              inner_schema_)) {}

Status IndexJoinOp::OpenImpl() {
  outer_chunk_.Clear();
  outer_row_ = 0;
  matches_.clear();
  match_pos_ = 0;
  outer_done_ = false;
  return outer_->Open();
}

void IndexJoinOp::BeginOuterRow() {
  matches_.clear();
  match_pos_ = 0;
  Row key = KeyAt(outer_key_cols_, outer_row_);
  inner_table_->LookupIndex(index_id_, key, &matches_);
}

void IndexJoinOp::FlushPairs(DataChunk* out) {
  const size_t outer_width = outer_chunk_.column_count();
  const size_t inner_width = inner_schema_.size();
  const size_t outer_first = inner_on_left_ ? inner_width : 0;
  const size_t inner_first = inner_on_left_ ? 0 : outer_width;
  for (size_t c = 0; c < outer_width; ++c) {
    auto& dst = out->column(outer_first + c);
    const auto& src = outer_chunk_.column(c);
    for (const RowPair& p : pairs_) dst.push_back(src[p.first]);
  }
  const auto& rows = inner_table_->rows();
  for (const RowPair& p : pairs_) {
    const Row& row = rows[p.second];
    for (size_t c = 0; c < inner_width; ++c) {
      out->column(inner_first + c).push_back(row[c]);
    }
  }
  out->SetCardinality(out->size() + pairs_.size());
  pairs_.clear();
}

Result<bool> IndexJoinOp::NextImpl(DataChunk* out) {
  out->Reset(schema_.size());
  pairs_.clear();
  while (true) {
    if (outer_row_ >= outer_chunk_.size()) {
      FlushPairs(out);  // indices dangle once outer_chunk_ is replaced
      if (outer_done_) return !out->empty();
      BORNSQL_ASSIGN_OR_RETURN(bool more, outer_->Next(&outer_chunk_));
      if (!more) {
        outer_done_ = true;
        outer_chunk_.Clear();
        return !out->empty();
      }
      BORNSQL_RETURN_IF_ERROR(EvalExprs(outer_exprs_, outer_chunk_,
                                        &outer_key_scratch_,
                                        &outer_key_cols_));
      outer_row_ = 0;
      BeginOuterRow();
    }
    const size_t budget = vector_size() - out->size();
    while (match_pos_ < matches_.size() && pairs_.size() < budget) {
      pairs_.emplace_back(static_cast<uint32_t>(outer_row_),
                          static_cast<uint32_t>(matches_[match_pos_++]));
    }
    if (match_pos_ < matches_.size()) {  // output chunk full
      FlushPairs(out);
      return true;
    }
    ++outer_row_;
    if (outer_row_ < outer_chunk_.size()) BeginOuterRow();
    if (out->size() + pairs_.size() >= vector_size()) {
      FlushPairs(out);
      return true;
    }
  }
}

// ---- HashAggOp ------------------------------------------------------------

HashAggOp::HashAggOp(OperatorPtr child, std::vector<BoundExprPtr> group_exprs,
                     std::vector<AggSpec> aggs, Schema schema)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      schema_(std::move(schema)),
      exprs_(ExprList(group_exprs_)) {
  for (const AggSpec& a : aggs_) exprs_.push_back(a.arg.get());
}

Status HashAggOp::OpenImpl() {
  results_.Reset(schema_.size());
  ReleaseMemory();
  pos_ = 0;
  const size_t num_keys = group_exprs_.size();

  // Group order follows first appearance, which keeps results deterministic.
  std::unordered_map<Row, size_t, RowKeyHash, RowKeyEq> group_index;
  std::vector<std::vector<AggState>> states;

  // Opens a group whose key row takes `key_bytes`.
  auto new_group = [&](uint64_t key_bytes) -> Result<size_t> {
    BORNSQL_RETURN_IF_ERROR(ChargeMemory(
        key_bytes + aggs_.size() * kAggStateBytes + kHashEntryOverhead));
    std::vector<AggState> st;
    st.reserve(aggs_.size());
    for (const AggSpec& a : aggs_) st.emplace_back(a.func);
    states.push_back(std::move(st));
    return states.size() - 1;
  };

  BORNSQL_RETURN_IF_ERROR(child_->Open());
  DataChunk chunk;
  std::vector<std::vector<Value>> scratch;
  KeyColumnRefs cols;
  KeyColumnRefs group_cols;
  while (true) {
    auto more = child_->Next(&chunk);
    if (!more.ok()) return more.status();
    if (!*more) break;
    BORNSQL_RETURN_IF_ERROR(EvalExprs(exprs_, chunk, &scratch, &cols));
    group_cols.assign(cols.begin(), cols.begin() + num_keys);
    for (size_t i = 0; i < chunk.size(); ++i) {
      size_t g;
      if (num_keys == 0) {
        if (states.empty()) {
          BORNSQL_RETURN_IF_ERROR(new_group(sizeof(Row)).status());
        }
        g = 0;
      } else {
        // Transparent lookup against the group-key columns: the key row is
        // materialized only for a group's first row, so the steady state
        // copies no Values and allocates nothing.
        auto it = group_index.find(ColsKeyView{&group_cols, i});
        if (it == group_index.end()) {
          Row key = KeyAt(group_cols, i);
          BORNSQL_ASSIGN_OR_RETURN(g, new_group(obs::ApproxRowBytes(key)));
          for (size_t k = 0; k < num_keys; ++k) {
            results_.column(k).push_back(key[k]);
          }
          group_index.emplace(std::move(key), g);
        } else {
          g = it->second;
        }
      }
      for (size_t a = 0; a < aggs_.size(); ++a) {
        const std::vector<Value>* arg = cols[num_keys + a];
        BORNSQL_RETURN_IF_ERROR(
            states[g][a].Accumulate(arg == nullptr ? Value::Null() : (*arg)[i]));
      }
    }
  }
  // Global aggregate over empty input still yields one row.
  if (num_keys == 0 && states.empty()) {
    BORNSQL_RETURN_IF_ERROR(new_group(sizeof(Row)).status());
  }
  RecordPeakEntries(states.size());
  for (size_t a = 0; a < aggs_.size(); ++a) {
    auto& col = results_.column(num_keys + a);
    col.reserve(states.size());
    for (size_t g = 0; g < states.size(); ++g) {
      col.push_back(states[g][a].Finalize());
    }
  }
  results_.SetCardinality(states.size());
  return FlushMemory();
}

Result<bool> HashAggOp::NextImpl(DataChunk* out) {
  return EmitSlice(&results_, &pos_, vector_size(), out);
}

// ---- SortOp ---------------------------------------------------------------

SortOp::SortOp(OperatorPtr child, std::vector<SortKey> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {
  for (const SortKey& k : keys_) {
    key_exprs_.push_back(k.expr.get());
    desc_.push_back(k.desc);
  }
}

Status SortOp::OpenImpl() {
  ReleaseMemory();
  pos_ = 0;
  // Each buffered row is charged as a (key Row, data Row) pair.
  KeyedRows in;
  BORNSQL_RETURN_IF_ERROR(BufferInput(
      *child_, key_exprs_, &in,
      [this](const DataChunk& chunk, const KeyColumnRefs& keys) {
        return ChargeMemory(chunk.ApproxRowBytes() +
                            KeyRowBytes(keys, chunk.size()));
      }));
  rows_.Reset(in.rows.column_count());
  rows_.AppendSelectedMoved(in.rows,
                            SortedOrder(in, desc_, 0, key_exprs_.size()));
  RecordPeakEntries(rows_.size());
  return FlushMemory();
}

Result<bool> SortOp::NextImpl(DataChunk* out) {
  return EmitSlice(&rows_, &pos_, vector_size(), out);
}

// ---- LimitOp ---------------------------------------------------------------

Status LimitOp::OpenImpl() {
  produced_ = 0;
  to_skip_ = offset_;
  return child_->Open();
}

Result<bool> LimitOp::NextImpl(DataChunk* out) {
  out->Reset(schema().size());
  if (limit_ >= 0 && produced_ >= limit_) return false;
  while (true) {
    BORNSQL_ASSIGN_OR_RETURN(bool more, child_->Next(&input_));
    if (!more) return false;
    size_t begin = 0;
    if (to_skip_ > 0) {
      const size_t skip =
          std::min(static_cast<size_t>(to_skip_), input_.size());
      begin = skip;
      to_skip_ -= static_cast<int64_t>(skip);
    }
    size_t avail = input_.size() - begin;
    if (avail == 0) continue;  // the offset swallowed the whole chunk
    if (limit_ >= 0) {
      avail = std::min(avail, static_cast<size_t>(limit_ - produced_));
    }
    out->AppendRangeMoved(input_, begin, avail);
    produced_ += static_cast<int64_t>(avail);
    return true;
  }
}

// ---- UnionAllOp -------------------------------------------------------------

UnionAllOp::UnionAllOp(std::vector<OperatorPtr> children)
    : children_(std::move(children)) {
  assert(!children_.empty());
  // Positional schema from the first child, unqualified (a UNION result is a
  // fresh relation).
  for (const Column& c : children_[0]->schema().columns()) {
    schema_.Add(Column{"", c.name, c.type});
  }
}

Status UnionAllOp::OpenImpl() {
  current_ = 0;
  for (auto& c : children_) {
    BORNSQL_RETURN_IF_ERROR(c->Open());
  }
  return Status::OK();
}

Result<bool> UnionAllOp::NextImpl(DataChunk* out) {
  while (current_ < children_.size()) {
    BORNSQL_ASSIGN_OR_RETURN(bool more, children_[current_]->Next(out));
    if (more) return true;
    ++current_;
  }
  out->Reset(schema_.size());
  return false;
}

// ---- DistinctOp -------------------------------------------------------------

Status DistinctOp::OpenImpl() {
  seen_.clear();
  ReleaseMemory();
  return child_->Open();
}

Result<bool> DistinctOp::NextImpl(DataChunk* out) {
  while (true) {
    BORNSQL_ASSIGN_OR_RETURN(bool more, child_->Next(&input_));
    if (!more) {
      out->Reset(input_.column_count());
      // Streaming operator: flush the sub-chunk remainder at exhaustion so
      // the distinct set is visible to the tracker (and its limit).
      BORNSQL_RETURN_IF_ERROR(FlushMemory());
      return false;
    }
    sel_.clear();
    cols_.clear();
    for (size_t c = 0; c < input_.column_count(); ++c) {
      cols_.push_back(&input_.column(c));
    }
    for (size_t i = 0; i < input_.size(); ++i) {
      // Transparent duplicate check against the chunk columns; only
      // genuinely new rows are materialized into the set.
      if (seen_.find(ColsKeyView{&cols_, i}) != seen_.end()) continue;
      auto [it, inserted] = seen_.emplace(KeyAt(cols_, i), true);
      BORNSQL_RETURN_IF_ERROR(ChargeMemory(obs::ApproxRowBytes(it->first) +
                                           kHashEntryOverhead));
      sel_.push_back(static_cast<uint32_t>(i));
    }
    if (exec_verifier() != nullptr) {
      BORNSQL_RETURN_IF_ERROR(
          exec_verifier()->CheckSelection(*this, input_, &sel_));
    }
    if (sel_.empty()) continue;  // all duplicates; pull the next chunk
    RecordPeakEntries(seen_.size());
    if (sel_.size() == input_.size()) {
      *out = std::move(input_);
      return true;
    }
    out->Reset(input_.column_count());
    out->AppendSelectedMoved(input_, sel_);
    return true;
  }
}

// ---- WindowOp ---------------------------------------------------------------

WindowOp::WindowOp(OperatorPtr child, std::vector<WindowSpec> specs)
    : child_(std::move(child)), specs_(std::move(specs)) {
  schema_ = child_->schema();
  for (const WindowSpec& spec : specs_) {
    schema_.Add(Column{"", spec.output_name, ValueType::kInt});
    for (const BoundExprPtr& p : spec.partition_by) {
      key_exprs_.push_back(p.get());
      desc_.push_back(false);
    }
    for (const SortKey& k : spec.order_by) {
      key_exprs_.push_back(k.expr.get());
      desc_.push_back(k.desc);
    }
  }
}

Status WindowOp::OpenImpl() {
  ReleaseMemory();
  pos_ = 0;
  KeyedRows in;
  BORNSQL_RETURN_IF_ERROR(BufferInput(
      *child_, key_exprs_, &in,
      [this](const DataChunk& chunk, const KeyColumnRefs&) {
        return ChargeMemory(chunk.ApproxRowBytes() +
                            chunk.size() * specs_.size() * sizeof(Value));
      }));
  const size_t n = in.rows.size();
  const size_t width = in.rows.column_count();
  rows_.Reset(schema_.size());
  for (size_t c = 0; c < width; ++c) rows_.column(c).swap(in.rows.column(c));

  size_t from = 0;  // the spec's first key
  for (size_t s = 0; s < specs_.size(); ++s) {
    const WindowSpec& spec = specs_[s];
    const size_t parts = from + spec.partition_by.size();
    const size_t to = parts + spec.order_by.size();
    const std::vector<uint32_t> sorted = SortedOrder(in, desc_, from, to);
    std::vector<Value>& out = rows_.column(width + s);
    out.resize(n);
    int64_t row_number = 0;  // position within the partition
    int64_t rank = 0;        // RANK: ties share, then gaps
    int64_t dense = 0;       // DENSE_RANK: ties share, no gaps
    for (size_t i = 0; i < n; ++i) {
      const bool new_partition =
          i == 0 || CompareRows(in, desc_, sorted[i], sorted[i - 1], from,
                                parts) != 0;
      const bool peer = !new_partition &&
                        CompareRows(in, desc_, sorted[i], sorted[i - 1],
                                    parts, to) == 0;
      if (new_partition) {
        row_number = 0;
        rank = 0;
        dense = 0;
      }
      ++row_number;
      if (!peer) {
        rank = row_number;
        ++dense;
      }
      int64_t value = row_number;
      if (spec.func == WindowFunc::kRank) value = rank;
      if (spec.func == WindowFunc::kDenseRank) value = dense;
      out[sorted[i]] = Value::Int(value);
    }
    from = to;
  }
  rows_.SetCardinality(n);
  RecordPeakEntries(n);
  return FlushMemory();
}

Result<bool> WindowOp::NextImpl(DataChunk* out) {
  return EmitSlice(&rows_, &pos_, vector_size(), out);
}

}  // namespace bornsql::exec
