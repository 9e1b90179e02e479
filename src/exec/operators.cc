#include "exec/operators.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <numeric>

namespace bornsql::exec {
namespace {

// Evaluates `exprs` over a whole chunk: (*cols[k])[i] = exprs[k] on row i.
// Bare column keys alias the chunk's own columns (no value copies per
// chunk); computed keys evaluate into the scratch vectors. The refs are
// valid until `chunk` or `scratch` changes.
Status EvalKeyColumns(const std::vector<BoundExprPtr>& exprs,
                      const DataChunk& chunk,
                      std::vector<std::vector<Value>>* scratch,
                      KeyColumnRefs* cols) {
  scratch->resize(exprs.size());
  cols->resize(exprs.size());
  for (size_t k = 0; k < exprs.size(); ++k) {
    BORNSQL_ASSIGN_OR_RETURN(
        (*cols)[k], EvalChunkRef(*exprs[k], chunk, &(*scratch)[k]));
  }
  return Status::OK();
}

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

bool KeyHasNull(const Row& key) {
  for (const Value& v : key) {
    if (v.is_null()) return true;
  }
  return false;
}

int CompareKeys(const Row& a, const Row& b) {
  assert(a.size() == b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    int c = Value::Compare(a[i], b[i]);
    if (c != 0) return c;
  }
  return 0;
}

Row ConcatRows(const Row& a, const Row& b) {
  Row out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
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

size_t RowKeyHash::operator()(const ChunkKeyView& v) const {
  size_t h = 1469598103934665603ULL;
  for (size_t c = 0; c < v.chunk->column_count(); ++c) {
    h ^= v.chunk->column(c)[v.row].Hash();
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

bool RowKeyEq::operator()(const Row& a, const ChunkKeyView& b) const {
  if (a.size() != b.chunk->column_count()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (Value::Compare(a[i], b.chunk->column(i)[b.row]) != 0) return false;
  }
  return true;
}

bool RowKeyEq::operator()(const ChunkKeyView& a, const Row& b) const {
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

Result<MaterializedResult> Drain(Operator& op) {
  BORNSQL_ASSIGN_OR_RETURN(MaterializedChunks data, DrainChunks(op));
  MaterializedResult out;
  out.schema = std::move(data.schema);
  for (const DataChunk& chunk : data.chunks) chunk.AppendRowsTo(&out.rows);
  return out;
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

bool EmitRowRange(const std::vector<Row>& rows, size_t* pos, size_t width,
                  size_t vector_size, DataChunk* out) {
  out->Reset(width);
  if (*pos >= rows.size()) return false;
  const size_t n = std::min(vector_size, rows.size() - *pos);
  for (size_t c = 0; c < width; ++c) {
    auto& col = out->column(c);
    col.reserve(n);
    for (size_t i = 0; i < n; ++i) col.push_back(rows[*pos + i][c]);
  }
  out->SetCardinality(n);
  *pos += n;
  return true;
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
  // Computed expressions evaluate first (they may read any input column);
  // bare column references then pass through without going through the
  // evaluator, and the last reference to an input column steals it.
  for (size_t j = 0; j < exprs_.size(); ++j) {
    if (bare_cols_[j] != kNotBare) continue;
    BORNSQL_RETURN_IF_ERROR(EvalChunk(*exprs_[j], input_, &out->column(j)));
  }
  for (size_t j = 0; j < exprs_.size(); ++j) {
    const size_t c = bare_cols_[j];
    if (c == kNotBare) continue;
    if (last_col_ref_[j]) {
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
  probe_chunk_.Clear();
  probe_row_ = 0;
  matches_ = nullptr;
  match_pos_ = 0;
  left_emitted_ = false;
  left_done_ = false;
  BORNSQL_RETURN_IF_ERROR(left_->Open());
  BORNSQL_RETURN_IF_ERROR(right_->Open());
  DataChunk chunk;
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
        EvalKeyColumns(right_keys_, chunk, &key_scratch, &key_cols));
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
  if (pairs_.empty()) return;
  const size_t probe_width = left_->schema().size();
  for (size_t c = 0; c < probe_width; ++c) {
    auto& dst = out->column(c);
    const auto& src = probe_chunk_.column(c);
    dst.reserve(dst.size() + pairs_.size());
    for (const auto& p : pairs_) dst.push_back(src[p.first]);
  }
  for (size_t c = 0; c < build_data_.column_count(); ++c) {
    auto& dst = out->column(probe_width + c);
    const auto& src = build_data_.column(c);
    dst.reserve(dst.size() + pairs_.size());
    for (const auto& p : pairs_) {
      dst.push_back(p.second == kNoMatch ? Value::Null() : src[p.second]);
    }
  }
  out->SetCardinality(out->size() + pairs_.size());
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
      BORNSQL_RETURN_IF_ERROR(EvalKeyColumns(left_keys_, probe_chunk_,
                                             &probe_key_scratch_,
                                             &probe_keys_));
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
      pairs_.emplace_back(static_cast<uint32_t>(probe_row_), kNoMatch);
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
  lrows_.clear();
  rrows_.clear();
  ReleaseMemory();
  li_ = rgroup_begin_ = rgroup_end_ = rj_ = 0;
  in_group_ = false;
  auto load = [this](Operator& op, const std::vector<BoundExprPtr>& keys,
                     std::vector<std::pair<Row, Row>>* dst) -> Status {
    BORNSQL_RETURN_IF_ERROR(op.Open());
    DataChunk chunk;
    std::vector<std::vector<Value>> key_scratch;
    KeyColumnRefs key_cols;
    while (true) {
      auto more = op.Next(&chunk);
      if (!more.ok()) return more.status();
      if (!*more) break;
      BORNSQL_RETURN_IF_ERROR(
          EvalKeyColumns(keys, chunk, &key_scratch, &key_cols));
      for (size_t i = 0; i < chunk.size(); ++i) {
        Row key = KeyAt(key_cols, i);
        Row row = chunk.MaterializeRow(i);
        BORNSQL_RETURN_IF_ERROR(ChargeMemory(obs::ApproxRowBytes(row) +
                                             obs::ApproxRowBytes(key)));
        dst->emplace_back(std::move(key), std::move(row));
      }
    }
    std::stable_sort(dst->begin(), dst->end(),
                     [](const auto& a, const auto& b) {
                       return CompareKeys(a.first, b.first) < 0;
                     });
    return Status::OK();
  };
  BORNSQL_RETURN_IF_ERROR(load(*left_, left_keys_, &lrows_));
  BORNSQL_RETURN_IF_ERROR(load(*right_, right_keys_, &rrows_));
  RecordPeakEntries(lrows_.size() + rrows_.size());
  return FlushMemory();
}

Result<bool> SortMergeJoinOp::NextRow(Row* out) {
  while (li_ < lrows_.size()) {
    const Row& lkey = lrows_[li_].first;
    if (!in_group_) {
      const bool null_key = KeyHasNull(lkey);  // NULL keys never match
      if (!null_key) {
        // Advance the right cursor to the group of keys equal to lkey.
        while (rgroup_begin_ < rrows_.size() &&
               (KeyHasNull(rrows_[rgroup_begin_].first) ||
                CompareKeys(rrows_[rgroup_begin_].first, lkey) < 0)) {
          ++rgroup_begin_;
        }
        rgroup_end_ = rgroup_begin_;
        while (rgroup_end_ < rrows_.size() &&
               CompareKeys(rrows_[rgroup_end_].first, lkey) == 0) {
          ++rgroup_end_;
        }
      }
      if (null_key || rgroup_begin_ == rgroup_end_) {  // no match
        ++li_;
        if (type_ != JoinType::kLeft) continue;
        *out = ConcatRows(lrows_[li_ - 1].second,
                          Row(right_->schema().size()));
        return true;
      }
      in_group_ = true;
      rj_ = rgroup_begin_;
    }
    if (rj_ < rgroup_end_) {
      *out = ConcatRows(lrows_[li_].second, rrows_[rj_].second);
      ++rj_;
      return true;
    }
    // Finished this left row's matches. The next left row may share the key,
    // in which case the same right group applies.
    in_group_ = false;
    size_t next = li_ + 1;
    if (next < lrows_.size() &&
        CompareKeys(lrows_[next].first, lkey) == 0) {
      in_group_ = true;
      rj_ = rgroup_begin_;
    }
    ++li_;
  }
  return false;
}

Result<bool> SortMergeJoinOp::NextImpl(DataChunk* out) {
  out->Reset(schema_.size());
  Row row;
  while (out->size() < vector_size()) {
    BORNSQL_ASSIGN_OR_RETURN(bool more, NextRow(&row));
    if (!more) break;
    out->AppendRow(std::move(row));
  }
  return !out->empty();
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
  right_rows_.clear();
  ReleaseMemory();
  have_left_ = false;
  left_done_ = false;
  left_chunk_.Clear();
  left_row_ = 0;
  right_pos_ = 0;
  BORNSQL_RETURN_IF_ERROR(left_->Open());
  BORNSQL_ASSIGN_OR_RETURN(MaterializedResult right, Drain(*right_));
  right_rows_ = std::move(right.rows);
  for (const Row& row : right_rows_) {
    BORNSQL_RETURN_IF_ERROR(ChargeMemory(obs::ApproxRowBytes(row)));
  }
  RecordPeakEntries(right_rows_.size());
  return FlushMemory();
}

Result<bool> NestedLoopJoinOp::NextImpl(DataChunk* out) {
  out->Reset(schema_.size());
  const size_t right_width = right_->schema().size();
  while (true) {
    if (!have_left_) {
      if (left_row_ + 1 < left_chunk_.size()) {
        ++left_row_;
      } else {
        if (left_done_) return !out->empty();
        BORNSQL_ASSIGN_OR_RETURN(bool more, left_->Next(&left_chunk_));
        if (!more) {
          left_done_ = true;
          left_chunk_.Clear();
          return !out->empty();
        }
        left_row_ = 0;
      }
      have_left_ = true;
      left_matched_ = false;
      right_pos_ = 0;
    }
    // This left row's next candidate pairs, as many as `out` has room for;
    // the predicate evaluates over them at once.
    const size_t take = std::min(right_rows_.size() - right_pos_,
                                 vector_size() - out->size());
    DataChunk* pairs = predicate_ == nullptr ? out : &candidates_;
    if (predicate_ != nullptr) candidates_.Reset(schema_.size());
    for (size_t t = 0; t < take; ++t) {
      pairs->AppendConcat(left_chunk_, left_row_,
                          &right_rows_[right_pos_ + t], right_width);
    }
    right_pos_ += take;
    if (predicate_ == nullptr) {
      left_matched_ = left_matched_ || take > 0;
    } else {
      BORNSQL_ASSIGN_OR_RETURN(
          const std::vector<Value>* pass,
          EvalChunkRef(*predicate_, candidates_, &pred_vals_));
      sel_.clear();
      for (size_t c = 0; c < take; ++c) {
        const Value& v = (*pass)[c];
        if (!v.is_null() && v.Truthy()) {
          sel_.push_back(static_cast<uint32_t>(c));
        }
      }
      left_matched_ = left_matched_ || !sel_.empty();
      out->AppendSelectedMoved(candidates_, sel_);
    }
    if (out->size() >= vector_size()) return true;
    if (right_pos_ < right_rows_.size()) continue;
    if (type_ == JoinType::kLeft && !left_matched_) {
      out->AppendConcat(left_chunk_, left_row_, nullptr, right_width);
    }
    have_left_ = false;
    if (out->size() >= vector_size()) return true;
  }
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

Result<bool> IndexJoinOp::NextImpl(DataChunk* out) {
  out->Reset(schema_.size());
  while (true) {
    if (outer_row_ >= outer_chunk_.size()) {
      if (outer_done_) return !out->empty();
      BORNSQL_ASSIGN_OR_RETURN(bool more, outer_->Next(&outer_chunk_));
      if (!more) {
        outer_done_ = true;
        outer_chunk_.Clear();
        return !out->empty();
      }
      BORNSQL_RETURN_IF_ERROR(EvalKeyColumns(outer_keys_, outer_chunk_,
                                             &outer_key_scratch_,
                                             &outer_key_cols_));
      outer_row_ = 0;
      BeginOuterRow();
    }
    while (match_pos_ < matches_.size() && out->size() < vector_size()) {
      const Row& inner_row = inner_table_->rows()[matches_[match_pos_++]];
      if (inner_on_left_) {
        out->AppendConcat(inner_row, outer_chunk_, outer_row_);
      } else {
        out->AppendConcat(outer_chunk_, outer_row_, &inner_row,
                          inner_schema_.size());
      }
    }
    if (match_pos_ < matches_.size()) return true;  // output chunk full
    ++outer_row_;
    if (outer_row_ < outer_chunk_.size()) BeginOuterRow();
    if (out->size() >= vector_size()) return true;
  }
}

// ---- HashAggOp ------------------------------------------------------------

HashAggOp::HashAggOp(OperatorPtr child, std::vector<BoundExprPtr> group_exprs,
                     std::vector<AggSpec> aggs, Schema schema)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      schema_(std::move(schema)) {}

Status HashAggOp::OpenImpl() {
  results_.Reset(schema_.size());
  ReleaseMemory();
  pos_ = 0;

  // Group order follows first appearance, which keeps results deterministic.
  std::unordered_map<Row, size_t, RowKeyHash, RowKeyEq> group_index;
  std::vector<Row> group_keys;
  std::vector<std::vector<AggState>> states;

  auto new_group = [&](const Row& key) -> Result<size_t> {
    BORNSQL_RETURN_IF_ERROR(ChargeMemory(
        obs::ApproxRowBytes(key) + aggs_.size() * kAggStateBytes +
        kHashEntryOverhead));
    group_keys.push_back(key);
    std::vector<AggState> st;
    st.reserve(aggs_.size());
    for (const AggSpec& a : aggs_) st.emplace_back(a.func);
    states.push_back(std::move(st));
    return states.size() - 1;
  };

  BORNSQL_RETURN_IF_ERROR(child_->Open());
  DataChunk chunk;
  std::vector<std::vector<Value>> group_scratch;
  KeyColumnRefs group_cols;
  std::vector<std::vector<Value>> arg_scratch(aggs_.size());
  std::vector<const std::vector<Value>*> arg_cols(aggs_.size());
  while (true) {
    auto more = child_->Next(&chunk);
    if (!more.ok()) return more.status();
    if (!*more) break;
    if (!group_exprs_.empty()) {
      BORNSQL_RETURN_IF_ERROR(
          EvalKeyColumns(group_exprs_, chunk, &group_scratch, &group_cols));
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (aggs_[a].arg != nullptr) {
        BORNSQL_ASSIGN_OR_RETURN(
            arg_cols[a],
            EvalChunkRef(*aggs_[a].arg, chunk, &arg_scratch[a]));
      }
    }
    for (size_t i = 0; i < chunk.size(); ++i) {
      size_t g;
      if (group_exprs_.empty()) {
        if (states.empty()) {
          BORNSQL_RETURN_IF_ERROR(new_group(Row{}).status());
        }
        g = 0;
      } else {
        // Transparent lookup against the group-key columns: the key row is
        // materialized only for a group's first row, so the steady state
        // copies no Values and allocates nothing.
        auto it = group_index.find(ColsKeyView{&group_cols, i});
        if (it == group_index.end()) {
          Row key = KeyAt(group_cols, i);
          BORNSQL_ASSIGN_OR_RETURN(g, new_group(key));
          group_index.emplace(std::move(key), g);
        } else {
          g = it->second;
        }
      }
      for (size_t a = 0; a < aggs_.size(); ++a) {
        if (aggs_[a].arg == nullptr) {
          BORNSQL_RETURN_IF_ERROR(states[g][a].Accumulate(Value::Null()));
        } else {
          BORNSQL_RETURN_IF_ERROR(
              states[g][a].Accumulate((*arg_cols[a])[i]));
        }
      }
    }
  }
  // Global aggregate over empty input still yields one row.
  if (group_exprs_.empty() && states.empty()) {
    BORNSQL_RETURN_IF_ERROR(new_group(Row{}).status());
  }
  RecordPeakEntries(states.size());

  // Finalize straight into columns, stealing the key values (the map's own
  // key copies keep group_index consistent until it goes out of scope).
  const size_t num_keys = group_exprs_.size();
  for (size_t k = 0; k < num_keys; ++k) {
    auto& col = results_.column(k);
    col.reserve(states.size());
    for (size_t g = 0; g < states.size(); ++g) {
      col.push_back(std::move(group_keys[g][k]));
    }
  }
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
  out->Reset(schema_.size());
  if (pos_ >= results_.size()) return false;
  const size_t n = std::min(vector_size(), results_.size() - pos_);
  out->AppendRangeMoved(results_, pos_, n);
  pos_ += n;
  return true;
}

// ---- SortOp ---------------------------------------------------------------

Status SortOp::OpenImpl() {
  rows_.clear();
  ReleaseMemory();
  pos_ = 0;
  BORNSQL_RETURN_IF_ERROR(child_->Open());
  // Precompute key rows alongside data rows for a cheap comparator; the
  // keys themselves are evaluated columnar, a chunk at a time.
  std::vector<std::pair<Row, Row>> keyed;
  DataChunk chunk;
  std::vector<std::vector<Value>> key_scratch(keys_.size());
  KeyColumnRefs key_cols(keys_.size());
  while (true) {
    auto more = child_->Next(&chunk);
    if (!more.ok()) return more.status();
    if (!*more) break;
    for (size_t k = 0; k < keys_.size(); ++k) {
      BORNSQL_ASSIGN_OR_RETURN(
          key_cols[k], EvalChunkRef(*keys_[k].expr, chunk, &key_scratch[k]));
    }
    for (size_t i = 0; i < chunk.size(); ++i) {
      Row key = KeyAt(key_cols, i);
      Row row = chunk.MaterializeRow(i);
      BORNSQL_RETURN_IF_ERROR(ChargeMemory(obs::ApproxRowBytes(row) +
                                           obs::ApproxRowBytes(key)));
      keyed.emplace_back(std::move(key), std::move(row));
    }
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [this](const auto& a, const auto& b) {
                     for (size_t i = 0; i < keys_.size(); ++i) {
                       int c = Value::Compare(a.first[i], b.first[i]);
                       if (c != 0) return keys_[i].desc ? c > 0 : c < 0;
                     }
                     return false;
                   });
  rows_.reserve(keyed.size());
  for (auto& [key, data] : keyed) rows_.push_back(std::move(data));
  RecordPeakEntries(rows_.size());
  return FlushMemory();
}

Result<bool> SortOp::NextImpl(DataChunk* out) {
  return EmitRowRange(rows_, &pos_, schema().size(), vector_size(), out);
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
    for (size_t i = 0; i < input_.size(); ++i) {
      // Transparent duplicate check against the chunk columns; only
      // genuinely new rows are materialized into the set.
      if (seen_.find(ChunkKeyView{&input_, i}) != seen_.end()) continue;
      auto [it, inserted] = seen_.emplace(input_.MaterializeRow(i), true);
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
  }
}

Status WindowOp::OpenImpl() {
  rows_.clear();
  ReleaseMemory();
  pos_ = 0;
  BORNSQL_RETURN_IF_ERROR(child_->Open());
  // keys[s][k][i]: spec s's partition keys, then its order keys, for input
  // row i, evaluated column by column for each input chunk.
  std::vector<std::vector<std::vector<Value>>> keys(specs_.size());
  for (size_t s = 0; s < specs_.size(); ++s) {
    keys[s].resize(specs_[s].partition_by.size() + specs_[s].order_by.size());
  }
  DataChunk chunk;
  std::vector<Value> col;
  while (true) {
    auto more = child_->Next(&chunk);
    if (!more.ok()) return more.status();
    if (!*more) break;
    for (size_t s = 0; s < specs_.size(); ++s) {
      const size_t parts = specs_[s].partition_by.size();
      for (size_t k = 0; k < keys[s].size(); ++k) {
        BORNSQL_RETURN_IF_ERROR(EvalChunk(
            k < parts ? *specs_[s].partition_by[k]
                      : *specs_[s].order_by[k - parts].expr,
            chunk, &col));
        keys[s][k].insert(keys[s][k].end(),
                          std::make_move_iterator(col.begin()),
                          std::make_move_iterator(col.end()));
      }
    }
    for (size_t i = 0; i < chunk.size(); ++i) {
      Row row = chunk.MaterializeRow(i);
      BORNSQL_RETURN_IF_ERROR(ChargeMemory(
          obs::ApproxRowBytes(row) + specs_.size() * sizeof(Value)));
      rows_.push_back(std::move(row));
    }
  }

  for (size_t s = 0; s < specs_.size(); ++s) {
    const WindowSpec& spec = specs_[s];
    const std::vector<std::vector<Value>>& key = keys[s];
    const size_t parts = spec.partition_by.size();
    // Compares rows a and b on keys [from, to): partition keys ascending,
    // order keys in their own direction.
    const auto compare = [&](size_t a, size_t b, size_t from, size_t to) {
      for (size_t k = from; k < to; ++k) {
        const int c = Value::Compare(key[k][a], key[k][b]);
        if (c != 0) return k >= parts && spec.order_by[k - parts].desc ? -c : c;
      }
      return 0;
    };
    std::vector<size_t> sorted(rows_.size());
    std::iota(sorted.begin(), sorted.end(), size_t{0});
    std::stable_sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
      return compare(a, b, 0, key.size()) < 0;
    });
    int64_t row_number = 0;  // position within the partition
    int64_t rank = 0;        // RANK: ties share, then gaps
    int64_t dense = 0;       // DENSE_RANK: ties share, no gaps
    for (size_t i = 0; i < sorted.size(); ++i) {
      const bool new_partition =
          i == 0 || compare(sorted[i], sorted[i - 1], 0, parts) != 0;
      const bool peer =
          !new_partition &&
          compare(sorted[i], sorted[i - 1], parts, key.size()) == 0;
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
      rows_[sorted[i]].push_back(Value::Int(value));
    }
  }
  RecordPeakEntries(rows_.size());
  return FlushMemory();
}

Result<bool> WindowOp::NextImpl(DataChunk* out) {
  return EmitRowRange(rows_, &pos_, schema_.size(), vector_size(), out);
}

}  // namespace bornsql::exec
