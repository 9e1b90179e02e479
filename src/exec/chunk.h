// DataChunk: the unit of data flow in the vectorized executor.
//
// A chunk is a small batch (default 2048 rows, EngineConfig::vector_size)
// of column vectors. Operators exchange chunks instead of single rows, so
// the per-tuple virtual-call and branch overhead of the old Volcano
// iterator is amortized over a whole batch, and expression evaluation
// (exec/evaluator.h EvalChunk) runs as tight columnar loops.
//
// Layout is column-major: cols_[c][i] is row i's value in column c. The
// cardinality is stored explicitly rather than derived from the columns so
// zero-column chunks (FROM-less SELECT, SingleRowOp) can still carry a row
// count. Filters communicate the surviving rows of a chunk via a
// SelectionVector (indexes into the source chunk, ascending); downstream
// operators either compact through AppendSelected or receive an already
// compacted chunk.
#ifndef BORNSQL_EXEC_CHUNK_H_
#define BORNSQL_EXEC_CHUNK_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "types/value.h"

namespace bornsql::exec {

// Indexes of the rows of a chunk that survive a predicate, in ascending
// order.
using SelectionVector = std::vector<uint32_t>;

// A join output row: (left row, right row) indexes into two chunks.
using RowPair = std::pair<uint32_t, uint32_t>;
// A pair's right index when the left row matched nothing.
inline constexpr uint32_t kNoRow = static_cast<uint32_t>(-1);

class DataChunk {
 public:
  DataChunk() = default;

  // Sets the column count and clears all data. Column storage is reused
  // across Reset calls, so steady-state operation allocates nothing.
  void Reset(size_t num_columns) {
    cols_.resize(num_columns);
    Clear();
  }

  // Drops all rows, keeping the column count (and capacity).
  void Clear() {
    for (auto& c : cols_) c.clear();
    size_ = 0;
  }

  size_t column_count() const { return cols_.size(); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::vector<Value>& column(size_t c) { return cols_[c]; }
  const std::vector<Value>& column(size_t c) const { return cols_[c]; }

  // Declares the row count after columns were written directly (columnar
  // expression evaluation, scans). Also the only way a zero-column chunk
  // gets its cardinality. Every column must already hold `n` values.
  void SetCardinality(size_t n) { size_ = n; }

  // Moves a row's cells in: how system-view snapshots (and test fixtures)
  // become chunks.
  void AppendRow(Row&& row);

  // Appends src's rows at the positions in `sel`, in sel's order: filter
  // compaction, or a gather through a permutation.
  void AppendSelected(const DataChunk& src, const SelectionVector& sel);
  // Appends src rows [begin, begin+count) (LIMIT/OFFSET slicing).
  void AppendRange(const DataChunk& src, size_t begin, size_t count);

  // Move variants for single-consumer sources (an operator's own input or
  // result buffer that is discarded or refilled right after). Moving a TEXT
  // value transfers the shared payload pointer instead of touching its
  // refcount, so these skip the atomic traffic and the later destruction
  // that the copying variants pay. The moved rows of `src` are left hollow;
  // the caller must not read them again.
  void AppendSelectedMoved(DataChunk& src, const SelectionVector& sel);
  void AppendRangeMoved(DataChunk& src, size_t begin, size_t count);

  // Join emission: for each pair, appends row `first` of `left` followed by
  // row `second` of `right`, or by NULLs where `second` is kNoRow (LEFT-join
  // padding). This chunk must have left's plus right's columns.
  void AppendPairs(const DataChunk& left, const DataChunk& right,
                   std::span<const RowPair> pairs);

  // The memory charge of buffering these rows: obs::ApproxRowBytes summed
  // over them as if each were a Row, i.e. the held values' approximate
  // bytes plus size() * sizeof(Row).
  uint64_t ApproxRowBytes() const;

 private:
  std::vector<std::vector<Value>> cols_;
  size_t size_ = 0;
};

}  // namespace bornsql::exec

#endif  // BORNSQL_EXEC_CHUNK_H_
