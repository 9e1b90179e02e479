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
#include <vector>

#include "types/value.h"

namespace bornsql::exec {

// Indexes of the rows of a chunk that survive a predicate, in ascending
// order.
using SelectionVector = std::vector<uint32_t>;

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

  // Row-at-a-time bridges, used by operators whose algorithm is inherently
  // row-wise (sort-merge join stepping, hash-table inserts).
  void AppendRow(Row&& row);  // moves the cell values
  // Copies row `i` out as a Row.
  Row MaterializeRow(size_t i) const;
  // Appends every row, materialized, to `out` (final result buffering).
  void AppendRowsTo(std::vector<Row>* out) const;

  // Appends src's rows at the positions in `sel` (filter compaction).
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

  // Join emission: appends chunk row `ai` of `a` concatenated with `b`
  // (nullptr => `b_width` NULLs, for LEFT-join padding). This chunk must
  // have a.column_count() + b_width columns.
  void AppendConcat(const DataChunk& a, size_t ai, const Row* b,
                    size_t b_width);
  // Mirror image for joins whose build side comes first in the output:
  // `a` ++ chunk row `bi` of `b`.
  void AppendConcat(const Row& a, const DataChunk& b, size_t bi);

  // Approximate heap bytes of the held values (obs::ApproxValueBytes
  // summed), for chunk-granularity memory charging.
  uint64_t ApproxBytes() const;

 private:
  std::vector<std::vector<Value>> cols_;
  size_t size_ = 0;
};

}  // namespace bornsql::exec

#endif  // BORNSQL_EXEC_CHUNK_H_
