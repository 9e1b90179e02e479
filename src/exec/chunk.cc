#include "exec/chunk.h"

#include <cassert>
#include <iterator>

#include "obs/memory.h"

namespace bornsql::exec {

void DataChunk::AppendRow(Row&& row) {
  assert(row.size() == cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].push_back(std::move(row[c]));
  }
  ++size_;
}

Row DataChunk::MaterializeRow(size_t i) const {
  assert(i < size_);
  Row out;
  out.reserve(cols_.size());
  for (const auto& col : cols_) out.push_back(col[i]);
  return out;
}

void DataChunk::AppendRowsTo(std::vector<Row>* out) const {
  // No reserve(size() + size_) here: callers (Drain) invoke this once per
  // chunk on the same accumulating vector, and an exact-size reserve defeats
  // push_back's geometric growth -- at vector_size=1 that reallocates the
  // whole result per row, turning an n-row drain into O(n^2) copying.
  for (size_t i = 0; i < size_; ++i) out->push_back(MaterializeRow(i));
}

void DataChunk::AppendSelected(const DataChunk& src,
                               const SelectionVector& sel) {
  assert(src.column_count() == cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    auto& dst = cols_[c];
    const auto& from = src.cols_[c];
    dst.reserve(dst.size() + sel.size());
    for (uint32_t i : sel) dst.push_back(from[i]);
  }
  size_ += sel.size();
}

void DataChunk::AppendRange(const DataChunk& src, size_t begin, size_t count) {
  assert(src.column_count() == cols_.size());
  assert(begin + count <= src.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    auto& dst = cols_[c];
    const auto& from = src.cols_[c];
    dst.insert(dst.end(), from.begin() + static_cast<ptrdiff_t>(begin),
               from.begin() + static_cast<ptrdiff_t>(begin + count));
  }
  size_ += count;
}

void DataChunk::AppendSelectedMoved(DataChunk& src,
                                    const SelectionVector& sel) {
  assert(src.column_count() == cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    auto& dst = cols_[c];
    auto& from = src.cols_[c];
    dst.reserve(dst.size() + sel.size());
    for (uint32_t i : sel) dst.push_back(std::move(from[i]));
  }
  size_ += sel.size();
}

void DataChunk::AppendRangeMoved(DataChunk& src, size_t begin, size_t count) {
  assert(src.column_count() == cols_.size());
  assert(begin + count <= src.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    auto& dst = cols_[c];
    auto& from = src.cols_[c];
    dst.insert(dst.end(),
               std::make_move_iterator(from.begin() +
                                       static_cast<ptrdiff_t>(begin)),
               std::make_move_iterator(from.begin() +
                                       static_cast<ptrdiff_t>(begin + count)));
  }
  size_ += count;
}

void DataChunk::AppendConcat(const DataChunk& a, size_t ai, const Row* b,
                             size_t b_width) {
  assert(cols_.size() == a.column_count() + b_width);
  assert(ai < a.size());
  size_t c = 0;
  for (; c < a.column_count(); ++c) cols_[c].push_back(a.cols_[c][ai]);
  if (b != nullptr) {
    assert(b->size() == b_width);
    for (size_t j = 0; j < b_width; ++j) cols_[c + j].push_back((*b)[j]);
  } else {
    for (size_t j = 0; j < b_width; ++j) cols_[c + j].push_back(Value::Null());
  }
  ++size_;
}

void DataChunk::AppendConcat(const Row& a, const DataChunk& b, size_t bi) {
  assert(cols_.size() == a.size() + b.column_count());
  assert(bi < b.size());
  for (size_t c = 0; c < a.size(); ++c) cols_[c].push_back(a[c]);
  for (size_t c = 0; c < b.column_count(); ++c) {
    cols_[a.size() + c].push_back(b.cols_[c][bi]);
  }
  ++size_;
}

uint64_t DataChunk::ApproxBytes() const {
  uint64_t total = 0;
  for (const auto& col : cols_) {
    for (size_t i = 0; i < size_; ++i) {
      total += obs::ApproxValueBytes(col[i]);
    }
  }
  return total;
}

}  // namespace bornsql::exec
