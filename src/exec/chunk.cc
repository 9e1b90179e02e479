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

void DataChunk::AppendPairs(const DataChunk& left, const DataChunk& right,
                            std::span<const RowPair> pairs) {
  const size_t lw = left.column_count();
  assert(cols_.size() == lw + right.column_count());
  for (size_t c = 0; c < lw; ++c) {
    auto& dst = cols_[c];
    const auto& src = left.cols_[c];
    for (const RowPair& p : pairs) dst.push_back(src[p.first]);
  }
  for (size_t c = 0; c < right.column_count(); ++c) {
    auto& dst = cols_[lw + c];
    const auto& src = right.cols_[c];
    for (const RowPair& p : pairs) {
      dst.push_back(p.second == kNoRow ? Value::Null() : src[p.second]);
    }
  }
  size_ += pairs.size();
}

uint64_t DataChunk::ApproxRowBytes() const {
  uint64_t total = size_ * sizeof(Row);
  for (const auto& col : cols_) {
    for (size_t i = 0; i < size_; ++i) {
      total += obs::ApproxValueBytes(col[i]);
    }
  }
  return total;
}

}  // namespace bornsql::exec
