#include "sparse/csr_matrix.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "common/parallel.h"

namespace spnet {
namespace sparse {

Result<CsrMatrix> CsrMatrix::FromCoo(const CooMatrix& coo) {
  SPNET_RETURN_IF_ERROR(coo.Validate());
  CooMatrix sorted = coo;
  sorted.SortAndCombine();

  CsrMatrix m;
  m.rows_ = sorted.rows();
  m.cols_ = sorted.cols();
  m.ptr_.assign(static_cast<size_t>(m.rows_) + 1, 0);
  const auto& ri = sorted.row_indices();
  const auto& ci = sorted.col_indices();
  const auto& vv = sorted.values();
  for (Index r : ri) m.ptr_[static_cast<size_t>(r) + 1]++;
  for (size_t r = 0; r < static_cast<size_t>(m.rows_); ++r) {
    m.ptr_[r + 1] += m.ptr_[r];
  }
  m.indices_.assign(ci.begin(), ci.end());
  m.values_.assign(vv.begin(), vv.end());
  return m;
}

Result<CsrMatrix> CsrMatrix::FromParts(Index rows, Index cols,
                                       std::vector<Offset> ptr,
                                       std::vector<Index> indices,
                                       std::vector<Value> values) {
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.ptr_ = std::move(ptr);
  m.indices_ = std::move(indices);
  m.values_ = std::move(values);
  SPNET_RETURN_IF_ERROR(m.Validate());
  return m;
}

CsrMatrix CsrMatrix::Transpose() const {
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.ptr_.assign(static_cast<size_t>(cols_) + 1, 0);
  t.indices_.resize(indices_.size());
  t.values_.resize(values_.size());

  ThreadPool& pool = GlobalThreadPool();
  if (pool.threads() == 1 || rows_ == 0) {
    // Count entries per column, then prefix-sum into pointers.
    for (Index c : indices_) t.ptr_[static_cast<size_t>(c) + 1]++;
    for (size_t c = 0; c < static_cast<size_t>(cols_); ++c) {
      t.ptr_[c + 1] += t.ptr_[c];
    }
    // Scatter. `cursor` tracks the next free slot per output row; rows of
    // the transpose come out sorted because we scan input rows in order.
    std::vector<Offset> cursor(t.ptr_.begin(), t.ptr_.end() - 1);
    for (Index r = 0; r < rows_; ++r) {
      for (Offset k = ptr_[r]; k < ptr_[r + 1]; ++k) {
        const Index c = indices_[static_cast<size_t>(k)];
        const Offset slot = cursor[static_cast<size_t>(c)]++;
        t.indices_[static_cast<size_t>(slot)] = r;
        t.values_[static_cast<size_t>(slot)] = values_[static_cast<size_t>(k)];
      }
    }
    return t;
  }

  // Parallel count-scan-scatter over contiguous row chunks (one histogram
  // per chunk). The serial scatter order within a column is input-row
  // order; reserving each chunk its exact sub-range per column reproduces
  // that layout bit-for-bit for any thread count.
  const int64_t grain = GrainForChunkPerThread(rows_, pool.threads());
  const int64_t num_chunks = CeilDiv(rows_, grain);
  std::vector<std::vector<Offset>> chunk_counts(
      static_cast<size_t>(num_chunks));

  SPNET_CHECK_OK(pool.ParallelFor(0, rows_, grain,
                   [&](int64_t row_begin, int64_t row_end, int) {
                     std::vector<Offset>& counts =
                         chunk_counts[static_cast<size_t>(row_begin / grain)];
                     counts.assign(static_cast<size_t>(cols_), 0);
                     for (int64_t r = row_begin; r < row_end; ++r) {
                       for (Offset k = ptr_[static_cast<size_t>(r)];
                            k < ptr_[static_cast<size_t>(r) + 1]; ++k) {
                         counts[static_cast<size_t>(
                             indices_[static_cast<size_t>(k)])]++;
                       }
                     }
                     return Status::Ok();
                   }));

  // Scan: column totals into pointers, then per-chunk starting cursors
  // (chunk k writes column c at ptr[c] + sum of earlier chunks' counts).
  std::vector<std::vector<Offset>> chunk_cursor(
      static_cast<size_t>(num_chunks),
      std::vector<Offset>(static_cast<size_t>(cols_)));
  Offset running = 0;
  for (size_t c = 0; c < static_cast<size_t>(cols_); ++c) {
    t.ptr_[c] = running;
    for (size_t k = 0; k < static_cast<size_t>(num_chunks); ++k) {
      chunk_cursor[k][c] = running;
      running += chunk_counts[k][c];
    }
  }
  t.ptr_[static_cast<size_t>(cols_)] = running;

  // Scatter, same chunking as the count pass.
  SPNET_CHECK_OK(pool.ParallelFor(0, rows_, grain,
                   [&](int64_t row_begin, int64_t row_end, int) {
                     std::vector<Offset>& cursor =
                         chunk_cursor[static_cast<size_t>(row_begin / grain)];
                     for (int64_t r = row_begin; r < row_end; ++r) {
                       for (Offset k = ptr_[static_cast<size_t>(r)];
                            k < ptr_[static_cast<size_t>(r) + 1]; ++k) {
                         const Index c = indices_[static_cast<size_t>(k)];
                         const Offset slot = cursor[static_cast<size_t>(c)]++;
                         t.indices_[static_cast<size_t>(slot)] =
                             static_cast<Index>(r);
                         t.values_[static_cast<size_t>(slot)] =
                             values_[static_cast<size_t>(k)];
                       }
                     }
                     return Status::Ok();
                   }));
  return t;
}

void CsrMatrix::SortRows() {
  std::vector<std::pair<Index, Value>> buf;
  for (Index r = 0; r < rows_; ++r) {
    const Offset begin = ptr_[r];
    const Offset end = ptr_[r + 1];
    buf.clear();
    for (Offset k = begin; k < end; ++k) {
      buf.emplace_back(indices_[static_cast<size_t>(k)],
                       values_[static_cast<size_t>(k)]);
    }
    std::sort(buf.begin(), buf.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (Offset k = begin; k < end; ++k) {
      indices_[static_cast<size_t>(k)] = buf[static_cast<size_t>(k - begin)].first;
      values_[static_cast<size_t>(k)] = buf[static_cast<size_t>(k - begin)].second;
    }
  }
}

bool CsrMatrix::RowsSorted() const {
  for (Index r = 0; r < rows_; ++r) {
    for (Offset k = ptr_[r] + 1; k < ptr_[r + 1]; ++k) {
      if (indices_[static_cast<size_t>(k - 1)] >=
          indices_[static_cast<size_t>(k)]) {
        return false;
      }
    }
  }
  return true;
}

Status CsrMatrix::Validate() const {
  if (rows_ < 0 || cols_ < 0) {
    return Status::InvalidArgument("negative dimension");
  }
  if (ptr_.size() != static_cast<size_t>(rows_) + 1) {
    return Status::InvalidArgument(
        "ptr size " + std::to_string(ptr_.size()) + " != rows+1 " +
        std::to_string(rows_ + 1));
  }
  if (!ptr_.empty() && ptr_.front() != 0) {
    return Status::InvalidArgument("ptr[0] != 0");
  }
  for (size_t r = 0; r + 1 < ptr_.size(); ++r) {
    if (ptr_[r] > ptr_[r + 1]) {
      return Status::InvalidArgument("ptr not monotone at row " +
                                     std::to_string(r));
    }
  }
  if (!ptr_.empty() &&
      ptr_.back() != static_cast<Offset>(indices_.size())) {
    return Status::InvalidArgument("ptr.back() != indices.size()");
  }
  if (indices_.size() != values_.size()) {
    return Status::InvalidArgument("indices/values size mismatch");
  }
  // Each chunk reports its first bad position and the lowest chunk's
  // wins, so the error names the same index for any thread count.
  ThreadPool& pool = GlobalThreadPool();
  const int64_t n = static_cast<int64_t>(indices_.size());
  const int64_t bad = pool.ParallelReduce(
      0, n, std::max(kValidateGrain, GrainForItems(n, pool.threads())),
      int64_t{-1},
      [&](int64_t begin, int64_t end, int) {
        for (int64_t k = begin; k < end; ++k) {
          const Index c = indices_[static_cast<size_t>(k)];
          if (c < 0 || c >= cols_) return k;
        }
        return int64_t{-1};
      },
      [](int64_t first, int64_t chunk) { return first >= 0 ? first : chunk; });
  if (bad >= 0) {
    return Status::OutOfRange(
        "column index " + std::to_string(indices_[static_cast<size_t>(bad)]) +
        " out of [0, " + std::to_string(cols_) + ")");
  }
  return Status::Ok();
}

CooMatrix CsrMatrix::ToCoo() const {
  CooMatrix coo(rows_, cols_);
  coo.Reserve(nnz());
  for (Index r = 0; r < rows_; ++r) {
    for (Offset k = ptr_[r]; k < ptr_[r + 1]; ++k) {
      coo.Add(r, indices_[static_cast<size_t>(k)],
              values_[static_cast<size_t>(k)]);
    }
  }
  return coo;
}

CscMatrix CscMatrix::FromCsr(const CsrMatrix& a) {
  CscMatrix m;
  m.rows_ = a.rows();
  m.cols_ = a.cols();
  m.t_ = a.Transpose();
  return m;
}

bool CsrApproxEqual(const CsrMatrix& a, const CsrMatrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  std::vector<Value> acc(static_cast<size_t>(a.cols()), 0.0);
  std::vector<bool> touched(static_cast<size_t>(a.cols()), false);
  for (Index r = 0; r < a.rows(); ++r) {
    const SpanView ra = a.Row(r);
    const SpanView rb = b.Row(r);
    // Accumulate row r of a (duplicates tolerated), subtract row r of b,
    // then verify that every touched position is ~0.
    std::vector<Index> touched_cols;
    for (Offset k = 0; k < ra.size; ++k) {
      const Index c = ra.indices[k];
      if (!touched[static_cast<size_t>(c)]) {
        touched[static_cast<size_t>(c)] = true;
        touched_cols.push_back(c);
      }
      acc[static_cast<size_t>(c)] += ra.values[k];
    }
    for (Offset k = 0; k < rb.size; ++k) {
      const Index c = rb.indices[k];
      if (!touched[static_cast<size_t>(c)]) {
        touched[static_cast<size_t>(c)] = true;
        touched_cols.push_back(c);
      }
      acc[static_cast<size_t>(c)] -= rb.values[k];
    }
    bool row_ok = true;
    for (Index c : touched_cols) {
      if (std::fabs(acc[static_cast<size_t>(c)]) > tol) row_ok = false;
      acc[static_cast<size_t>(c)] = 0.0;
      touched[static_cast<size_t>(c)] = false;
    }
    if (!row_ok) return false;
  }
  return true;
}

}  // namespace sparse
}  // namespace spnet
