#ifndef SPNET_SPARSE_CSR_MATRIX_H_
#define SPNET_SPARSE_CSR_MATRIX_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sparse/coo_matrix.h"
#include "sparse/types.h"

namespace spnet {
namespace sparse {

/// A contiguous view over one compressed row (or column, for CSC).
struct SpanView {
  const Index* indices = nullptr;
  const Value* values = nullptr;
  Offset size = 0;
};

/// Compressed Sparse Row matrix: `ptr` has rows()+1 entries; the nonzeros
/// of row r live at positions [ptr[r], ptr[r+1]) of `indices`/`values`.
///
/// Column indices within a row are kept sorted by the builders in this
/// library, but algorithms that produce unordered output (the Gustavson-
/// style merge, like the paper's) may return unsorted rows; use
/// SortRows() or the comparison helpers that tolerate unordered rows.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from COO; duplicate entries are summed. O(nnz log nnz).
  static Result<CsrMatrix> FromCoo(const CooMatrix& coo);

  /// Builds directly from parts. Validates the invariants.
  static Result<CsrMatrix> FromParts(Index rows, Index cols,
                                     std::vector<Offset> ptr,
                                     std::vector<Index> indices,
                                     std::vector<Value> values);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Offset nnz() const { return ptr_.empty() ? 0 : ptr_.back(); }

  const std::vector<Offset>& ptr() const { return ptr_; }
  const std::vector<Index>& indices() const { return indices_; }
  const std::vector<Value>& values() const { return values_; }

  /// Number of nonzeros in row r.
  Offset RowNnz(Index r) const { return ptr_[r + 1] - ptr_[r]; }

  /// View over row r.
  SpanView Row(Index r) const {
    return SpanView{indices_.data() + ptr_[r], values_.data() + ptr_[r],
                    RowNnz(r)};
  }

  /// Transposed copy (CSR of A^T). O(nnz).
  CsrMatrix Transpose() const;

  /// Sorts the column indices within every row (stable for values).
  void SortRows();

  /// True if every row's column indices are strictly increasing.
  bool RowsSorted() const;

  /// Structural + bounds invariants; returns the first violation in
  /// storage order. The column-range check runs on the global pool in
  /// chunks of at least kValidateGrain indices, so smaller matrices (and
  /// calls from inside pool workers) check inline.
  Status Validate() const;
  static constexpr int64_t kValidateGrain = int64_t{1} << 18;

  /// Converts back to COO triplets.
  CooMatrix ToCoo() const;

  /// Total bytes of the three arrays (for memory-traffic accounting).
  int64_t ByteSize() const {
    return static_cast<int64_t>(ptr_.size() * sizeof(Offset) +
                                indices_.size() * sizeof(Index) +
                                values_.size() * sizeof(Value));
  }

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Offset> ptr_;
  std::vector<Index> indices_;
  std::vector<Value> values_;
};

/// Compressed Sparse Column matrix. Stored as the CSR of the transpose:
/// Col(c) views column c of the logical matrix. This is the "A side" format
/// of the outer-product scheme (a column of A times a row of B).
class CscMatrix {
 public:
  CscMatrix() = default;

  /// Builds the CSC form of `a` (i.e. compresses a's columns). O(nnz).
  static CscMatrix FromCsr(const CsrMatrix& a);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Offset nnz() const { return t_.nnz(); }

  /// Number of nonzeros in column c.
  Offset ColNnz(Index c) const { return t_.RowNnz(c); }

  /// View over column c: indices are the row positions of the nonzeros.
  SpanView Col(Index c) const { return t_.Row(c); }

  const std::vector<Offset>& ptr() const { return t_.ptr(); }
  const std::vector<Index>& indices() const { return t_.indices(); }
  const std::vector<Value>& values() const { return t_.values(); }

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  CsrMatrix t_;  // CSR of the transpose.
};

/// True when a and b have the same shape and the same numeric content,
/// tolerating unordered rows and |delta| <= tol per entry.
bool CsrApproxEqual(const CsrMatrix& a, const CsrMatrix& b,
                    double tol = 1e-9);

}  // namespace sparse
}  // namespace spnet

#endif  // SPNET_SPARSE_CSR_MATRIX_H_
