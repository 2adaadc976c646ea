#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.h"
#include "sparse/coo_matrix.h"
#include "sparse/csr_matrix.h"
#include "tests/test_util.h"

namespace spnet {
namespace sparse {
namespace {

CsrMatrix Make3x4() {
  // [ 1 0 2 0 ]
  // [ 0 0 0 3 ]
  // [ 4 5 0 0 ]
  CooMatrix coo(3, 4);
  coo.Add(0, 0, 1.0);
  coo.Add(0, 2, 2.0);
  coo.Add(1, 3, 3.0);
  coo.Add(2, 0, 4.0);
  coo.Add(2, 1, 5.0);
  auto r = CsrMatrix::FromCoo(coo);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

TEST(CooMatrixTest, SortAndCombineSumsDuplicates) {
  CooMatrix coo(2, 2);
  coo.Add(1, 1, 2.0);
  coo.Add(0, 0, 1.0);
  coo.Add(1, 1, 3.0);
  coo.SortAndCombine();
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.row_indices()[0], 0);
  EXPECT_EQ(coo.col_indices()[0], 0);
  EXPECT_DOUBLE_EQ(coo.values()[1], 5.0);
}

TEST(CooMatrixTest, ValidateCatchesOutOfBounds) {
  CooMatrix coo(2, 2);
  coo.Add(2, 0, 1.0);
  EXPECT_FALSE(coo.Validate().ok());
  CooMatrix neg(2, 2);
  neg.Add(0, -1, 1.0);
  EXPECT_FALSE(neg.Validate().ok());
}

TEST(CsrMatrixTest, FromCooBasicShape) {
  CsrMatrix m = Make3x4();
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.nnz(), 5);
  EXPECT_EQ(m.RowNnz(0), 2);
  EXPECT_EQ(m.RowNnz(1), 1);
  EXPECT_EQ(m.RowNnz(2), 2);
  EXPECT_TRUE(m.RowsSorted());
  EXPECT_TRUE(m.Validate().ok());
}

TEST(CsrMatrixTest, RowViewContents) {
  CsrMatrix m = Make3x4();
  SpanView row = m.Row(2);
  ASSERT_EQ(row.size, 2);
  EXPECT_EQ(row.indices[0], 0);
  EXPECT_EQ(row.indices[1], 1);
  EXPECT_DOUBLE_EQ(row.values[0], 4.0);
  EXPECT_DOUBLE_EQ(row.values[1], 5.0);
}

TEST(CsrMatrixTest, FromCooSumsDuplicates) {
  CooMatrix coo(2, 2);
  coo.Add(0, 1, 1.5);
  coo.Add(0, 1, 2.5);
  auto m = CsrMatrix::FromCoo(coo);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->nnz(), 1);
  EXPECT_DOUBLE_EQ(m->Row(0).values[0], 4.0);
}

TEST(CsrMatrixTest, FromCooRejectsBadTriplets) {
  CooMatrix coo(2, 2);
  coo.Add(0, 5, 1.0);
  EXPECT_FALSE(CsrMatrix::FromCoo(coo).ok());
}

TEST(CsrMatrixTest, FromPartsValidates) {
  // ptr not monotone.
  auto bad = CsrMatrix::FromParts(2, 2, {0, 2, 1}, {0, 1}, {1.0, 2.0});
  EXPECT_FALSE(bad.ok());
  // index out of range.
  auto oob = CsrMatrix::FromParts(2, 2, {0, 1, 2}, {0, 7}, {1.0, 2.0});
  EXPECT_FALSE(oob.ok());
  // size mismatch.
  auto mism = CsrMatrix::FromParts(2, 2, {0, 1, 2}, {0, 1}, {1.0});
  EXPECT_FALSE(mism.ok());
  // good.
  auto good = CsrMatrix::FromParts(2, 2, {0, 1, 2}, {0, 1}, {1.0, 2.0});
  EXPECT_TRUE(good.ok());
}

TEST(CsrMatrixTest, ValidateReportsFirstBadColumnAtAnyThreadCount) {
  // Two out-of-range columns in different chunks of the parallel range
  // check. The first in storage order sits at the end of chunk 1 and the
  // second at the start of chunk 3, so a thread that reports whatever it
  // finds first would name the second.
  const int64_t grain = CsrMatrix::kValidateGrain;
  const Index rows = 1024;
  const Index cols = 64;
  const int64_t nnz = 4 * grain;
  std::vector<Offset> ptr(static_cast<size_t>(rows) + 1);
  for (Index r = 0; r <= rows; ++r) {
    ptr[static_cast<size_t>(r)] = nnz / rows * r;
  }
  std::vector<Index> indices(static_cast<size_t>(nnz));
  for (int64_t k = 0; k < nnz; ++k) {
    indices[static_cast<size_t>(k)] = static_cast<Index>(k % cols);
  }
  indices[static_cast<size_t>(2 * grain - 1)] = cols + 7;
  indices[static_cast<size_t>(3 * grain)] = -2;
  const std::vector<Value> values(static_cast<size_t>(nnz), 1.0);
  for (int threads : {1, 2, 4, 7}) {
    SetGlobalThreadCount(threads);
    auto m = CsrMatrix::FromParts(rows, cols, ptr, indices, values);
    ASSERT_FALSE(m.ok()) << threads << " threads";
    EXPECT_EQ(m.status().code(), StatusCode::kOutOfRange);
    EXPECT_NE(m.status().message().find("column index 71 "),
              std::string::npos)
        << threads << " threads: " << m.status().ToString();
  }
  SetGlobalThreadCount(0);
}

TEST(CsrMatrixTest, TransposeRoundTrip) {
  CsrMatrix m = Make3x4();
  CsrMatrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 4);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.nnz(), m.nnz());
  EXPECT_TRUE(t.RowsSorted());
  CsrMatrix back = t.Transpose();
  EXPECT_TRUE(CsrApproxEqual(m, back));
}

TEST(CsrMatrixTest, TransposeValues) {
  CsrMatrix m = Make3x4();
  CsrMatrix t = m.Transpose();
  // Column 0 of m had (0,1.0) and (2,4.0).
  SpanView r0 = t.Row(0);
  ASSERT_EQ(r0.size, 2);
  EXPECT_EQ(r0.indices[0], 0);
  EXPECT_DOUBLE_EQ(r0.values[0], 1.0);
  EXPECT_EQ(r0.indices[1], 2);
  EXPECT_DOUBLE_EQ(r0.values[1], 4.0);
}

TEST(CsrMatrixTest, SortRowsRestoresOrder) {
  auto m = CsrMatrix::FromParts(1, 4, {0, 3}, {2, 0, 3}, {2.0, 1.0, 3.0});
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->RowsSorted());
  m->SortRows();
  EXPECT_TRUE(m->RowsSorted());
  EXPECT_EQ(m->Row(0).indices[0], 0);
  EXPECT_DOUBLE_EQ(m->Row(0).values[0], 1.0);
  EXPECT_EQ(m->Row(0).indices[2], 3);
}

TEST(CsrMatrixTest, ToCooRoundTrip) {
  CsrMatrix m = Make3x4();
  auto back = CsrMatrix::FromCoo(m.ToCoo());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(CsrApproxEqual(m, *back));
}

TEST(CsrMatrixTest, EmptyMatrix) {
  CooMatrix coo(0, 0);
  auto m = CsrMatrix::FromCoo(coo);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->rows(), 0);
  EXPECT_EQ(m->nnz(), 0);
  CsrMatrix t = m->Transpose();
  EXPECT_EQ(t.rows(), 0);
}

TEST(CsrMatrixTest, EmptyRowsAllowed) {
  CooMatrix coo(5, 5);
  coo.Add(2, 2, 1.0);
  auto m = CsrMatrix::FromCoo(coo);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->RowNnz(0), 0);
  EXPECT_EQ(m->RowNnz(2), 1);
  EXPECT_EQ(m->RowNnz(4), 0);
}

TEST(CscMatrixTest, ColumnsMatchTransposedRows) {
  CsrMatrix m = Make3x4();
  CscMatrix csc = CscMatrix::FromCsr(m);
  EXPECT_EQ(csc.rows(), 3);
  EXPECT_EQ(csc.cols(), 4);
  EXPECT_EQ(csc.nnz(), m.nnz());
  EXPECT_EQ(csc.ColNnz(0), 2);
  EXPECT_EQ(csc.ColNnz(2), 1);
  SpanView c0 = csc.Col(0);
  EXPECT_EQ(c0.indices[0], 0);  // row positions
  EXPECT_EQ(c0.indices[1], 2);
  EXPECT_DOUBLE_EQ(c0.values[1], 4.0);
}

TEST(CsrApproxEqualTest, ToleratesUnorderedRows) {
  auto a = CsrMatrix::FromParts(1, 4, {0, 2}, {0, 3}, {1.0, 2.0});
  auto b = CsrMatrix::FromParts(1, 4, {0, 2}, {3, 0}, {2.0, 1.0});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(CsrApproxEqual(*a, *b));
}

TEST(CsrApproxEqualTest, ToleratesDuplicateRepresentation) {
  // a stores 5 at (0,1); b stores it as 2 + 3.
  auto a = CsrMatrix::FromParts(1, 2, {0, 1}, {1}, {5.0});
  auto b = CsrMatrix::FromParts(1, 2, {0, 2}, {1, 1}, {2.0, 3.0});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(CsrApproxEqual(*a, *b));
}

TEST(CsrApproxEqualTest, DetectsValueMismatch) {
  auto a = CsrMatrix::FromParts(1, 2, {0, 1}, {1}, {5.0});
  auto b = CsrMatrix::FromParts(1, 2, {0, 1}, {1}, {5.1});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(CsrApproxEqual(*a, *b));
  EXPECT_TRUE(CsrApproxEqual(*a, *b, 0.2));
}

TEST(CsrApproxEqualTest, DetectsStructureMismatch) {
  auto a = CsrMatrix::FromParts(1, 3, {0, 1}, {1}, {5.0});
  auto b = CsrMatrix::FromParts(1, 3, {0, 1}, {2}, {5.0});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(CsrApproxEqual(*a, *b));
}

TEST(CsrApproxEqualTest, ShapeMismatch) {
  auto a = CsrMatrix::FromParts(1, 3, {0, 0}, {}, {});
  auto b = CsrMatrix::FromParts(1, 2, {0, 0}, {}, {});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(CsrApproxEqual(*a, *b));
}

TEST(CsrMatrixTest, RandomTransposeInvolution) {
  const CsrMatrix m = testing_util::RandomMatrix(37, 53, 0.08, 99);
  EXPECT_TRUE(CsrApproxEqual(m, m.Transpose().Transpose()));
}

}  // namespace
}  // namespace sparse
}  // namespace spnet
