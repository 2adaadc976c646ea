#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sparse/matrix_market.h"
#include "tests/test_util.h"

namespace spnet {
namespace sparse {
namespace {

TEST(MatrixMarketTest, ParsesGeneralReal) {
  const std::string content =
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 4 3\n"
      "1 1 1.5\n"
      "2 4 -2.0\n"
      "3 2 0.5\n";
  auto m = ParseMatrixMarket(content);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->rows(), 3);
  EXPECT_EQ(m->cols(), 4);
  EXPECT_EQ(m->nnz(), 3);
  EXPECT_DOUBLE_EQ(m->Row(0).values[0], 1.5);
  EXPECT_EQ(m->Row(1).indices[0], 3);
}

TEST(MatrixMarketTest, ParsesPattern) {
  const std::string content =
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 2\n"
      "2 1\n";
  auto m = ParseMatrixMarket(content);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->Row(0).values[0], 1.0);
  EXPECT_EQ(m->nnz(), 2);
}

TEST(MatrixMarketTest, ExpandsSymmetric) {
  const std::string content =
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 5.0\n"
      "3 3 7.0\n";
  auto m = ParseMatrixMarket(content);
  ASSERT_TRUE(m.ok());
  // (2,1) mirrored to (1,2); diagonal (3,3) not duplicated.
  EXPECT_EQ(m->nnz(), 3);
  EXPECT_DOUBLE_EQ(m->Row(0).values[0], 5.0);
  EXPECT_DOUBLE_EQ(m->Row(1).values[0], 5.0);
  EXPECT_DOUBLE_EQ(m->Row(2).values[0], 7.0);
}

TEST(MatrixMarketTest, RejectsMissingBanner) {
  EXPECT_FALSE(ParseMatrixMarket("3 3 0\n").ok());
  EXPECT_FALSE(ParseMatrixMarket("").ok());
}

TEST(MatrixMarketTest, RejectsUnsupportedFormats) {
  EXPECT_FALSE(
      ParseMatrixMarket("%%MatrixMarket matrix array real general\n2 2\n")
          .ok());
  EXPECT_FALSE(ParseMatrixMarket(
                   "%%MatrixMarket matrix coordinate complex general\n"
                   "1 1 1\n1 1 1.0 2.0\n")
                   .ok());
}

TEST(MatrixMarketTest, RejectsOutOfBoundsEntries) {
  const std::string content =
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n";
  EXPECT_FALSE(ParseMatrixMarket(content).ok());
}

TEST(MatrixMarketTest, RejectsTruncatedEntries) {
  const std::string content =
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n";
  EXPECT_FALSE(ParseMatrixMarket(content).ok());
}

TEST(MatrixMarketTest, HugeEntryCountIsTruncatedNotAllocated) {
  // The size line claims 2^40 entries; reserving that many would throw
  // std::bad_alloc. The parser must reach the missing entries instead.
  auto m = ParseMatrixMarket(
      "%%MatrixMarket matrix coordinate real general\n"
      "4 4 1099511627776\n"
      "1 1 1.0");
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kIoError);
  EXPECT_NE(m.status().message().find("unexpected end of entries"),
            std::string::npos)
      << m.status().ToString();

  // Symmetric doubling of the largest count must not overflow either.
  auto s = ParseMatrixMarket(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "4 4 9223372036854775807\n"
      "1 1 1.0\n");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kIoError);
}

TEST(MatrixMarketTest, OversizedHeaderIsOutOfRange) {
  // Dimensions beyond the 32-bit Index range must be rejected up front
  // instead of wrapping when narrowed.
  const std::string content =
      "%%MatrixMarket matrix coordinate real general\n"
      "4294967296 4294967296 1\n"
      "1 1 1.0\n";
  auto m = ParseMatrixMarket(content);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kOutOfRange);

  // One dimension in range does not excuse the other.
  auto n = ParseMatrixMarket(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 3000000000 1\n"
      "1 1 1.0\n");
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kOutOfRange);
}

TEST(MatrixMarketTest, CommentOnlyFileIsInvalidArgument) {
  const std::string content =
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment one\n"
      "% comment two\n";
  auto m = ParseMatrixMarket(content);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

TEST(MatrixMarketTest, ParsesCrlfLineEndings) {
  const std::string content =
      "%%MatrixMarket matrix coordinate real general\r\n"
      "% exported on windows\r\n"
      "2 2 2\r\n"
      "1 1 1.0\r\n"
      "2 2 2.0\r\n";
  auto m = ParseMatrixMarket(content);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->rows(), 2);
  EXPECT_EQ(m->nnz(), 2);
  EXPECT_DOUBLE_EQ(m->Row(1).values[0], 2.0);
}

TEST(MatrixMarketTest, NegativeCharBannerFailsGracefully) {
  // Bytes >= 0x80 are negative as plain char; classification must not
  // hit undefined behaviour and the banner must simply be rejected.
  std::string content =
      "%%MatrixMarket matrix coordinate real general\n"
      "1 1 1\n"
      "1 1 1.0\n";
  content[15] = static_cast<char>(0xE9);  // corrupt "matrix" with é
  auto m = ParseMatrixMarket(content);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kUnimplemented);
}

TEST(MatrixMarketTest, FileRoundTrip) {
  const CsrMatrix m = testing_util::RandomMatrix(17, 23, 0.15, 5);
  const std::string path = ::testing::TempDir() + "/roundtrip.mtx";
  ASSERT_TRUE(WriteMatrixMarket(m, path).ok());
  auto back = ReadMatrixMarket(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(CsrApproxEqual(m, *back, 1e-6));
  std::remove(path.c_str());
}

TEST(MatrixMarketTest, ReadMissingFileFails) {
  auto r = ReadMatrixMarket("/nonexistent/path/to/matrix.mtx");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace sparse
}  // namespace spnet
