#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "sparse/serialization.h"
#include "tests/test_util.h"

namespace spnet {
namespace sparse {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SerializationTest, RoundTripExact) {
  const CsrMatrix m = testing_util::SkewedMatrix(120, 80, 21);
  const std::string path = TempPath("roundtrip.spnb");
  ASSERT_TRUE(WriteBinary(m, path).ok());
  auto back = ReadBinary(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->rows(), m.rows());
  EXPECT_EQ(back->cols(), m.cols());
  EXPECT_EQ(back->nnz(), m.nnz());
  // Bit-exact: same arrays, not just approximate equality.
  EXPECT_EQ(back->ptr(), m.ptr());
  EXPECT_EQ(back->indices(), m.indices());
  EXPECT_EQ(back->values(), m.values());
  std::remove(path.c_str());
}

TEST(SerializationTest, EmptyMatrix) {
  CooMatrix coo(5, 7);
  auto m = CsrMatrix::FromCoo(coo);
  const std::string path = TempPath("empty.spnb");
  ASSERT_TRUE(WriteBinary(*m, path).ok());
  auto back = ReadBinary(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows(), 5);
  EXPECT_EQ(back->cols(), 7);
  EXPECT_EQ(back->nnz(), 0);
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsBadMagic) {
  const std::string path = TempPath("bad_magic.spnb");
  std::ofstream out(path, std::ios::binary);
  out << "not a matrix file at all, just text";
  out.close();
  auto r = ReadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsTruncatedFile) {
  const CsrMatrix m = testing_util::RandomMatrix(50, 50, 0.1, 5);
  const std::string path = TempPath("truncated.spnb");
  ASSERT_TRUE(WriteBinary(m, path).ok());
  // Chop off the tail.
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size() / 2));
  out.close();
  auto r = ReadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

/// Writes a bare SPNB header (magic, version, rows, cols, nnz) plus the
/// `extra` bytes after it.
void WriteHeader(const std::string& path, int64_t rows, int64_t cols,
                 int64_t nnz, const std::string& extra) {
  std::ofstream out(path, std::ios::binary);
  const uint32_t magic = 0x424E5053;
  const uint32_t version = 1;
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
  out.write(reinterpret_cast<const char*>(&nnz), sizeof(nnz));
  out.write(extra.data(), static_cast<std::streamsize>(extra.size()));
}

TEST(SerializationTest, HugeNnzHeaderIsTruncatedNotAllocated) {
  // 40 bytes: the header and ptr[0] of a 0-row matrix claiming 2^40
  // nonzeros. Allocating from the header would throw std::bad_alloc.
  const std::string path = TempPath("huge_nnz.spnb");
  WriteHeader(path, 0, 4, int64_t{1} << 40, std::string(8, '\0'));
  auto r = ReadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(SerializationTest, UnrepresentableNnzHeaderIsInvalid) {
  const std::string path = TempPath("overflow_nnz.spnb");
  WriteHeader(path, 4, 4, std::numeric_limits<int64_t>::max(), "");
  auto r = ReadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsCorruptedStructure) {
  const CsrMatrix m = testing_util::RandomMatrix(30, 30, 0.1, 6);
  const std::string path = TempPath("corrupt.spnb");
  ASSERT_TRUE(WriteBinary(m, path).ok());
  // Flip a pointer entry so the monotone invariant breaks.
  std::fstream f(path,
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(32 + 8);  // header (32B) + ptr[1]
  const int64_t bogus = -5;
  f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  f.close();
  EXPECT_FALSE(ReadBinary(path).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFile) {
  auto r = ReadBinary("/nonexistent/dir/matrix.spnb");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace sparse
}  // namespace spnet
