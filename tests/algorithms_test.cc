#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/suite.h"
#include "datasets/generators.h"
#include "spgemm/algorithm.h"
#include "spgemm/functional.h"
#include "sparse/reference_spgemm.h"
#include "sparse/stats.h"
#include "tests/test_util.h"

namespace spnet {
namespace spgemm {
namespace {

using sparse::CsrMatrix;

// One generated input per row: the functional correctness sweep runs
// every algorithm against the reference on each of these.
struct MatrixCase {
  const char* name;
  CsrMatrix (*make)(uint64_t seed);
};

CsrMatrix MakeUniform(uint64_t seed) {
  return testing_util::RandomMatrix(120, 120, 0.04, seed);
}
CsrMatrix MakeSkewed(uint64_t seed) {
  return testing_util::SkewedMatrix(150, 90, seed);
}
CsrMatrix MakeRmat(uint64_t seed) {
  datasets::RmatParams p;
  p.scale = 8;
  p.edge_count = 1200;
  p.seed = seed;
  auto m = datasets::GenerateRmat(p);
  SPNET_CHECK(m.ok());
  return std::move(m).value();
}
CsrMatrix MakeBanded(uint64_t seed) {
  datasets::QuasiRegularParams p;
  p.n = 200;
  p.nnz = 2400;
  p.seed = seed;
  auto m = datasets::GenerateQuasiRegular(p);
  SPNET_CHECK(m.ok());
  return std::move(m).value();
}
CsrMatrix MakeEmptyRows(uint64_t seed) {
  // Half the rows empty; exercises zero-work pairs.
  Rng rng(seed);
  sparse::CooMatrix coo(100, 100);
  for (int r = 0; r < 100; r += 2) {
    for (int k = 0; k < 4; ++k) {
      coo.Add(r, static_cast<sparse::Index>(rng.NextBounded(100)), 1.0);
    }
  }
  auto m = CsrMatrix::FromCoo(coo);
  SPNET_CHECK(m.ok());
  return std::move(m).value();
}

const MatrixCase kCases[] = {
    {"uniform", MakeUniform},  {"skewed", MakeSkewed},
    {"rmat", MakeRmat},        {"banded", MakeBanded},
    {"empty_rows", MakeEmptyRows},
};

using CaseAlgParam = std::tuple<int, int>;

const char* const kAlgNames[] = {"row_product", "outer_product", "cusparse",
                                 "cusp",        "bhsparse",      "mkl",
                                 "block_reorganizer"};

class AlgorithmCorrectnessTest
    : public ::testing::TestWithParam<CaseAlgParam> {};

TEST_P(AlgorithmCorrectnessTest, SquareMatchesReference) {
  const auto [case_idx, alg_idx] = GetParam();
  const CsrMatrix a = kCases[case_idx].make(1000 + case_idx);
  const auto algorithms = core::MakeAllAlgorithms();
  ASSERT_LT(static_cast<size_t>(alg_idx), algorithms.size());
  const auto& alg = algorithms[static_cast<size_t>(alg_idx)];

  auto expected = sparse::ReferenceSpGemm(a, a);
  ASSERT_TRUE(expected.ok());
  auto got = alg->Compute(a, a);
  ASSERT_TRUE(got.ok()) << alg->name() << ": " << got.status().ToString();
  EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-9))
      << alg->name() << " on " << kCases[case_idx].name;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllCases, AlgorithmCorrectnessTest,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 7)),
    [](const ::testing::TestParamInfo<CaseAlgParam>& param_info) {
      return std::string(kCases[std::get<0>(param_info.param)].name) + "_" +
             kAlgNames[std::get<1>(param_info.param)];
    });

class RectangularProductTest : public ::testing::TestWithParam<int> {};

TEST_P(RectangularProductTest, AbMatchesReference) {
  const CsrMatrix a = testing_util::RandomMatrix(70, 110, 0.05, 7);
  const CsrMatrix b = testing_util::RandomMatrix(110, 50, 0.06, 8);
  const auto algorithms = core::MakeAllAlgorithms();
  const auto& alg = algorithms[static_cast<size_t>(GetParam())];
  auto expected = sparse::ReferenceSpGemm(a, b);
  auto got = alg->Compute(a, b);
  ASSERT_TRUE(expected.ok() && got.ok()) << alg->name();
  EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-9)) << alg->name();
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, RectangularProductTest,
                         ::testing::Range(0, 7));

TEST(FunctionalTest, ExpandMergeOnEmptyMatrix) {
  sparse::CooMatrix coo(16, 16);
  auto a = CsrMatrix::FromCoo(coo);
  ASSERT_TRUE(a.ok());
  const std::vector<sparse::Index> reversed = {3, 2, 1, 0};
  auto natural = ExpandMerge(*a, *a);
  auto ordered = ExpandMerge(*a, *a, reversed);
  ASSERT_TRUE(natural.ok() && ordered.ok());
  EXPECT_EQ(natural->nnz(), 0);
  EXPECT_EQ(ordered->nnz(), 0);
}

TEST(FunctionalTest, ExpandMergeOrderChangesLayoutNotProduct) {
  const CsrMatrix a = testing_util::RandomMatrix(40, 30, 0.2, 5);
  const CsrMatrix b = testing_util::RandomMatrix(30, 35, 0.2, 6);
  std::vector<sparse::Index> reversed;
  for (sparse::Index i = a.cols() - 1; i >= 0; --i) reversed.push_back(i);
  // A partial order: the listed pairs go first, the rest follow.
  const std::vector<sparse::Index> partial = {7, 3, 29};
  auto expected = sparse::ReferenceSpGemm(a, b);
  ASSERT_TRUE(expected.ok());
  for (const auto& order : {std::vector<sparse::Index>{}, reversed, partial}) {
    auto got = ExpandMerge(a, b, order);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-12));
  }
}

TEST(FunctionalTest, ExpandMergeRejectsBadPairOrder) {
  const CsrMatrix a = testing_util::RandomMatrix(8, 6, 0.4, 9);
  const std::vector<sparse::Index> out_of_range = {0, 6};
  const std::vector<sparse::Index> negative = {-1};
  const std::vector<sparse::Index> repeated = {2, 1, 2};
  const std::vector<sparse::Index> too_long = {0, 1, 2, 3, 4, 5, 0};
  for (const auto& order : {out_of_range, negative, repeated, too_long}) {
    auto got = ExpandMerge(a, testing_util::RandomMatrix(6, 5, 0.4, 10),
                           order);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FunctionalTest, ChatOffsetsRefuseUnaddressableTotals) {
  auto ok = ChatOffsets({2, 0, 3});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, (std::vector<sparse::Offset>{0, 2, 2, 5}));
  const int64_t max = std::numeric_limits<int64_t>::max();
  // Saturating int64 total: the count is only a lower bound.
  auto saturated = ChatOffsets({max / 2 + 1, max / 2 + 1});
  ASSERT_FALSE(saturated.ok());
  EXPECT_EQ(saturated.status().code(), StatusCode::kResourceExhausted);
  // Representable count whose (column, value) bytes overflow size_t.
  auto too_big = ChatOffsets({max / 4});
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);
}

TEST(FunctionalTest, DimensionMismatchRejectedEverywhere) {
  const CsrMatrix a = testing_util::RandomMatrix(10, 12, 0.3, 1);
  const CsrMatrix b = testing_util::RandomMatrix(10, 12, 0.3, 2);
  for (const auto& alg : core::MakeAllAlgorithms()) {
    EXPECT_FALSE(alg->Compute(a, b).ok()) << alg->name();
    EXPECT_FALSE(alg->Plan(a, b, gpusim::DeviceSpec::TitanXp()).ok())
        << alg->name();
  }
}

TEST(PlanTest, AllAlgorithmsProduceConsistentFlops) {
  const CsrMatrix a = testing_util::SkewedMatrix(200, 120, 90);
  const int64_t flops = sparse::SpGemmFlops(a, a);
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  for (const auto& alg : core::MakeAllAlgorithms()) {
    auto plan = alg->Plan(a, a, device);
    ASSERT_TRUE(plan.ok()) << alg->name();
    EXPECT_EQ(plan->flops, flops) << alg->name();
    EXPECT_GT(plan->output_nnz, 0) << alg->name();
  }
}

TEST(MeasureTest, ProducesPositiveTimings) {
  const CsrMatrix a = testing_util::SkewedMatrix(200, 120, 91);
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  for (const auto& alg : core::MakeAllAlgorithms()) {
    auto m = Measure(*alg, a, a, device);
    ASSERT_TRUE(m.ok()) << alg->name();
    EXPECT_GT(m->total_seconds, 0.0) << alg->name();
    EXPECT_GT(m->Gflops(), 0.0) << alg->name();
    EXPECT_GE(m->total_seconds, m->stats.seconds) << alg->name();
  }
}

TEST(MeasureTest, PhaseSplitCoversDeviceTime) {
  const CsrMatrix a = testing_util::SkewedMatrix(300, 200, 92);
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  const auto outer = MakeOuterProduct();
  auto m = Measure(*outer, a, a, device);
  ASSERT_TRUE(m.ok());
  EXPECT_GT(m->expansion.cycles, 0.0);
  EXPECT_GT(m->merge.cycles, 0.0);
  EXPECT_NEAR(m->expansion.cycles + m->merge.cycles, m->stats.cycles,
              1e-6 + 0.01 * m->stats.cycles);
}

}  // namespace
}  // namespace spgemm
}  // namespace spnet
