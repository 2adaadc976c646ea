#include <gtest/gtest.h>

#include "core/suite.h"
#include "datasets/generators.h"
#include "sparse/reference_spgemm.h"
#include "spgemm/algorithm.h"
#include "tests/test_util.h"

namespace spnet {
namespace spgemm {
namespace {

using sparse::CsrMatrix;

class ExtensionAlgorithmTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<SpGemmAlgorithm> Make() const {
    return GetParam() == 0 ? MakeAcSpGemmLike() : MakeNsparseLike();
  }
};

TEST_P(ExtensionAlgorithmTest, MatchesReference) {
  const auto alg = Make();
  for (uint64_t seed : {1u, 2u}) {
    const CsrMatrix a = testing_util::SkewedMatrix(150, 90, seed);
    auto expected = sparse::ReferenceSpGemm(a, a);
    auto got = alg->Compute(a, a);
    ASSERT_TRUE(expected.ok() && got.ok()) << alg->name();
    EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-9)) << alg->name();
  }
}

TEST_P(ExtensionAlgorithmTest, PlanAndMeasure) {
  const auto alg = Make();
  const CsrMatrix a = testing_util::SkewedMatrix(300, 200, 5);
  const auto device = gpusim::DeviceSpec::TitanXp();
  auto plan = alg->Plan(a, a, device);
  ASSERT_TRUE(plan.ok()) << alg->name();
  EXPECT_GT(plan->flops, 0);
  auto m = Measure(*alg, a, a, device);
  ASSERT_TRUE(m.ok());
  EXPECT_GT(m->total_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(BothExtensions, ExtensionAlgorithmTest,
                         ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return param_info.param == 0
                                      ? std::string("acspgemm")
                                      : std::string("nsparse");
                         });

TEST(ExtendedSuiteTest, ContainsNineAlgorithms) {
  const auto suite = core::MakeExtendedSuite();
  ASSERT_EQ(suite.size(), 9u);
  EXPECT_EQ(suite[7]->name(), "AC-spGEMM");
  EXPECT_EQ(suite[8]->name(), "nsparse-hash");
}

TEST(ExtensionBehaviorTest, NsparseFusedMergeWinsOnRegularData) {
  // Its fused hash merge skips the intermediate round trip, so it should
  // beat the unfused row-product on a regular banded input.
  datasets::QuasiRegularParams p;
  p.n = 4000;
  p.nnz = 100000;
  p.seed = 9;
  auto a = datasets::GenerateQuasiRegular(p);
  ASSERT_TRUE(a.ok());
  const auto device = gpusim::DeviceSpec::TitanXp();
  auto row = Measure(*MakeRowProduct(), *a, *a, device);
  auto hash = Measure(*MakeNsparseLike(), *a, *a, device);
  ASSERT_TRUE(row.ok() && hash.ok());
  EXPECT_LT(hash->total_seconds, row->total_seconds);
}

}  // namespace
}  // namespace spgemm
}  // namespace spnet
