#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/block_reorganizer.h"
#include "datasets/generators.h"
#include "gpusim/device_spec.h"
#include "gpusim/kernel_desc.h"
#include "sparse/reference_spgemm.h"
#include "tests/test_util.h"

namespace spnet {
namespace core {
namespace {

using sparse::CsrMatrix;

ReorganizerConfig ConfigFromMask(int mask) {
  ReorganizerConfig config;
  config.enable_splitting = (mask & 1) != 0;
  config.enable_gathering = (mask & 2) != 0;
  config.enable_limiting = (mask & 4) != 0;
  return config;
}

/// Property sweep: every combination of technique toggles must produce the
/// exact reference product on both skewed and regular inputs.
using MaskSkewParam = std::tuple<int, bool>;

class ReorganizerToggleTest
    : public ::testing::TestWithParam<MaskSkewParam> {};

TEST_P(ReorganizerToggleTest, ComputeMatchesReference) {
  const auto [mask, skewed] = GetParam();
  const CsrMatrix a = skewed
                          ? testing_util::SkewedMatrix(220, 130, 7)
                          : testing_util::RandomMatrix(180, 180, 0.03, 7);
  BlockReorganizerSpGemm alg(ConfigFromMask(mask));
  auto expected = sparse::ReferenceSpGemm(a, a);
  auto got = alg.Compute(a, a);
  ASSERT_TRUE(expected.ok() && got.ok());
  EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-9)) << "mask " << mask;
}

INSTANTIATE_TEST_SUITE_P(
    AllToggles, ReorganizerToggleTest,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Bool()),
    [](const ::testing::TestParamInfo<MaskSkewParam>& param_info) {
      return "mask" + std::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_skewed" : "_uniform");
    });

/// Splitting-factor sweep: the mapper/pointer transformation must be
/// results-neutral for every factor (the Figure 11 sweep relies on this).
class SplittingFactorTest : public ::testing::TestWithParam<int> {};

TEST_P(SplittingFactorTest, ComputeMatchesReference) {
  ReorganizerConfig config;
  config.splitting_factor_override = GetParam();
  const CsrMatrix a = testing_util::SkewedMatrix(250, 160, 13);
  BlockReorganizerSpGemm alg(config);
  auto expected = sparse::ReferenceSpGemm(a, a);
  auto got = alg.Compute(a, a);
  ASSERT_TRUE(expected.ok() && got.ok());
  EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Factors, SplittingFactorTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

/// Device independence: a split vector's fragments are dispatched
/// consecutively and in dominator order, so B-Splitting never changes the
/// order any output row meets its pairs. Compute output must therefore be
/// bit-identical for every splitting factor (0 derives it from a device)
/// and with splitting off: no device may leak into the host path.
TEST(ReorganizerTest, ComputeIsBitIdenticalForEverySplitShape) {
  // Hub-aligned power law: several dominators whose rows also reach
  // normal pairs, so a split-dependent dispatch order would show.
  datasets::PowerLawParams params;
  params.rows = params.cols = 800;
  params.nnz = 9000;
  params.seed = 13;
  auto generated = datasets::GeneratePowerLaw(params);
  ASSERT_TRUE(generated.ok());
  const CsrMatrix& a = *generated;
  const BlockReorganizerSpGemm base;
  auto report = base.Analyze(a, a, gpusim::DeviceSpec::TitanXp());
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->dominators, 1) << "input must exercise B-Splitting";
  auto expected = base.Compute(a, a);
  ASSERT_TRUE(expected.ok());
  for (bool splitting : {true, false}) {
    for (int factor : {0, 1, 2, 64}) {
      ReorganizerConfig config;
      config.enable_splitting = splitting;
      config.splitting_factor_override = factor;
      auto got = BlockReorganizerSpGemm(config).Compute(a, a);
      ASSERT_TRUE(got.ok());
      const std::string label = "splitting " + std::to_string(splitting) +
                                ", factor " + std::to_string(factor);
      EXPECT_EQ(expected->ptr(), got->ptr()) << label;
      EXPECT_EQ(expected->indices(), got->indices()) << label;
      EXPECT_EQ(expected->values(), got->values()) << label;
    }
  }
}

TEST(ReorganizerTest, RectangularProduct) {
  const CsrMatrix a = testing_util::RandomMatrix(90, 140, 0.05, 17);
  const CsrMatrix b = testing_util::RandomMatrix(140, 60, 0.05, 18);
  BlockReorganizerSpGemm alg;
  auto expected = sparse::ReferenceSpGemm(a, b);
  auto got = alg.Compute(a, b);
  ASSERT_TRUE(expected.ok() && got.ok());
  EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-9));
}

TEST(ReorganizerTest, AnalyzeCountsAreConsistent) {
  const CsrMatrix a = testing_util::SkewedMatrix(500, 400, 19);
  BlockReorganizerSpGemm alg;
  auto report = alg.Analyze(a, a, gpusim::DeviceSpec::TitanXp());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->nonzero_pairs, report->dominators +
                                       report->low_performers +
                                       report->normals);
  EXPECT_GT(report->dominators, 0);
  EXPECT_GT(report->low_performers, 0);
  EXPECT_GE(report->fragments, report->dominators);
  EXPECT_LE(report->combined_blocks, report->gathered_pairs);
  EXPECT_GT(report->limited_rows, 0);
}

TEST(ReorganizerTest, DisabledTechniquesReportZero) {
  const CsrMatrix a = testing_util::SkewedMatrix(400, 300, 21);
  ReorganizerConfig off;
  off.enable_splitting = false;
  off.enable_gathering = false;
  BlockReorganizerSpGemm alg(off);
  auto report = alg.Analyze(a, a, gpusim::DeviceSpec::TitanXp());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->fragments, 0);
  EXPECT_EQ(report->combined_blocks, 0);
  EXPECT_EQ(report->gathered_pairs, 0);
}

TEST(ReorganizerTest, PlanHasPreprocessExpansionAndMerge) {
  const CsrMatrix a = testing_util::SkewedMatrix(400, 300, 23);
  BlockReorganizerSpGemm alg;
  auto plan = alg.Plan(a, a, gpusim::DeviceSpec::TitanXp());
  ASSERT_TRUE(plan.ok());
  bool has_preprocess = false, has_expansion = false, has_merge = false,
       has_limited = false;
  for (const auto& k : plan->kernels) {
    if (k.phase == gpusim::Phase::kPreprocess) has_preprocess = true;
    if (k.phase == gpusim::Phase::kExpansion) has_expansion = true;
    if (k.phase == gpusim::Phase::kMerge) has_merge = true;
    if (k.label == "merge-limited") has_limited = true;
  }
  EXPECT_TRUE(has_preprocess);
  EXPECT_TRUE(has_expansion);
  EXPECT_TRUE(has_merge);
  EXPECT_TRUE(has_limited);
  EXPECT_GT(plan->host_seconds, 0.0);
}

TEST(ReorganizerTest, ExpansionBlocksCoverAllWork) {
  const CsrMatrix a = testing_util::SkewedMatrix(400, 300, 25);
  for (int mask = 0; mask < 8; ++mask) {
    BlockReorganizerSpGemm alg(ConfigFromMask(mask));
    auto plan = alg.Plan(a, a, gpusim::DeviceSpec::TitanXp());
    ASSERT_TRUE(plan.ok());
    int64_t expansion_work = 0;
    for (const auto& k : plan->kernels) {
      if (k.phase != gpusim::Phase::kExpansion) continue;
      for (const auto& tb : k.blocks) expansion_work += tb.useful_lane_ops;
    }
    EXPECT_EQ(expansion_work, plan->flops) << "mask " << mask;
  }
}

TEST(ReorganizerTest, SplittingShrinksLargestExpansionBlock) {
  const CsrMatrix a = testing_util::SkewedMatrix(400, 300, 27);
  ReorganizerConfig split_off;
  split_off.enable_splitting = false;
  auto max_block_work = [&](const ReorganizerConfig& config) {
    BlockReorganizerSpGemm alg(config);
    auto plan = alg.Plan(a, a, gpusim::DeviceSpec::TitanXp());
    SPNET_CHECK(plan.ok());
    int64_t max_work = 0;
    for (const auto& k : plan->kernels) {
      if (k.phase != gpusim::Phase::kExpansion) continue;
      for (const auto& tb : k.blocks) {
        max_work = std::max(max_work, tb.useful_lane_ops);
      }
    }
    return max_work;
  };
  EXPECT_LT(max_block_work(ReorganizerConfig{}), max_block_work(split_off));
}

TEST(ReorganizerTest, GatheringShrinksExpansionBlockCount) {
  const CsrMatrix a = testing_util::SkewedMatrix(600, 200, 29);
  ReorganizerConfig gather_off;
  gather_off.enable_gathering = false;
  auto block_count = [&](const ReorganizerConfig& config) {
    BlockReorganizerSpGemm alg(config);
    auto plan = alg.Plan(a, a, gpusim::DeviceSpec::TitanXp());
    SPNET_CHECK(plan.ok());
    size_t blocks = 0;
    for (const auto& k : plan->kernels) {
      if (k.phase == gpusim::Phase::kExpansion) blocks += k.blocks.size();
    }
    return blocks;
  };
  EXPECT_LT(block_count(ReorganizerConfig{}), block_count(gather_off));
}

TEST(ReorganizerTest, LimitingRaisesMergeSharedMemory) {
  const CsrMatrix a = testing_util::SkewedMatrix(400, 300, 31);
  ReorganizerConfig config;
  BlockReorganizerSpGemm alg(config);
  auto plan = alg.Plan(a, a, gpusim::DeviceSpec::TitanXp());
  ASSERT_TRUE(plan.ok());
  for (const auto& k : plan->kernels) {
    if (k.label != "merge-limited") continue;
    for (const auto& tb : k.blocks) {
      EXPECT_GE(tb.shared_mem_bytes, config.limiting_extra_shmem);
    }
  }
}

TEST(ReorganizerTest, NamedConfigurations) {
  BlockReorganizerSpGemm defaulted;
  EXPECT_EQ(defaulted.name(), "Block-Reorganizer");
  BlockReorganizerSpGemm named({}, "B-Splitting");
  EXPECT_EQ(named.name(), "B-Splitting");
}

}  // namespace
}  // namespace core
}  // namespace spnet
