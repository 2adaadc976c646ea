#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/block_reorganizer.h"
#include "core/workload_classifier.h"
#include "datasets/generators.h"
#include "engine/batch_runner.h"
#include "gpusim/device_spec.h"
#include "sparse/coo_matrix.h"
#include "sparse/csr_matrix.h"
#include "sparse/matrix_market.h"
#include "sparse/reference_spgemm.h"
#include "spgemm/algorithm_registry.h"
#include "verify/differential.h"
#include "verify/fault_injection.h"
#include "verify/invariants.h"

namespace spnet {
namespace {

using sparse::CsrMatrix;
using sparse::Index;
using verify::FaultInjector;

/// Guarantees the process-wide injector is disarmed when a test exits,
/// even on assertion failure.
class InjectorGuard {
 public:
  InjectorGuard() { FaultInjector::Global().Reset(); }
  ~InjectorGuard() { FaultInjector::Global().Reset(); }
};

CsrMatrix SmallMatrix(uint64_t seed = 7) {
  datasets::QuasiRegularParams p;
  p.n = 64;
  p.nnz = 600;
  p.seed = seed;
  auto m = datasets::GenerateQuasiRegular(p);
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, DisarmedIsTransparent) {
  InjectorGuard guard;
  EXPECT_FALSE(FaultInjector::Global().armed());
  EXPECT_TRUE(verify::MaybeInjectFault(verify::kSitePlan).ok());
  // Disarmed check points do not even count calls.
  EXPECT_EQ(FaultInjector::Global().CallCount(verify::kSitePlan), 0);
}

TEST(FaultInjectorTest, FailsExactlyInsideTheWindow) {
  InjectorGuard guard;
  FaultInjector::Global().Arm("test.site", /*first=*/2, /*count=*/2);
  EXPECT_TRUE(verify::MaybeInjectFault("test.site").ok());   // call 1
  const Status second = verify::MaybeInjectFault("test.site");
  EXPECT_EQ(second.code(), StatusCode::kInternal);
  EXPECT_NE(second.message().find("injected fault at test.site"),
            std::string::npos);
  EXPECT_FALSE(verify::MaybeInjectFault("test.site").ok());  // call 3
  EXPECT_TRUE(verify::MaybeInjectFault("test.site").ok());   // call 4
  EXPECT_EQ(FaultInjector::Global().CallCount("test.site"), 4);
}

TEST(FaultInjectorTest, CountZeroFailsForever) {
  InjectorGuard guard;
  FaultInjector::Global().Arm("test.site", /*first=*/1, /*count=*/0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(verify::MaybeInjectFault("test.site").ok());
  }
}

TEST(FaultInjectorTest, OtherSitesAreUnaffected) {
  InjectorGuard guard;
  FaultInjector::Global().Arm("test.site", 1, 0);
  EXPECT_TRUE(verify::MaybeInjectFault("other.site").ok());
}

TEST(FaultInjectorTest, SpecGrammarArmsSitesAndCodes) {
  InjectorGuard guard;
  ASSERT_TRUE(FaultInjector::Global()
                  .ArmFromSpec("a.site=1:0:io,b.site=2")
                  .ok());
  EXPECT_EQ(verify::MaybeInjectFault("a.site").code(), StatusCode::kIoError);
  EXPECT_TRUE(verify::MaybeInjectFault("b.site").ok());
  EXPECT_FALSE(verify::MaybeInjectFault("b.site").ok());
}

TEST(FaultInjectorTest, MalformedSpecIsRejected) {
  InjectorGuard guard;
  EXPECT_EQ(FaultInjector::Global().ArmFromSpec("nonsense").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultInjector::Global().ArmFromSpec("x=abc").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultInjector::Global().ArmFromSpec("x=1:1:bogus").code(),
            StatusCode::kInvalidArgument);
}

TEST(FaultInjectorTest, ResetDisarms) {
  InjectorGuard guard;
  FaultInjector::Global().Arm("test.site", 1, 0);
  FaultInjector::Global().Reset();
  EXPECT_FALSE(FaultInjector::Global().armed());
  EXPECT_TRUE(verify::MaybeInjectFault("test.site").ok());
}

TEST(FaultInjectorTest, LoaderReadSiteFailsTheLoad) {
  InjectorGuard guard;
  FaultInjector::Global().Arm(verify::kSiteLoaderRead, 1);
  // The check point sits before the open, so no file is needed.
  const auto r = sparse::ReadMatrixMarket("/nonexistent.mtx");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("injected fault"), std::string::npos);
}

TEST(FaultInjectorTest, PlanAndComputeSitesCoverEveryAlgorithm) {
  InjectorGuard guard;
  const CsrMatrix a = SmallMatrix();
  auto algorithm =
      spgemm::AlgorithmRegistry::Global().Create("outer-product");
  ASSERT_TRUE(algorithm.ok());

  FaultInjector::Global().Arm(verify::kSitePlan, 1);
  const auto plan =
      (*algorithm)->Plan(a, a, gpusim::DeviceSpec::TitanXp());
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("injected fault"),
            std::string::npos);

  FaultInjector::Global().Reset();
  FaultInjector::Global().Arm(verify::kSiteCompute, 1);
  EXPECT_FALSE((*algorithm)->Compute(a, a).ok());
}

TEST(FaultInjectorTest, ChatAllocSiteFailsEveryComputePath) {
  // The C-hat allocation lives in the one host kernel, so the site fails
  // the reorganizer's and the baselines' Compute with the armed code.
  InjectorGuard guard;
  core::RegisterCoreAlgorithms();
  const CsrMatrix a = SmallMatrix();
  for (const char* name : {"reorganizer", "reorganizer-gathering",
                           "row-product", "outer-product", "cusparse"}) {
    auto algorithm = spgemm::AlgorithmRegistry::Global().Create(name);
    ASSERT_TRUE(algorithm.ok()) << name;
    FaultInjector::Global().Arm(verify::kSiteChatAlloc, 1, 1,
                                StatusCode::kOutOfRange);
    const auto c = (*algorithm)->Compute(a, a);
    ASSERT_FALSE(c.ok()) << name;
    EXPECT_EQ(c.status().code(), StatusCode::kOutOfRange) << name;
    // The window was one call: the next Compute succeeds.
    EXPECT_TRUE((*algorithm)->Compute(a, a).ok()) << name;
  }
}

// ---------------------------------------------------------------------------
// BatchRunner degradation under injected faults
// ---------------------------------------------------------------------------

TEST(FaultInjectionBatchTest, AllPlansFailingDegradesToFallbackWithError) {
  InjectorGuard guard;
  // Every Plan call fails: the primary fails, the fallback retry fails
  // too, and the injected error must surface in the per-query status
  // while the batch itself succeeds.
  FaultInjector::Global().Arm(verify::kSitePlan, 1, 0);

  engine::BatchRunner runner(engine::BatchOptions{});
  auto request =
      engine::RequestBuilder()
          .Id("q0")
          .Algorithm("reorganizer")
          .OperandA(std::make_shared<const CsrMatrix>(SmallMatrix()))
          .Build();
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  const auto report = runner.Execute({*request});
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->responses.size(), 1u);
  const engine::Response& r = report->responses[0];
  EXPECT_FALSE(r.status.ok());
  EXPECT_TRUE(r.fallback_used);
  EXPECT_NE(r.status.message().find("injected fault"), std::string::npos);
  EXPECT_EQ(report->failed, 1);
  EXPECT_EQ(report->fallbacks, 1);
}

TEST(FaultInjectionBatchTest, SinglePlanFaultRecoversOnFallback) {
  InjectorGuard guard;
  // Only the first Plan call fails, so the fallback retry succeeds and
  // the query completes on the fallback algorithm.
  FaultInjector::Global().Arm(verify::kSitePlan, 1, 1);

  engine::BatchRunner runner(engine::BatchOptions{});
  auto request =
      engine::RequestBuilder()
          .Id("q0")
          .Algorithm("reorganizer")
          .OperandA(std::make_shared<const CsrMatrix>(SmallMatrix()))
          .Build();
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  const auto report = runner.Execute({*request});
  ASSERT_TRUE(report.ok());
  const engine::Response& r = report->responses[0];
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.fallback_used);
  EXPECT_EQ(r.algorithm_used, "outer-product");
}

// ---------------------------------------------------------------------------
// Plan invariant validators
// ---------------------------------------------------------------------------

TEST(InvariantsTest, HoldOnEveryAblationVariant) {
  const struct {
    bool split, gather, limit;
  } variants[] = {{true, true, true},
                  {true, false, false},
                  {false, true, false},
                  {false, false, true},
                  {false, false, false}};
  for (const auto& v : variants) {
    core::ReorganizerConfig config;
    config.enable_splitting = v.split;
    config.enable_gathering = v.gather;
    config.enable_limiting = v.limit;
    for (const std::string& family : verify::SweepFamilyNames()) {
      auto c = verify::MakeSweepCase(family, 42);
      ASSERT_TRUE(c.ok()) << family;
      const Status s = verify::VerifyReorganizerInvariants(c->a, c->b, config);
      EXPECT_TRUE(s.ok()) << family << " split=" << v.split
                          << " gather=" << v.gather << " limit=" << v.limit
                          << ": " << s.ToString();
    }
  }
}

TEST(InvariantsTest, DetectsMisclassifiedPair) {
  const CsrMatrix a = SmallMatrix();
  const spgemm::Workload workload = spgemm::BuildWorkload(a, a);
  core::ReorganizerConfig config;
  core::Classification classes = core::Classify(workload, config);
  ASSERT_TRUE(verify::CheckClassification(workload, classes).ok());

  // Move one pair into the wrong bin.
  ASSERT_FALSE(classes.low_performers.empty());
  classes.normals.push_back(classes.low_performers.back());
  classes.low_performers.pop_back();
  EXPECT_FALSE(verify::CheckClassification(workload, classes).ok());
}

TEST(InvariantsTest, DetectsBadThreshold) {
  const CsrMatrix a = SmallMatrix();
  const spgemm::Workload workload = spgemm::BuildWorkload(a, a);
  core::ReorganizerConfig config;
  core::Classification classes = core::Classify(workload, config);
  classes.dominator_threshold = 0;
  EXPECT_FALSE(verify::CheckClassification(workload, classes).ok());
}

TEST(InvariantsTest, DetectsCorruptedSplitOffsets) {
  // Force dominators with a tiny alpha so the split plan is non-trivial.
  const CsrMatrix a = SmallMatrix();
  const spgemm::Workload workload = spgemm::BuildWorkload(a, a);
  core::ReorganizerConfig config;
  config.alpha = 0.1;
  const core::Classification classes = core::Classify(workload, config);
  ASSERT_FALSE(classes.dominators.empty());
  core::SplitPlan split = core::BuildSplitPlan(
      workload, classes.dominators, config, gpusim::DeviceSpec::TitanXp());
  ASSERT_TRUE(
      verify::CheckSplitPlan(workload, classes.dominators, split).ok());

  // Shift one interior offset: fragment products no longer sum correctly
  // against a neighbor, or a fragment goes empty.
  ASSERT_FALSE(split.vectors.empty());
  core::SplitVector& v = split.vectors.front();
  if (v.factor > 1) {
    v.offsets[1] = v.offsets[0];  // empty first fragment
  } else {
    v.offsets.back() -= 1;  // fragment range no longer covers the column
  }
  EXPECT_FALSE(
      verify::CheckSplitPlan(workload, classes.dominators, split).ok());
}

TEST(InvariantsTest, DetectsCorruptedGatherPlan) {
  const CsrMatrix a = SmallMatrix();
  const spgemm::Workload workload = spgemm::BuildWorkload(a, a);
  core::ReorganizerConfig config;
  const core::Classification classes = core::Classify(workload, config);
  ASSERT_FALSE(classes.low_performers.empty());
  core::GatherPlan gather =
      core::BuildGatherPlan(workload, classes.low_performers, config);
  ASSERT_TRUE(verify::CheckGatherPlan(workload, classes.low_performers,
                                      gather, config.block_size)
                  .ok());

  if (!gather.blocks.empty()) {
    // A dropped pair breaks the partition property.
    core::CombinedBlock& block = gather.blocks.front();
    ASSERT_FALSE(block.pairs.empty());
    block.pairs.pop_back();
    gather.gathered_pairs -= 1;
  } else {
    gather.ungathered.pop_back();
  }
  EXPECT_FALSE(verify::CheckGatherPlan(workload, classes.low_performers,
                                       gather, config.block_size)
                   .ok());
}

// ---------------------------------------------------------------------------
// Differential checker
// ---------------------------------------------------------------------------

TEST(DifferentialTest, AgreementReportsNoDivergence) {
  const CsrMatrix a = SmallMatrix();
  verify::Divergence d;
  EXPECT_FALSE(verify::FindFirstDivergence(a, a, 1e-9, &d));
}

TEST(DifferentialTest, ReportsFirstValueDivergence) {
  const CsrMatrix a = SmallMatrix();
  std::vector<double> values = a.values();
  ASSERT_GT(values.size(), 10u);
  values[10] += 0.5;
  auto tampered = CsrMatrix::FromParts(a.rows(), a.cols(), a.ptr(),
                                       a.indices(), std::move(values));
  ASSERT_TRUE(tampered.ok());
  verify::Divergence d;
  ASSERT_TRUE(verify::FindFirstDivergence(a, *tampered, 1e-9, &d));
  EXPECT_EQ(d.kind, "value");
  EXPECT_GE(d.row, 0);
  EXPECT_NEAR(d.got - d.expected, 0.5, 1e-9);
}

TEST(DifferentialTest, ReportsStructureDivergence) {
  sparse::CooMatrix coo(3, 3);
  coo.Add(0, 0, 1.0);
  coo.Add(1, 2, 2.0);
  auto full = CsrMatrix::FromCoo(coo);
  ASSERT_TRUE(full.ok());
  sparse::CooMatrix coo2(3, 3);
  coo2.Add(0, 0, 1.0);
  auto missing = CsrMatrix::FromCoo(coo2);
  ASSERT_TRUE(missing.ok());

  verify::Divergence d;
  ASSERT_TRUE(verify::FindFirstDivergence(*full, *missing, 1e-9, &d));
  EXPECT_EQ(d.kind, "structure");
  EXPECT_EQ(d.row, 1);
  EXPECT_EQ(d.col, 2);
  EXPECT_DOUBLE_EQ(d.expected, 2.0);
  EXPECT_DOUBLE_EQ(d.got, 0.0);
}

TEST(DifferentialTest, ReportsShapeDivergence) {
  sparse::CooMatrix coo(3, 3);
  auto m3 = CsrMatrix::FromCoo(coo);
  sparse::CooMatrix coo4(4, 4);
  auto m4 = CsrMatrix::FromCoo(coo4);
  verify::Divergence d;
  ASSERT_TRUE(verify::FindFirstDivergence(*m3, *m4, 1e-9, &d));
  EXPECT_EQ(d.kind, "shape");
}

TEST(DifferentialTest, SweepFamiliesProduceValidCompatibleCases) {
  for (const std::string& family : verify::SweepFamilyNames()) {
    for (uint64_t seed = 42; seed < 45; ++seed) {
      auto c = verify::MakeSweepCase(family, seed);
      ASSERT_TRUE(c.ok()) << family;
      EXPECT_TRUE(c->a.Validate().ok()) << family;
      EXPECT_TRUE(c->b.Validate().ok()) << family;
      EXPECT_EQ(c->a.cols(), c->b.rows()) << family;
    }
  }
}

TEST(DifferentialTest, SweepIsDeterministicPerSeed) {
  auto c1 = verify::MakeSweepCase("powerlaw", 42);
  auto c2 = verify::MakeSweepCase("powerlaw", 42);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c1->a.indices(), c2->a.indices());
  EXPECT_EQ(c1->a.values(), c2->a.values());
}

TEST(DifferentialTest, EmptyFamilyIncludesFullyEmptyMatrix) {
  // Seeds divisible by 3 produce a completely empty A.
  auto c = verify::MakeSweepCase("empty-rows-cols", 42);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->a.nnz(), 0);
  EXPECT_GT(c->b.nnz(), 0);
}

TEST(DifferentialTest, FullRegistrySweepHasZeroDivergences) {
  verify::DifferentialOptions options;
  options.cases_per_family = 1;
  const auto report = verify::RunDifferentialSweep(options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  // Every registered algorithm ran against every family.
  EXPECT_GT(report->algorithms_tested, 8);
  EXPECT_EQ(report->cases_run,
            report->algorithms_tested *
                static_cast<int64_t>(verify::SweepFamilyNames().size()));
}

TEST(DifferentialTest, UnknownAlgorithmIsAnInfrastructureError) {
  verify::DifferentialOptions options;
  options.algorithms = {"no-such-algorithm"};
  EXPECT_FALSE(verify::RunDifferentialSweep(options).ok());
}

TEST(DifferentialTest, InjectedComputeFaultSurfacesInReport) {
  InjectorGuard guard;
  FaultInjector::Global().Arm(verify::kSiteCompute, 1, 0);
  verify::DifferentialOptions options;
  options.algorithms = {"row-product"};
  options.families = {"banded"};
  options.cases_per_family = 1;
  const auto report = verify::RunDifferentialSweep(options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->failures.size(), 1u);
  EXPECT_FALSE(report->failures[0].status.ok());
  EXPECT_NE(report->failures[0].ToString().find("injected fault"),
            std::string::npos);
}

}  // namespace
}  // namespace spnet
