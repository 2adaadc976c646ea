// Google-benchmark micro-benchmarks of the host-side (functional) pipeline
// stages: workload precalculation, classification, the B-Splitting /
// B-Gathering transformations, expansion+merge execution, and the
// simulator itself. These measure the real CPU cost of this library's
// code, complementing the simulated device timings of the figure benches.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/logging.h"
#include "sparse/stats.h"

#include "core/b_gathering.h"
#include "core/b_splitting.h"
#include "core/block_reorganizer.h"
#include "core/workload_classifier.h"
#include "datasets/generators.h"
#include "gpusim/simulator.h"
#include "spgemm/algorithm.h"
#include "spgemm/functional.h"
#include "spgemm/outer_product.h"
#include "spgemm/row_product.h"
#include "sparse/reference_spgemm.h"

namespace spnet {
namespace {

sparse::CsrMatrix MakeInput(int64_t n) {
  datasets::PowerLawParams p;
  p.rows = static_cast<sparse::Index>(n);
  p.cols = static_cast<sparse::Index>(n);
  p.nnz = 8 * n;
  p.row_skew = p.col_skew = 0.85;
  p.seed = 42;
  auto m = datasets::GeneratePowerLaw(p);
  SPNET_CHECK(m.ok());
  return std::move(m).value();
}

void BM_BuildWorkload(benchmark::State& state) {
  const sparse::CsrMatrix a = MakeInput(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(spgemm::BuildWorkload(a, a));
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_BuildWorkload)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void BM_Classify(benchmark::State& state) {
  const sparse::CsrMatrix a = MakeInput(state.range(0));
  const spgemm::Workload w = spgemm::BuildWorkload(a, a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Classify(w, core::ReorganizerConfig{}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.pair_work.size()));
}
BENCHMARK(BM_Classify)->Arg(1 << 12)->Arg(1 << 16);

void BM_BuildSplitPlan(benchmark::State& state) {
  const sparse::CsrMatrix a = MakeInput(state.range(0));
  const spgemm::Workload w = spgemm::BuildWorkload(a, a);
  const core::Classification c =
      core::Classify(w, core::ReorganizerConfig{});
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BuildSplitPlan(
        w, c.dominators, core::ReorganizerConfig{}, device));
  }
}
BENCHMARK(BM_BuildSplitPlan)->Arg(1 << 12)->Arg(1 << 16);

void BM_BuildGatherPlan(benchmark::State& state) {
  const sparse::CsrMatrix a = MakeInput(state.range(0));
  const spgemm::Workload w = spgemm::BuildWorkload(a, a);
  const core::Classification c =
      core::Classify(w, core::ReorganizerConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BuildGatherPlan(
        w, c.low_performers, core::ReorganizerConfig{}));
  }
}
BENCHMARK(BM_BuildGatherPlan)->Arg(1 << 12)->Arg(1 << 16);

void BM_ReferenceSpGemm(benchmark::State& state) {
  const sparse::CsrMatrix a = MakeInput(state.range(0));
  for (auto _ : state) {
    auto c = sparse::ReferenceSpGemm(a, a);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * sparse::SpGemmFlops(a, a));
}
BENCHMARK(BM_ReferenceSpGemm)->Arg(1 << 12)->Arg(1 << 14);

void BM_ExpandMerge(benchmark::State& state) {
  const sparse::CsrMatrix a = MakeInput(state.range(0));
  for (auto _ : state) {
    auto c = spgemm::ExpandMerge(a, a);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * sparse::SpGemmFlops(a, a));
}
BENCHMARK(BM_ExpandMerge)->Arg(1 << 12)->Arg(1 << 14);

// The same kernel over the full reorganizer's dispatch order (dominators,
// normals, gathered blocks): the per-row rank sort is the only extra work.
void BM_ExpandMergeReorganizerOrder(benchmark::State& state) {
  const sparse::CsrMatrix a = MakeInput(state.range(0));
  const core::ReorganizerConfig config;
  const spgemm::Workload w = spgemm::BuildWorkload(a, a);
  const std::vector<sparse::Index> order =
      core::BuildDispatchOrder(w, core::Classify(w, config), config);
  for (auto _ : state) {
    auto c = spgemm::ExpandMerge(a, a, order);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * sparse::SpGemmFlops(a, a));
}
BENCHMARK(BM_ExpandMergeReorganizerOrder)->Arg(1 << 12)->Arg(1 << 14);

void BM_ReorganizerCompute(benchmark::State& state) {
  const sparse::CsrMatrix a = MakeInput(state.range(0));
  core::BlockReorganizerSpGemm alg;
  for (auto _ : state) {
    auto c = alg.Compute(a, a);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * sparse::SpGemmFlops(a, a));
}
BENCHMARK(BM_ReorganizerCompute)->Arg(1 << 12)->Arg(1 << 14);

void BM_SimulateOuterProduct(benchmark::State& state) {
  const sparse::CsrMatrix a = MakeInput(state.range(0));
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  const auto outer = spgemm::MakeOuterProduct();
  auto plan = outer->Plan(a, a, device);
  SPNET_CHECK(plan.ok());
  gpusim::Simulator sim(device);
  for (auto _ : state) {
    for (const auto& k : plan->kernels) {
      auto s = sim.RunKernel(k);
      benchmark::DoNotOptimize(s);
    }
  }
}
BENCHMARK(BM_SimulateOuterProduct)->Arg(1 << 12)->Arg(1 << 16);

void BM_RmatGeneration(benchmark::State& state) {
  for (auto _ : state) {
    datasets::RmatParams p;
    p.scale = static_cast<int>(state.range(0));
    p.edge_count = int64_t{16} << p.scale;
    auto m = datasets::GenerateRmat(p);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * (int64_t{16} << state.range(0)));
}
BENCHMARK(BM_RmatGeneration)->Arg(12)->Arg(15);

}  // namespace
}  // namespace spnet

BENCHMARK_MAIN();
