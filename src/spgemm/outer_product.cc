#include "spgemm/outer_product.h"

#include <memory>
#include <string>

#include "spgemm/algorithm.h"
#include "spgemm/plan.h"

namespace spnet {
namespace spgemm {

using gpusim::KernelDesc;
using gpusim::Phase;

KernelDesc BuildOuterProductExpansion(const Workload& workload,
                                      int block_size) {
  KernelDesc kernel;
  kernel.label = "outer-product-expansion";
  kernel.phase = Phase::kExpansion;
  kernel.flops = workload.flops;
  const size_t pairs = workload.pair_work.size();
  for (size_t i = 0; i < pairs; ++i) {
    if (workload.pair_work[i] == 0) continue;
    PairBlockParams p;
    p.col_nnz = workload.a_col_nnz[i];
    p.row_nnz = workload.b_row_nnz[i];
    p.block_size = block_size;
    kernel.blocks.push_back(MakePairBlock(p));
  }
  return kernel;
}

namespace {

/// The outer-product (column-row product) baseline the Block Reorganizer
/// builds on: pair i = (column i of A) x (row i of B) forms one thread
/// block, so every thread in a block does identical work (perfect
/// thread-level balance) — but block-level workloads vary wildly on
/// power-law data, creating the overloaded/underloaded block problem the
/// paper analyzes in Section III.
class OuterProductSpGemm : public SpGemmAlgorithm {
 public:
  std::string name() const override { return "outer-product"; }

 protected:
  SpGemmPlan PlanImpl(const Workload& workload, const gpusim::DeviceSpec&,
                      ExecContext*) const override {
    SpGemmPlan plan;
    plan.kernels.push_back(BuildOuterProductExpansion(workload, 256));
    MergeOptions merge;
    for (KernelDesc& k : BuildMergeKernels(workload, merge)) {
      plan.kernels.push_back(std::move(k));
    }
    // Outer product needs the row-wise C-hat prefix sums (relocation
    // cursors) before expansion; the scan is device-side, the setup host.
    plan.host_seconds = HostPreprocessSeconds(
        static_cast<int64_t>(workload.pair_work.size()), 0);
    return plan;
  }
};

}  // namespace

std::unique_ptr<SpGemmAlgorithm> MakeOuterProduct() {
  return std::make_unique<OuterProductSpGemm>();
}

}  // namespace spgemm
}  // namespace spnet
