#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "spgemm/algorithm.h"
#include "spgemm/functional.h"
#include "spgemm/plan.h"
#include "spgemm/row_product.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {

namespace {

using gpusim::KernelDesc;
using sparse::CsrMatrix;

/// Surrogate for AC-spGEMM (Winter et al., PPoPP'19), discussed in the
/// paper's related work: a row-product scheme with *thread-level* load
/// balancing — work is cut into fixed-size chunks pulled from a global
/// queue, so warps stay busy regardless of row lengths. The chunk
/// machinery costs bookkeeping instructions and extra traffic for the
/// per-row linked-list structures the paper calls out ("additional
/// control overhead to secure per-row linked list structures"), and the
/// merge remains unfused.
class AcSpGemmLike : public SpGemmAlgorithm {
 public:
  std::string name() const override { return "AC-spGEMM"; }

  Result<SpGemmPlan> PlanImpl(const CsrMatrix& a, const CsrMatrix& b,
                              const gpusim::DeviceSpec&,
                              ExecContext*) const override {
    if (a.cols() != b.rows()) {
      return Status::InvalidArgument("dimension mismatch in AC-spGEMM plan");
    }
    Workload workload = BuildWorkload(a, b);
    SpGemmPlan plan;
    plan.flops = workload.flops;
    plan.output_nnz = workload.output_nnz;

    // Chunked execution behaves like processing rows in sorted order with
    // perfectly filled warps: model via the sorted row_order (no
    // intra-warp divergence) at a bookkeeping cost per product.
    std::vector<int64_t> order(workload.row_chat.size());
    std::iota(order.begin(), order.end(), int64_t{0});
    std::stable_sort(order.begin(), order.end(), [&](int64_t x, int64_t y) {
      return workload.row_chat[static_cast<size_t>(x)] <
             workload.row_chat[static_cast<size_t>(y)];
    });

    RowExpansionOptions expansion;
    expansion.label = "acspgemm-chunked";
    expansion.row_order = &order;
    expansion.write_scatter_factor = 1.2;  // chunk-local staging
    expansion.traffic_multiplier = 1.25;   // chunk headers + linked lists
    expansion.ops_multiplier = 1.6;        // queue pops, chunk bookkeeping
    plan.kernels.push_back(BuildRowProductExpansion(workload, expansion));

    MergeOptions merge;
    for (KernelDesc& k : BuildMergeKernels(workload, merge)) {
      plan.kernels.push_back(std::move(k));
    }
    plan.host_seconds = HostPreprocessSeconds(
        static_cast<int64_t>(workload.row_chat.size()), 0);
    return plan;
  }

  Result<CsrMatrix> ComputeImpl(const CsrMatrix& a, const CsrMatrix& b,
                                ExecContext* ctx) const override {
    return ExpandMerge(a, b, {}, ctx);
  }
};

}  // namespace

std::unique_ptr<SpGemmAlgorithm> MakeAcSpGemmLike() {
  return std::make_unique<AcSpGemmLike>();
}

}  // namespace spgemm
}  // namespace spnet
