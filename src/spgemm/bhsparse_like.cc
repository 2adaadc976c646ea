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

/// Surrogate for bhSPARSE (Liu & Vinter, IPDPS'14): a row-product scheme
/// that bins output rows by their upper-bound work so each bin runs a
/// size-specialized kernel — rows in a warp have similar lengths, removing
/// most intra-warp divergence. Very long rows overflow to a global-memory
/// merge path that re-streams their data. Binning itself is a host pass.
/// The scheme narrows but does not close the row-product gap on heavily
/// skewed inputs (paper Figs. 8/16a): hub rows still serialize in the
/// overflow path and the merge stays contended.
class BhsparseLikeSpGemm : public SpGemmAlgorithm {
 public:
  std::string name() const override { return "bhSPARSE"; }

  Result<SpGemmPlan> PlanImpl(const CsrMatrix& a, const CsrMatrix& b,
                              const gpusim::DeviceSpec&,
                              ExecContext*) const override {
    if (a.cols() != b.rows()) {
      return Status::InvalidArgument("dimension mismatch in bhSPARSE plan");
    }
    Workload workload = BuildWorkload(a, b);
    SpGemmPlan plan;
    plan.flops = workload.flops;
    plan.output_nnz = workload.output_nnz;

    // Bin rows by work: sorting by C-hat population puts similar rows in
    // the same warp, which is exactly what per-bin kernels achieve.
    std::vector<int64_t> order(workload.row_chat.size());
    std::iota(order.begin(), order.end(), int64_t{0});
    std::stable_sort(order.begin(), order.end(), [&](int64_t x, int64_t y) {
      return workload.row_chat[static_cast<size_t>(x)] <
             workload.row_chat[static_cast<size_t>(y)];
    });

    // Overflow rows (beyond the largest bin) pay the global-memory merge
    // path: their traffic is re-streamed once more. Model by inflating
    // their C-hat contribution in a copied workload used for the overflow
    // kernel, and excluding them from the binned kernel.
    constexpr int64_t kOverflowThreshold = 4096;
    Workload binned = workload;
    Workload overflow = workload;
    for (size_t r = 0; r < workload.row_chat.size(); ++r) {
      if (workload.row_chat[r] > kOverflowThreshold) {
        binned.row_chat[r] = 0;
      } else {
        overflow.row_chat[r] = 0;
      }
    }

    RowExpansionOptions binned_opts;
    binned_opts.label = "bhsparse-binned";
    binned_opts.row_order = &order;
    binned_opts.traffic_multiplier = 1.8;    // progress/bin bookkeeping
    binned_opts.write_scatter_factor = 1.5;  // bin-local staging helps
    plan.kernels.push_back(BuildRowProductExpansion(binned, binned_opts));

    RowExpansionOptions overflow_opts;
    overflow_opts.label = "bhsparse-overflow";
    overflow_opts.row_order = &order;        // overflow bin is also sorted
    overflow_opts.traffic_multiplier = 2.2;  // global-memory re-stream
    overflow_opts.write_scatter_factor = 1.5;
    plan.kernels.push_back(BuildRowProductExpansion(overflow, overflow_opts));

    MergeOptions merge;
    for (KernelDesc& k : BuildMergeKernels(workload, merge)) {
      plan.kernels.push_back(std::move(k));
    }

    // Host-side binning scan over the rows.
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

std::unique_ptr<SpGemmAlgorithm> MakeBhsparseLike() {
  return std::make_unique<BhsparseLikeSpGemm>();
}

}  // namespace spgemm
}  // namespace spnet
