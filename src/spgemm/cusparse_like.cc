#include <cmath>
#include <memory>

#include "common/math_util.h"
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

/// Surrogate for NVIDIA cuSPARSE csrgemm: a two-phase row-product — a
/// symbolic pass computes the output structure, then a numeric pass
/// recomputes every product and accumulates it into sorted rows. The
/// double traversal and the per-product sorted-insertion cost are why the
/// real library falls behind on large irregular inputs (paper Figs. 8/16a)
/// while its low fixed overhead wins on small matrices.
class CusparseLikeSpGemm : public SpGemmAlgorithm {
 public:
  std::string name() const override { return "cuSPARSE"; }

  Result<SpGemmPlan> PlanImpl(const CsrMatrix& a, const CsrMatrix& b,
                              const gpusim::DeviceSpec&,
                              ExecContext*) const override {
    if (a.cols() != b.rows()) {
      return Status::InvalidArgument("dimension mismatch in cuSPARSE plan");
    }
    const Workload workload = BuildWorkload(a, b);
    SpGemmPlan plan;
    plan.flops = workload.flops;
    plan.output_nnz = workload.output_nnz;

    // Symbolic pass: indices only (roughly 1/3 of the element payload),
    // tiny writes (per-row counters).
    RowExpansionOptions symbolic;
    symbolic.label = "cusparse-symbolic";
    symbolic.traffic_multiplier = 0.4;
    symbolic.write_scatter_factor = 0.1;
    plan.kernels.push_back(BuildRowProductExpansion(workload, symbolic));

    // Numeric pass: full traffic plus a log-factor on every accumulation
    // (sorted insertion into the output row).
    const double mean_chat =
        workload.row_chat.empty()
            ? 0.0
            : static_cast<double>(workload.flops) /
                  static_cast<double>(workload.row_chat.size());
    RowExpansionOptions numeric;
    numeric.label = "cusparse-numeric";
    numeric.traffic_multiplier = 2.0;
    numeric.write_scatter_factor = 3.0;
    numeric.ops_multiplier = 1.0 + 2.5 * std::log2(2.0 + mean_chat);
    plan.kernels.push_back(BuildRowProductExpansion(workload, numeric));

    // The sorted accumulation replaces a separate merge kernel; only the
    // final output write-out remains.
    KernelDesc writeout;
    writeout.label = "cusparse-writeout";
    writeout.phase = gpusim::Phase::kMerge;
    gpusim::ThreadBlockDesc tb;
    tb.threads = 256;
    tb.effective_threads = 256;
    const int64_t out_bytes = SatMulI64(kElementBytes, workload.output_nnz);
    tb.crit_ops = std::max<int64_t>(1, workload.output_nnz / 8192);
    tb.warp_issue_ops = 8 * tb.crit_ops;
    tb.useful_lane_ops = tb.crit_ops * 256;
    tb.bytes_read = out_bytes;
    tb.bytes_written = out_bytes;
    tb.shared_mem_bytes = 2048;
    // One balanced block per output tile.
    const int64_t tiles =
        std::max<int64_t>(1, workload.output_nnz / 8192);
    tb.bytes_read /= tiles;
    tb.bytes_written /= tiles;
    tb.useful_lane_ops /= tiles;
    tb.warp_issue_ops /= tiles;
    tb.crit_ops = std::max<int64_t>(1, tb.crit_ops / tiles);
    for (int64_t t = 0; t < tiles; ++t) writeout.blocks.push_back(tb);
    plan.kernels.push_back(std::move(writeout));

    // The library has no user-visible preprocessing; just buffer setup.
    plan.host_seconds = HostPreprocessSeconds(0, 0);
    return plan;
  }

  Result<CsrMatrix> ComputeImpl(const CsrMatrix& a, const CsrMatrix& b,
                                ExecContext* ctx) const override {
    // Functionally the two-phase scheme produces the plain product; the
    // shared kernel in natural order expands row by row the same way.
    return ExpandMerge(a, b, {}, ctx);
  }
};

}  // namespace

std::unique_ptr<SpGemmAlgorithm> MakeCusparseLike() {
  return std::make_unique<CusparseLikeSpGemm>();
}

}  // namespace spgemm
}  // namespace spnet
