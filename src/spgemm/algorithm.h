#ifndef SPNET_SPGEMM_ALGORITHM_H_
#define SPNET_SPGEMM_ALGORITHM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "gpusim/device_spec.h"
#include "gpusim/simulator.h"
#include "sparse/csr_matrix.h"
#include "spgemm/plan.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {

struct ExecContext;

/// One spGEMM implementation under evaluation: it can (1) really compute
/// C = A*B on the host and (2) emit the workload plan its GPU execution
/// would dispatch, for the SIMT timing model.
///
/// The base class owns the skeleton every algorithm shares, following the
/// non-virtual-interface pattern: the public Plan/Compute take an optional
/// ExecContext for observability (trace spans, thread-pool counters), check
/// the shapes once, and run the shared steps. Plan builds the workload (the
/// paper's block-wise and row-wise C-hat precalculation) under the
/// "build-workload" span and copies its flops and output nnz into the plan;
/// Compute runs the one host kernel, ExpandMerge. An algorithm supplies
/// only its cost model, PlanImpl (the simulated kernels and host seconds
/// over the prepared workload), and may override PairOrder to set the
/// kernel's pair dispatch order. A null context must be (and is, via the
/// null-tolerant helpers in exec_context.h) a cheap no-op.
class SpGemmAlgorithm {
 public:
  virtual ~SpGemmAlgorithm() = default;

  /// Short identifier used in benchmark tables ("row-product", ...).
  virtual std::string name() const = 0;

  /// Builds the simulation plan for C = A*B on `device`. InvalidArgument
  /// when a.cols() != b.rows().
  Result<SpGemmPlan> Plan(const sparse::CsrMatrix& a,
                          const sparse::CsrMatrix& b,
                          const gpusim::DeviceSpec& device,
                          ExecContext* ctx = nullptr) const;

  /// Functionally computes C = A*B with ExpandMerge over PairOrder(a, b);
  /// validated against ReferenceSpGemm in the test suite. InvalidArgument
  /// when a.cols() != b.rows().
  Result<sparse::CsrMatrix> Compute(const sparse::CsrMatrix& a,
                                    const sparse::CsrMatrix& b,
                                    ExecContext* ctx = nullptr) const;

 protected:
  /// The algorithm's cost model: the kernels it would launch over
  /// `workload` and its modeled host seconds. Plan fills flops and
  /// output_nnz afterwards.
  virtual SpGemmPlan PlanImpl(const Workload& workload,
                              const gpusim::DeviceSpec& device,
                              ExecContext* ctx) const = 0;

  /// The pair dispatch order of the host kernel (see ExpandMerge); the
  /// default, an empty order, is the natural row-product order. Called
  /// with operands whose shapes already match.
  virtual std::vector<sparse::Index> PairOrder(const sparse::CsrMatrix& a,
                                               const sparse::CsrMatrix& b,
                                               ExecContext* ctx) const;
};

/// Simulates `algorithm` on `device` and returns the timing profile. With
/// a context, records a "measure:<name>" span (planning nested inside, the
/// kernel-simulation loop under "simulate") plus sim.* counters and
/// measure.* gauges.
Result<SpGemmMeasurement> Measure(const SpGemmAlgorithm& algorithm,
                                  const sparse::CsrMatrix& a,
                                  const sparse::CsrMatrix& b,
                                  const gpusim::DeviceSpec& device,
                                  ExecContext* ctx = nullptr);

/// The simulation tail of Measure() for an already-built plan: runs every
/// kernel on `device` and aggregates the measurement. This is the
/// plan-cache path of the batch engine — a cached SpGemmPlan skips
/// Plan() entirely and goes straight here. Records the same "simulate"
/// span, sim.* counters and measure.* gauges as Measure().
Result<SpGemmMeasurement> SimulatePlan(const SpGemmPlan& plan,
                                       const gpusim::DeviceSpec& device,
                                       ExecContext* ctx = nullptr);

/// The named baselines individually. (core/suite.h assembles the full
/// Figure 8/9 comparison including the Block Reorganizer.)
std::unique_ptr<SpGemmAlgorithm> MakeRowProduct();
std::unique_ptr<SpGemmAlgorithm> MakeOuterProduct();
std::unique_ptr<SpGemmAlgorithm> MakeCusparseLike();
std::unique_ptr<SpGemmAlgorithm> MakeCuspLike();
std::unique_ptr<SpGemmAlgorithm> MakeBhsparseLike();
std::unique_ptr<SpGemmAlgorithm> MakeMklLike();

/// Extension comparisons from the paper's related-work discussion (not
/// part of the Figure 8 suite): AC-spGEMM's chunk-balanced row product
/// (Winter et al., PPoPP'19) and hash-based fused Gustavson (nsparse).
std::unique_ptr<SpGemmAlgorithm> MakeAcSpGemmLike();
std::unique_ptr<SpGemmAlgorithm> MakeNsparseLike();

}  // namespace spgemm
}  // namespace spnet

#endif  // SPNET_SPGEMM_ALGORITHM_H_
