#ifndef SPNET_CORE_BLOCK_REORGANIZER_H_
#define SPNET_CORE_BLOCK_REORGANIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/b_gathering.h"
#include "core/b_splitting.h"
#include "core/reorganizer_config.h"
#include "core/workload_classifier.h"
#include "spgemm/algorithm.h"

namespace spnet {
namespace core {

/// Summary of one Block Reorganizer pre-process, matching the numbers the
/// paper walks through for YouTube in Section IV-E (713 dominators,
/// 362,736 low performers, 12,657 limited rows, ...).
struct ReorganizerReport {
  int64_t nonzero_pairs = 0;
  int64_t dominators = 0;
  int64_t low_performers = 0;
  int64_t normals = 0;
  int64_t limited_rows = 0;
  int64_t fragments = 0;        ///< expansion blocks created by B-Splitting
  int64_t combined_blocks = 0;  ///< blocks created by B-Gathering
  int64_t gathered_pairs = 0;   ///< micro-blocks packed into them
  int64_t dominator_threshold = 0;
  int64_t limit_row_threshold = 0;
};

/// The paper's contribution: outer-product spGEMM with the Block
/// Reorganizer optimization pass (workload classification + B-Splitting +
/// B-Gathering for expansion, B-Limiting for merge). Each technique can be
/// toggled via ReorganizerConfig for the Figure 10 ablation.
class BlockReorganizerSpGemm : public spgemm::SpGemmAlgorithm {
 public:
  explicit BlockReorganizerSpGemm(ReorganizerConfig config = {},
                                  std::string display_name = "")
      : config_(config), name_(std::move(display_name)) {}

  std::string name() const override {
    return name_.empty() ? "Block-Reorganizer" : name_;
  }

  const ReorganizerConfig& config() const { return config_; }

  /// Runs only the pre-process and reports the bin populations.
  Result<ReorganizerReport> Analyze(const sparse::CsrMatrix& a,
                                    const sparse::CsrMatrix& b,
                                    const gpusim::DeviceSpec& device,
                                    spgemm::ExecContext* ctx = nullptr) const;

 protected:
  Result<spgemm::SpGemmPlan> PlanImpl(const sparse::CsrMatrix& a,
                                      const sparse::CsrMatrix& b,
                                      const gpusim::DeviceSpec& device,
                                      spgemm::ExecContext* ctx) const override;

  /// Host execution: the shared expand/merge kernel over the
  /// reorganizer's dispatch order (BuildDispatchOrder), so classification
  /// and gathering are validated end to end (tests compare against
  /// ReferenceSpGemm).
  Result<sparse::CsrMatrix> ComputeImpl(const sparse::CsrMatrix& a,
                                        const sparse::CsrMatrix& b,
                                        spgemm::ExecContext* ctx) const override;

 private:
  /// Output of the configured planning tier: the workload feeding kernel
  /// construction, the classification, and how much of the workload is
  /// exactly known (1.0 for the exact tier).
  struct Prepared {
    spgemm::Workload workload;
    Classification classes;
    double confidence = 1.0;
  };

  /// Runs the configured planning tier for Plan/Analyze: exact
  /// precalculation, or the sampled estimator with per-entry exact
  /// fallback; kAuto rebuilds exactly when the post-fallback confidence
  /// lands below `min_plan_confidence`.
  Prepared PrepareWorkload(const sparse::CsrMatrix& a,
                           const sparse::CsrMatrix& b,
                           spgemm::ExecContext* ctx) const;

  /// Tiered classification for Compute: scheduling classes may come from
  /// estimates, but the caller's `exact` workload always drives buffer
  /// sizes and expansion ranges (an estimate must never move a cursor).
  Classification ClassifyTiered(const sparse::CsrMatrix& a,
                                const sparse::CsrMatrix& b,
                                const spgemm::Workload& exact,
                                spgemm::ExecContext* ctx) const;

  /// Kernel construction shared by both tiers.
  spgemm::SpGemmPlan BuildPlanKernels(const spgemm::Workload& workload,
                                      const Classification& classes,
                                      const gpusim::DeviceSpec& device,
                                      int64_t nnz_a,
                                      spgemm::ExecContext* ctx) const;

  /// The classify/gather/expand/merge pipeline on inputs as given.
  /// Scheduling classes may come from the estimated tier: they only order
  /// the dispatch, and the kernel sizes every buffer from exact row
  /// counts. ComputeImpl wraps it with the config's reorder pre-pass
  /// (permute A's rows and B's columns, compute, invert on the output).
  Result<sparse::CsrMatrix> ComputeCore(const sparse::CsrMatrix& a,
                                        const sparse::CsrMatrix& b,
                                        spgemm::ExecContext* ctx) const;

  ReorganizerConfig config_;
  std::string name_;
};

/// The reorganizer's pair dispatch order, the input of the host kernel
/// (spgemm::ExpandMerge): dominators, then normals, then the pairs of each
/// combined block and the ungathered pairs (the low performers in class
/// order when gathering is off). B-Splitting is absent on purpose: a split
/// vector's fragments are dispatched consecutively and in dominator order,
/// so every output row meets its pairs in exactly the unsplit order, on
/// any device.
std::vector<sparse::Index> BuildDispatchOrder(
    const spgemm::Workload& workload, const Classification& classes,
    const ReorganizerConfig& config, spgemm::ExecContext* ctx = nullptr);

/// Convenience factory used by the benchmark suite and the CLI. Validates
/// `config` first (see ReorganizerConfig::Validate) and refuses to build
/// an algorithm around nonsense knobs.
Result<std::unique_ptr<spgemm::SpGemmAlgorithm>> MakeBlockReorganizer(
    ReorganizerConfig config = {}, std::string display_name = "");

/// Registers the Block Reorganizer family ("reorganizer" plus the
/// single-technique ablation variants "reorganizer-limiting",
/// "reorganizer-splitting", "reorganizer-gathering", the sampled
/// planning tier "reorganizer-estimated", and the reordering pre-pass
/// ablations "reorganizer-reorder-degree" / "-rcm" / "-cluster") in
/// spgemm::AlgorithmRegistry::Global(). Idempotent; call before querying
/// the registry for core-layer algorithms.
void RegisterCoreAlgorithms();

}  // namespace core
}  // namespace spnet

#endif  // SPNET_CORE_BLOCK_REORGANIZER_H_
