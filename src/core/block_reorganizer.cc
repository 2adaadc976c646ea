#include "core/block_reorganizer.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/math_util.h"
#include "core/b_limiting.h"
#include "spgemm/algorithm_registry.h"
#include "spgemm/exec_context.h"
#include "spgemm/plan.h"

namespace spnet {
namespace core {

using gpusim::KernelDesc;
using gpusim::Phase;
using gpusim::ThreadBlockDesc;
using sparse::CsrMatrix;
using sparse::Index;
using spgemm::kElementBytes;
using spgemm::MakePairBlock;
using spgemm::PairBlockParams;
using spgemm::SpGemmPlan;
using spgemm::Workload;

namespace {

/// One combined (gathered) block's descriptor: micro-blocks share the
/// block's warps; lanes of a warp belong to 32/micro_threads different
/// pairs, so the warp's lock-step iteration count is the longest member's
/// column length.
ThreadBlockDesc MakeGatheredBlock(const Workload& workload,
                                  const CombinedBlock& block,
                                  int block_size) {
  ThreadBlockDesc tb;
  const int64_t lanes =
      static_cast<int64_t>(block.pairs.size()) * block.micro_threads;
  tb.threads = static_cast<int>(
      std::min<int64_t>(block_size, std::max<int64_t>(32, NextPow2(lanes))));
  tb.gathered_partitions = static_cast<int>(block.pairs.size());

  const int micro_per_warp = std::max(1, 32 / block.micro_threads);
  int64_t effective = 0;
  int64_t useful = 0;
  int64_t warp_issue = 0;
  int64_t crit = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  for (size_t w = 0; w < block.pairs.size();
       w += static_cast<size_t>(micro_per_warp)) {
    const size_t w_end =
        std::min(block.pairs.size(), w + static_cast<size_t>(micro_per_warp));
    int64_t warp_max = 0;
    for (size_t k = w; k < w_end; ++k) {
      const size_t pair = static_cast<size_t>(block.pairs[k]);
      const int64_t col = workload.a_col_nnz[pair];
      const int64_t row = workload.b_row_nnz[pair];
      warp_max = std::max(warp_max, col);
      effective += row;
      useful += col * row;
      bytes_read += kElementBytes * (col + row);
      bytes_written += kElementBytes * col * row;
    }
    warp_issue += warp_max;
    crit = std::max(crit, warp_max);
  }
  tb.effective_threads =
      static_cast<int>(std::min<int64_t>(effective, tb.threads));
  tb.crit_ops = crit;
  tb.warp_issue_ops = warp_issue;
  tb.useful_lane_ops = useful;
  tb.bytes_read = bytes_read;
  tb.bytes_written = bytes_written;
  tb.shared_mem_bytes = 1024;
  return tb;
}

/// The device-side pre-process: one pass computing block-wise nnz (pair
/// work) and row-wise nnz of C-hat, one pass binning the pairs.
KernelDesc BuildPreprocessKernel(const Workload& workload) {
  KernelDesc k;
  k.label = "reorganizer-preprocess";
  k.phase = Phase::kPreprocess;
  // nnz(A): the column counts sum to exactly the stored entries.
  const int64_t nnz_a = std::accumulate(workload.a_col_nnz.begin(),
                                        workload.a_col_nnz.end(), int64_t{0});
  const int64_t pairs = static_cast<int64_t>(workload.pair_work.size());
  // One fused pass: count block-wise and row-wise nnz while binning the
  // pairs (a histogram over the CSR pointer arrays).
  spgemm::AppendBalancedStreamingBlocks(&k, nnz_a + pairs,
                                        /*bytes_per_element=*/6,
                                        /*ops_per_element=*/1.5);
  return k;
}

/// The workload and classification every entry point starts from:
/// the paper's exact block-wise + row-wise precalculation, then binning.
struct Prepared {
  Workload workload;
  Classification classes;
};

Prepared Prepare(const CsrMatrix& a, const CsrMatrix& b,
                 const ReorganizerConfig& config, spgemm::ExecContext* ctx) {
  Prepared prep;
  {
    metrics::ScopedSpan span(spgemm::TraceOf(ctx), "build-workload");
    prep.workload = spgemm::BuildWorkload(a, b, ctx);
  }
  prep.classes = Classify(prep.workload, config, ctx);
  return prep;
}

}  // namespace

std::vector<Index> BuildDispatchOrder(const Workload& workload,
                                      const Classification& classes,
                                      const ReorganizerConfig& config,
                                      spgemm::ExecContext* ctx) {
  std::vector<Index> order = classes.dominators;
  order.insert(order.end(), classes.normals.begin(), classes.normals.end());
  if (!config.enable_gathering) {
    order.insert(order.end(), classes.low_performers.begin(),
                 classes.low_performers.end());
    return order;
  }
  const GatherPlan gather =
      BuildGatherPlan(workload, classes.low_performers, config, ctx);
  for (const CombinedBlock& block : gather.blocks) {
    order.insert(order.end(), block.pairs.begin(), block.pairs.end());
  }
  order.insert(order.end(), gather.ungathered.begin(),
               gather.ungathered.end());
  return order;
}

SpGemmPlan BlockReorganizerSpGemm::PlanImpl(const Workload& workload,
                                            const gpusim::DeviceSpec& device,
                                            spgemm::ExecContext* ctx) const {
  const Classification classes = Classify(workload, config_, ctx);
  SpGemmPlan plan;
  plan.kernels.push_back(BuildPreprocessKernel(workload));

  // --- Expansion: dominator kernel (split or not). --------------------------
  KernelDesc dominators;
  dominators.label = "expansion-dominators";
  dominators.phase = Phase::kExpansion;
  int64_t copied_elements = 0;
  if (config_.enable_splitting && !classes.dominators.empty()) {
    const SplitPlan split =
        BuildSplitPlan(workload, classes.dominators, config_, device, ctx);
    copied_elements = split.copied_elements;
    for (const SplitVector& v : split.vectors) {
      const size_t pair = static_cast<size_t>(v.pair);
      const int64_t row_nnz = workload.b_row_nnz[pair];
      const int64_t row_bytes = kElementBytes * row_nnz;
      for (int f = 0; f < v.factor; ++f) {
        const int64_t frag_cols = v.offsets[static_cast<size_t>(f) + 1] -
                                  v.offsets[static_cast<size_t>(f)];
        if (frag_cols <= 0) continue;
        PairBlockParams p;
        p.col_nnz = frag_cols;
        p.row_nnz = row_nnz;
        p.block_size = config_.block_size;
        // All fragments after the first re-read a row vector that a
        // sibling already pulled through the L2.
        p.shared_read_bytes = f == 0 ? 0 : row_bytes;
        dominators.blocks.push_back(MakePairBlock(p));
      }
    }
  } else {
    for (Index pair : classes.dominators) {
      PairBlockParams p;
      p.col_nnz = workload.a_col_nnz[static_cast<size_t>(pair)];
      p.row_nnz = workload.b_row_nnz[static_cast<size_t>(pair)];
      p.block_size = config_.block_size;
      dominators.blocks.push_back(MakePairBlock(p));
    }
  }
  if (!dominators.blocks.empty()) {
    plan.kernels.push_back(std::move(dominators));
  }

  // --- Expansion: normal + gathered kernel. ---------------------------------
  KernelDesc expansion;
  expansion.label = "expansion-main";
  expansion.phase = Phase::kExpansion;
  expansion.flops = workload.flops;
  for (Index pair : classes.normals) {
    PairBlockParams p;
    p.col_nnz = workload.a_col_nnz[static_cast<size_t>(pair)];
    p.row_nnz = workload.b_row_nnz[static_cast<size_t>(pair)];
    p.block_size = config_.block_size;
    expansion.blocks.push_back(MakePairBlock(p));
  }
  if (config_.enable_gathering && !classes.low_performers.empty()) {
    const GatherPlan gather =
        BuildGatherPlan(workload, classes.low_performers, config_, ctx);
    for (const CombinedBlock& block : gather.blocks) {
      expansion.blocks.push_back(
          MakeGatheredBlock(workload, block, config_.block_size));
    }
    for (Index pair : gather.ungathered) {
      PairBlockParams p;
      p.col_nnz = workload.a_col_nnz[static_cast<size_t>(pair)];
      p.row_nnz = workload.b_row_nnz[static_cast<size_t>(pair)];
      p.block_size = config_.block_size;
      expansion.blocks.push_back(MakePairBlock(p));
    }
  } else {
    for (Index pair : classes.low_performers) {
      PairBlockParams p;
      p.col_nnz = workload.a_col_nnz[static_cast<size_t>(pair)];
      p.row_nnz = workload.b_row_nnz[static_cast<size_t>(pair)];
      p.block_size = config_.block_size;
      expansion.blocks.push_back(MakePairBlock(p));
    }
  }
  if (!expansion.blocks.empty()) {
    plan.kernels.push_back(std::move(expansion));
  }

  // --- Merge with B-Limiting. ------------------------------------------------
  const spgemm::MergeOptions merge =
      MakeLimitedMergeOptions(classes, config_, ctx);
  for (KernelDesc& k : spgemm::BuildMergeKernels(workload, merge)) {
    plan.kernels.push_back(std::move(k));
  }

  plan.host_seconds = spgemm::HostPreprocessSeconds(
      static_cast<int64_t>(workload.pair_work.size()), copied_elements);
  return plan;
}

std::vector<Index> BlockReorganizerSpGemm::PairOrder(
    const CsrMatrix& a, const CsrMatrix& b, spgemm::ExecContext* ctx) const {
  const Prepared prep = Prepare(a, b, config_, ctx);
  return BuildDispatchOrder(prep.workload, prep.classes, config_, ctx);
}

Result<ReorganizerReport> BlockReorganizerSpGemm::Analyze(
    const CsrMatrix& a, const CsrMatrix& b, const gpusim::DeviceSpec& device,
    spgemm::ExecContext* ctx) const {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("dimension mismatch in Analyze");
  }
  metrics::ScopedSpan span(spgemm::TraceOf(ctx), "analyze:" + name());
  const Prepared prep = Prepare(a, b, config_, ctx);
  const Workload& workload = prep.workload;
  const Classification& classes = prep.classes;

  ReorganizerReport report;
  report.dominators = static_cast<int64_t>(classes.dominators.size());
  report.low_performers = static_cast<int64_t>(classes.low_performers.size());
  report.normals = static_cast<int64_t>(classes.normals.size());
  report.nonzero_pairs =
      report.dominators + report.low_performers + report.normals;
  report.limited_rows = static_cast<int64_t>(classes.limited_rows.size());
  report.dominator_threshold = classes.dominator_threshold;
  report.limit_row_threshold = classes.limit_row_threshold;

  if (config_.enable_splitting) {
    const SplitPlan split =
        BuildSplitPlan(workload, classes.dominators, config_, device, ctx);
    report.fragments = split.total_fragments;
  }
  if (config_.enable_gathering) {
    const GatherPlan gather =
        BuildGatherPlan(workload, classes.low_performers, config_, ctx);
    report.combined_blocks = static_cast<int64_t>(gather.blocks.size());
    report.gathered_pairs = gather.gathered_pairs;
  }
  return report;
}

Result<std::unique_ptr<spgemm::SpGemmAlgorithm>> MakeBlockReorganizer(
    ReorganizerConfig config, std::string display_name) {
  SPNET_RETURN_IF_ERROR(config.Validate());
  return {std::make_unique<BlockReorganizerSpGemm>(config,
                                                   std::move(display_name))};
}

void RegisterCoreAlgorithms() {
  static const bool registered = [] {
    auto& registry = spgemm::AlgorithmRegistry::Global();
    auto add = [&registry](const std::string& name, ReorganizerConfig config,
                           const std::string& display_name) {
      const Status s = registry.Register(name, [config, display_name] {
        return MakeBlockReorganizer(config, display_name);
      });
      (void)s;  // only AlreadyExists, and this block runs once
    };
    add("reorganizer", {}, "");

    ReorganizerConfig limiting_only;
    limiting_only.enable_splitting = false;
    limiting_only.enable_gathering = false;
    add("reorganizer-limiting", limiting_only, "B-Limiting");

    ReorganizerConfig splitting_only;
    splitting_only.enable_gathering = false;
    splitting_only.enable_limiting = false;
    add("reorganizer-splitting", splitting_only, "B-Splitting");

    ReorganizerConfig gathering_only;
    gathering_only.enable_splitting = false;
    gathering_only.enable_limiting = false;
    add("reorganizer-gathering", gathering_only, "B-Gathering");
    return true;
  }();
  (void)registered;
}

}  // namespace core
}  // namespace spnet
