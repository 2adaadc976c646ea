#ifndef SPNET_SPGEMM_FUNCTIONAL_H_
#define SPNET_SPGEMM_FUNCTIONAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "sparse/csr_matrix.h"

namespace spnet {
namespace spgemm {

struct ExecContext;

/// Row-wise C-hat offsets: the prefix sum of `row_chat` (length rows + 1).
/// ResourceExhausted when the total saturates int64 or its (column,
/// value) storage would not fit in size_t bytes, so a caller never sizes
/// work or memory from a saturated lower bound.
Result<std::vector<sparse::Offset>> ChatOffsets(
    const std::vector<int64_t>& row_chat);

/// The host numeric kernel every algorithm's Compute runs: the products
/// of an outer-product expansion over a pair dispatch order, merged row
/// by row into exact CSR.
///
/// `pair_order` lists A's columns (B's rows) in dispatch order. Within
/// each output row, products are accumulated pair by pair in that order,
/// and columns are emitted in first-touch order (unordered CSR, like the
/// paper's kernels). Pairs the order omits follow every listed pair; an
/// empty order is the natural order, A's rows as stored (increasing pair
/// index for sorted rows), which is also the row-product expansion order.
/// InvalidArgument for an out-of-range or repeated pair.
///
/// No C-hat is built on the host. A symbolic pass counts each row's
/// distinct columns, the output is allocated exactly and first touched by
/// the pool's workers, and a numeric pass merges each row's products
/// straight into its output slice. The result is bit-identical to merging
/// a materialised C-hat in layout order (a row's only product is copied
/// as is, so -0.0 survives). Every row is produced by one thread in a
/// fixed order, so the result is also bit-identical for any thread count.
/// Records the "expand" (symbolic) and "merge" (numeric) spans plus the
/// expand.products and merge.output_nnz counters on `ctx`. The
/// core.chat.alloc fault site guards the output allocation.
Result<sparse::CsrMatrix> ExpandMerge(
    const sparse::CsrMatrix& a, const sparse::CsrMatrix& b,
    std::span<const sparse::Index> pair_order = {},
    ExecContext* ctx = nullptr);

}  // namespace spgemm
}  // namespace spnet

#endif  // SPNET_SPGEMM_FUNCTIONAL_H_
