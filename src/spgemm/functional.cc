#include "spgemm/functional.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/huge_pages.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "sparse/stats.h"
#include "spgemm/exec_context.h"
#include "verify/fault_injection.h"

namespace spnet {
namespace spgemm {

using sparse::CsrMatrix;
using sparse::Index;
using sparse::Offset;
using sparse::SpanView;
using sparse::Value;

namespace {

Status CheckDims(const CsrMatrix& a, const CsrMatrix& b) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument(
        "dimension mismatch: " + std::to_string(a.cols()) + " vs " +
        std::to_string(b.rows()));
  }
  return Status::Ok();
}

/// Dispatch rank of every pair: its position in `pair_order`. Pairs the
/// order omits share the rank after every listed pair, so sorting a row's
/// entries by (rank, position) keeps them in stored order.
Result<std::vector<Index>> PairRanks(std::span<const Index> pair_order,
                                     Index pairs) {
  if (pair_order.size() > static_cast<size_t>(pairs)) {
    return Status::InvalidArgument("pair order lists " +
                                   std::to_string(pair_order.size()) +
                                   " pairs, more than the " +
                                   std::to_string(pairs) + " that exist");
  }
  std::vector<Index> rank(static_cast<size_t>(pairs), -1);
  for (size_t pos = 0; pos < pair_order.size(); ++pos) {
    const Index pair = pair_order[pos];
    if (pair < 0 || pair >= pairs || rank[static_cast<size_t>(pair)] >= 0) {
      return Status::InvalidArgument("pair order entry " +
                                     std::to_string(pair) +
                                     " is out of range or repeated");
    }
    rank[static_cast<size_t>(pair)] = static_cast<Index>(pos);
  }
  const Index unlisted = static_cast<Index>(pair_order.size());
  for (Index& r : rank) {
    if (r < 0) r = unlisted;
  }
  return rank;
}

/// Row boundaries of about eight chunks per thread holding equal C-hat
/// element counts (plus one unit per row, so runs of empty rows spread
/// too). Every pass walks the same chunks; a row is never split, so which
/// thread runs a chunk cannot change the result.
std::vector<Index> BalancedRowChunks(const std::vector<Offset>& chat_ptr,
                                     int threads) {
  const Index rows = static_cast<Index>(chat_ptr.size() - 1);
  const int64_t chunks = std::clamp<int64_t>(int64_t{threads} * 8, 1,
                                             std::max<int64_t>(rows, 1));
  const int64_t step =
      CeilDiv(chat_ptr[static_cast<size_t>(rows)] + rows, chunks);
  std::vector<Index> bounds(static_cast<size_t>(chunks) + 1, rows);
  bounds[0] = 0;
  Index r = 0;
  for (int64_t c = 1; c < chunks; ++c) {
    while (r < rows && chat_ptr[static_cast<size_t>(r)] + r < step * c) ++r;
    bounds[static_cast<size_t>(c)] = r;
  }
  return bounds;
}

/// Runs `fn(row, thread_index)` for every row, chunk by chunk.
template <typename RowFn>
Status ForEachRow(ThreadPool& pool, const std::vector<Index>& bounds,
                  const RowFn& fn) {
  return pool.ParallelFor(
      0, static_cast<int64_t>(bounds.size()) - 1, 1,
      [&](int64_t chunk_begin, int64_t chunk_end, int thread_index) {
        for (int64_t c = chunk_begin; c < chunk_end; ++c) {
          for (Index r = bounds[static_cast<size_t>(c)];
               r < bounds[static_cast<size_t>(c) + 1]; ++r) {
            fn(r, thread_index);
          }
        }
        return Status::Ok();
      });
}

/// Distinct output columns of row r: its pairs' B rows walked against
/// the row stamps in `map` (`map[c] != r` means column c is new to row r),
/// which need no clearing between rows.
Offset CountDistinctColumns(const CsrMatrix& a, const CsrMatrix& b, Index r,
                            Index* map) {
  const SpanView arow = a.Row(r);
  Offset distinct = 0;
  for (Offset k = 0; k < arow.size; ++k) {
    const SpanView brow = b.Row(arow.indices[k]);
    for (Offset l = 0; l < brow.size; ++l) {
      Index& stamp = map[brow.indices[l]];
      if (stamp != r) {
        stamp = r;
        ++distinct;
      }
    }
  }
  return distinct;
}

/// Adds `av` times the B row `brow` to the output row being merged at
/// `cols`/`vals`, which holds `n` columns in first-touch order and their
/// running sums, and returns the row's new length. A new column gets 0.0
/// plus its product, the same additions a zeroed dense accumulator makes.
/// `map[c]` is column c's position in the row, trusted only when `cols`
/// holds c there, so values left by earlier rows or by the symbolic pass
/// never need clearing.
Index AccumulatePair(const SpanView& brow, Value av, Index* map, Index* cols,
                     Value* vals, Index n) {
  for (Offset l = 0; l < brow.size; ++l) {
    const Index c = brow.indices[l];
    // A separate statement, so the product is rounded before the add
    // (never fused into an FMA) exactly as a stored C-hat entry was.
    const Value product = av * brow.values[l];
    const Index p = map[c];
    if (p >= 0 && p < n && cols[p] == c) {
      vals[p] += product;
    } else {
      map[c] = n;
      cols[n] = c;
      vals[n++] = 0.0 + product;
    }
  }
  return n;
}

/// Resizes the empty `v` to `n` zeroed elements without a serial
/// page-fault storm: the storage is reserved and advised onto huge pages,
/// the pool's workers first touch one byte per page of it, and resize()'s
/// zero fill then runs at memory bandwidth. The touched bytes are raw
/// allocated storage; no element lives there until resize()
/// value-initialises it.
template <typename T>
void ResizeFirstTouchedByPool(ThreadPool& pool, size_t n, std::vector<T>* v) {
  v->reserve(n);
  AdviseHugePages(v->data(), n * sizeof(T));
  unsigned char* bytes = reinterpret_cast<unsigned char*>(v->data());
  constexpr int64_t kPageBytes = 4096;
  const int64_t pages =
      CeilDiv(static_cast<int64_t>(n * sizeof(T)), kPageBytes);
  SPNET_CHECK_OK(pool.ParallelFor(
      0, pages, GrainForItems(pages, pool.threads()),
      [&](int64_t page_begin, int64_t page_end, int) {
        for (int64_t p = page_begin; p < page_end; ++p) {
          bytes[p * kPageBytes] = 0;
        }
        return Status::Ok();
      }));
  v->resize(n);
}

}  // namespace

Result<std::vector<Offset>> ChatOffsets(const std::vector<int64_t>& row_chat) {
  std::vector<Offset> chat_ptr(row_chat.size() + 1, 0);
  bool saturated = false;
  for (size_t r = 0; r < row_chat.size(); ++r) {
    chat_ptr[r + 1] = SatAddI64(chat_ptr[r], row_chat[r], &saturated);
  }
  constexpr size_t kElementBytes = sizeof(Index) + sizeof(Value);
  if (saturated || static_cast<uint64_t>(chat_ptr.back()) >
                       std::numeric_limits<size_t>::max() / kElementBytes) {
    return Status::ResourceExhausted(
        saturated ? "C-hat element count overflows int64"
                  : "C-hat of " + std::to_string(chat_ptr.back()) +
                        " elements does not fit in memory");
  }
  return chat_ptr;
}

Result<CsrMatrix> ExpandMerge(const CsrMatrix& a, const CsrMatrix& b,
                              std::span<const Index> pair_order,
                              ExecContext* ctx) {
  SPNET_RETURN_IF_ERROR(CheckDims(a, b));
  std::vector<Index> rank;
  if (!pair_order.empty()) {
    SPNET_ASSIGN_OR_RETURN(rank, PairRanks(pair_order, a.cols()));
  }
  const Index rows = a.rows();
  const Index cols = b.cols();
  ThreadPool& pool = GlobalThreadPool();

  // The row-wise C-hat counts (the paper precalculates exactly these)
  // balance the chunks and bound the output; C-hat itself is never built.
  SPNET_ASSIGN_OR_RETURN(const std::vector<Offset> chat_ptr,
                         ChatOffsets(sparse::SpGemmRowFlops(a, b)));
  const std::vector<Index> chunks =
      BalancedRowChunks(chat_ptr, pool.threads());
  auto chat_count = [&](Index r) {
    return chat_ptr[static_cast<size_t>(r) + 1] -
           chat_ptr[static_cast<size_t>(r)];
  };
  // One column map per thread, shared by both passes and never cleared:
  // row stamps in the symbolic pass, positions in the numeric pass.
  std::vector<std::vector<Index>> maps(
      static_cast<size_t>(pool.threads()),
      std::vector<Index>(static_cast<size_t>(cols), -1));

  std::vector<Offset> ptr(static_cast<size_t>(rows) + 1, 0);
  {
    // Symbolic pass: enumerate every product and count each row's distinct
    // columns, then one scan gives the exact row pointers.
    metrics::ScopedSpan span(TraceOf(ctx), "expand");
    SPNET_CHECK_OK(ForEachRow(pool, chunks, [&](Index r, int thread_index) {
      const Offset products = chat_count(r);
      ptr[static_cast<size_t>(r) + 1] =
          products <= 1
              ? products
              : CountDistinctColumns(
                    a, b, r, maps[static_cast<size_t>(thread_index)].data());
    }));
    for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
      ptr[r + 1] += ptr[r];
    }
  }
  AddCounter(ctx, "expand.products", chat_ptr.back());

  std::vector<Index> out_idx;
  std::vector<Value> out_val;
  {
    // Numeric pass: row r merges A(r,i) times row i of B, pair by pair in
    // dispatch order, straight into the output at ptr[r].
    metrics::ScopedSpan span(TraceOf(ctx), "merge");
    // The exact output arrays are the largest transient allocation in the
    // pipeline; a fault here models expansion-phase OOM on the device.
    SPNET_RETURN_IF_ERROR(verify::MaybeInjectFault(verify::kSiteChatAlloc));
    ResizeFirstTouchedByPool(pool, static_cast<size_t>(ptr.back()), &out_idx);
    ResizeFirstTouchedByPool(pool, static_cast<size_t>(ptr.back()), &out_val);
    std::vector<std::vector<std::pair<Index, Offset>>> by_rank(
        rank.empty() ? 0 : static_cast<size_t>(pool.threads()));
    const std::vector<Offset>& a_ptr = a.ptr();
    const Index* a_idx = a.indices().data();
    const Value* a_val = a.values().data();
    SPNET_CHECK_OK(ForEachRow(pool, chunks, [&](Index r, int thread_index) {
      const Offset begin = a_ptr[static_cast<size_t>(r)];
      const Offset end = a_ptr[static_cast<size_t>(r) + 1];
      Index* row_cols = out_idx.data() + ptr[static_cast<size_t>(r)];
      Value* row_vals = out_val.data() + ptr[static_cast<size_t>(r)];
      if (chat_count(r) <= 1) {
        // At most one product: copied as is, so a -0.0 stays -0.0.
        for (Offset k = begin; k < end; ++k) {
          const SpanView brow = b.Row(a_idx[k]);
          if (brow.size == 0) continue;
          row_cols[0] = brow.indices[0];
          row_vals[0] = a_val[k] * brow.values[0];
        }
        return;
      }
      Index* map = maps[static_cast<size_t>(thread_index)].data();
      Index count = 0;
      auto merge_pair = [&](Offset k) {
        count = AccumulatePair(b.Row(a_idx[k]), a_val[k], map, row_cols,
                               row_vals, count);
      };
      if (rank.empty()) {
        for (Offset k = begin; k < end; ++k) merge_pair(k);
        return;
      }
      std::vector<std::pair<Index, Offset>>& entries =
          by_rank[static_cast<size_t>(thread_index)];
      entries.clear();
      for (Offset k = begin; k < end; ++k) {
        entries.emplace_back(rank[static_cast<size_t>(a_idx[k])], k);
      }
      std::sort(entries.begin(), entries.end());
      for (const auto& entry : entries) merge_pair(entry.second);
    }));
  }
  AddCounter(ctx, "merge.output_nnz", ptr.back());
  return CsrMatrix::FromParts(rows, cols, std::move(ptr), std::move(out_idx),
                              std::move(out_val));
}

}  // namespace spgemm
}  // namespace spnet
