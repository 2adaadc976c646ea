#include "spgemm/functional.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/parallel.h"
#include "sparse/row_scratch.h"
#include "sparse/stats.h"
#include "spgemm/exec_context.h"
#include "verify/fault_injection.h"

namespace spnet {
namespace spgemm {

using sparse::CsrMatrix;
using sparse::Index;
using sparse::Offset;
using sparse::RowScratch;
using sparse::RowScratchArena;
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

/// Merges the `count` (col, val) elements at `cols`/`vals` with the dense
/// accumulator in `s` and writes the merged row back over their prefix,
/// in first-touch order. Returns the merged length. The first-touch
/// column list grows over the front of `cols` while it is read; its end
/// never passes the read position, so no unread element is overwritten.
Offset MergeInPlace(Index* cols, Value* vals, Offset count, RowScratch* s) {
  if (count <= 1) return count;
  Offset merged = 0;
  for (Offset k = 0; k < count; ++k) {
    const Index c = cols[k];
    if (!s->touched[static_cast<size_t>(c)]) {
      s->touched[static_cast<size_t>(c)] = 1;
      cols[merged++] = c;
    }
    s->acc[static_cast<size_t>(c)] += vals[k];
  }
  for (Offset slot = 0; slot < merged; ++slot) {
    const size_t c = static_cast<size_t>(cols[slot]);
    vals[slot] = s->acc[c];
    s->acc[c] = 0.0;
    s->touched[c] = 0;
  }
  return merged;
}

/// Resizes the empty `v` to `n` zeroed elements without a serial
/// page-fault storm: the storage is reserved, the pool's workers first
/// touch one byte per page of it, and resize()'s zero fill then runs at
/// memory bandwidth. The touched bytes are raw allocated storage; no
/// element lives there until resize() value-initialises it.
template <typename T>
void ResizeFirstTouchedByPool(ThreadPool& pool, size_t n, std::vector<T>* v) {
  v->reserve(n);
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

  // Relocation regions from the row-wise C-hat sizes (the paper
  // precalculates exactly this), then one allocation. The storage is left
  // uninitialised: the expansion overwrites every element, so the
  // workers, not a serial memset, take the first-touch page faults.
  SPNET_ASSIGN_OR_RETURN(const std::vector<Offset> chat_ptr,
                         ChatOffsets(sparse::SpGemmRowFlops(a, b)));
  const Offset total = chat_ptr.back();
  // The C-hat buffers are the largest transient allocation in the
  // pipeline; a fault here models expansion-phase OOM on the device.
  SPNET_RETURN_IF_ERROR(verify::MaybeInjectFault(verify::kSiteChatAlloc));
  auto chat_cols =
      std::make_unique_for_overwrite<Index[]>(static_cast<size_t>(total));
  auto chat_vals =
      std::make_unique_for_overwrite<Value[]>(static_cast<size_t>(total));
  const std::vector<Index> chunks =
      BalancedRowChunks(chat_ptr, pool.threads());

  {
    // Expansion: row r's region receives, pair by pair in dispatch order,
    // A(r,i) times row i of B. Writing row by row is the column-major
    // scatter's result without its cursor races.
    metrics::ScopedSpan span(TraceOf(ctx), "expand");
    std::vector<std::vector<std::pair<Index, Offset>>> by_rank(
        rank.empty() ? 0 : static_cast<size_t>(pool.threads()));
    const std::vector<Offset>& a_ptr = a.ptr();
    const Index* a_idx = a.indices().data();
    const Value* a_val = a.values().data();
    SPNET_CHECK_OK(ForEachRow(pool, chunks, [&](Index r, int thread_index) {
      Offset cur = chat_ptr[static_cast<size_t>(r)];
      auto expand_pair = [&](Offset k) {
        const SpanView brow = b.Row(a_idx[k]);
        const Value av = a_val[k];
        std::copy_n(brow.indices, brow.size, chat_cols.get() + cur);
        Value* out = chat_vals.get() + cur;
        for (Offset l = 0; l < brow.size; ++l) out[l] = av * brow.values[l];
        cur += brow.size;
      };
      const Offset begin = a_ptr[static_cast<size_t>(r)];
      const Offset end = a_ptr[static_cast<size_t>(r) + 1];
      if (rank.empty()) {
        for (Offset k = begin; k < end; ++k) expand_pair(k);
        return;
      }
      std::vector<std::pair<Index, Offset>>& entries =
          by_rank[static_cast<size_t>(thread_index)];
      entries.clear();
      for (Offset k = begin; k < end; ++k) {
        entries.emplace_back(rank[static_cast<size_t>(a_idx[k])], k);
      }
      std::sort(entries.begin(), entries.end());
      for (const auto& entry : entries) expand_pair(entry.second);
    }));
  }
  AddCounter(ctx, "expand.products", total);

  std::vector<Offset> ptr(static_cast<size_t>(rows) + 1, 0);
  std::vector<Index> out_idx;
  std::vector<Value> out_val;
  {
    // Merge each region in place, then one scan and one parallel
    // compaction produce the exact CSR.
    metrics::ScopedSpan span(TraceOf(ctx), "merge");
    RowScratchArena arena(pool.threads(), cols);
    SPNET_CHECK_OK(ForEachRow(pool, chunks, [&](Index r, int thread_index) {
      const Offset begin = chat_ptr[static_cast<size_t>(r)];
      ptr[static_cast<size_t>(r) + 1] =
          MergeInPlace(chat_cols.get() + begin, chat_vals.get() + begin,
                       chat_ptr[static_cast<size_t>(r) + 1] - begin,
                       &arena.at(thread_index));
    }));
    for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
      ptr[r + 1] += ptr[r];
    }
    ResizeFirstTouchedByPool(pool, static_cast<size_t>(ptr.back()), &out_idx);
    ResizeFirstTouchedByPool(pool, static_cast<size_t>(ptr.back()), &out_val);
    SPNET_CHECK_OK(ForEachRow(pool, chunks, [&](Index r, int) {
      const Offset from = chat_ptr[static_cast<size_t>(r)];
      const Offset to = ptr[static_cast<size_t>(r)];
      const Offset n = ptr[static_cast<size_t>(r) + 1] - to;
      std::copy_n(chat_cols.get() + from, n, out_idx.data() + to);
      std::copy_n(chat_vals.get() + from, n, out_val.data() + to);
    }));
  }
  AddCounter(ctx, "merge.output_nnz", ptr.back());
  return CsrMatrix::FromParts(rows, cols, std::move(ptr), std::move(out_idx),
                              std::move(out_val));
}

}  // namespace spgemm
}  // namespace spnet
