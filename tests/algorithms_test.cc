#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/block_reorganizer.h"
#include "core/suite.h"
#include "core/workload_classifier.h"
#include "datasets/generators.h"
#include "spgemm/algorithm.h"
#include "spgemm/functional.h"
#include "sparse/reference_spgemm.h"
#include "sparse/stats.h"
#include "spgemm/workload_model.h"
#include "tests/test_util.h"

namespace spnet {
namespace spgemm {
namespace {

using sparse::CsrMatrix;
using sparse::Index;
using sparse::Offset;
using sparse::SpanView;
using sparse::Value;

// One generated input per row: the functional correctness sweep runs
// every algorithm against the reference on each of these.
struct MatrixCase {
  const char* name;
  CsrMatrix (*make)(uint64_t seed);
};

CsrMatrix MakeUniform(uint64_t seed) {
  return testing_util::RandomMatrix(120, 120, 0.04, seed);
}
CsrMatrix MakeSkewed(uint64_t seed) {
  return testing_util::SkewedMatrix(150, 90, seed);
}
CsrMatrix MakeRmat(uint64_t seed) {
  datasets::RmatParams p;
  p.scale = 8;
  p.edge_count = 1200;
  p.seed = seed;
  auto m = datasets::GenerateRmat(p);
  SPNET_CHECK(m.ok());
  return std::move(m).value();
}
CsrMatrix MakeBanded(uint64_t seed) {
  datasets::QuasiRegularParams p;
  p.n = 200;
  p.nnz = 2400;
  p.seed = seed;
  auto m = datasets::GenerateQuasiRegular(p);
  SPNET_CHECK(m.ok());
  return std::move(m).value();
}
CsrMatrix MakeEmptyRows(uint64_t seed) {
  // Half the rows empty; exercises zero-work pairs.
  Rng rng(seed);
  sparse::CooMatrix coo(100, 100);
  for (int r = 0; r < 100; r += 2) {
    for (int k = 0; k < 4; ++k) {
      coo.Add(r, static_cast<sparse::Index>(rng.NextBounded(100)), 1.0);
    }
  }
  auto m = CsrMatrix::FromCoo(coo);
  SPNET_CHECK(m.ok());
  return std::move(m).value();
}

const MatrixCase kCases[] = {
    {"uniform", MakeUniform},  {"skewed", MakeSkewed},
    {"rmat", MakeRmat},        {"banded", MakeBanded},
    {"empty_rows", MakeEmptyRows},
};

using CaseAlgParam = std::tuple<int, int>;

const char* const kAlgNames[] = {"row_product", "outer_product", "cusparse",
                                 "cusp",        "bhsparse",      "mkl",
                                 "block_reorganizer"};

class AlgorithmCorrectnessTest
    : public ::testing::TestWithParam<CaseAlgParam> {};

TEST_P(AlgorithmCorrectnessTest, SquareMatchesReference) {
  const auto [case_idx, alg_idx] = GetParam();
  const CsrMatrix a = kCases[case_idx].make(1000 + case_idx);
  const auto algorithms = core::MakeAllAlgorithms();
  ASSERT_LT(static_cast<size_t>(alg_idx), algorithms.size());
  const auto& alg = algorithms[static_cast<size_t>(alg_idx)];

  auto expected = sparse::ReferenceSpGemm(a, a);
  ASSERT_TRUE(expected.ok());
  auto got = alg->Compute(a, a);
  ASSERT_TRUE(got.ok()) << alg->name() << ": " << got.status().ToString();
  EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-9))
      << alg->name() << " on " << kCases[case_idx].name;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllCases, AlgorithmCorrectnessTest,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 7)),
    [](const ::testing::TestParamInfo<CaseAlgParam>& param_info) {
      return std::string(kCases[std::get<0>(param_info.param)].name) + "_" +
             kAlgNames[std::get<1>(param_info.param)];
    });

class RectangularProductTest : public ::testing::TestWithParam<int> {};

TEST_P(RectangularProductTest, AbMatchesReference) {
  const CsrMatrix a = testing_util::RandomMatrix(70, 110, 0.05, 7);
  const CsrMatrix b = testing_util::RandomMatrix(110, 50, 0.06, 8);
  const auto algorithms = core::MakeAllAlgorithms();
  const auto& alg = algorithms[static_cast<size_t>(GetParam())];
  auto expected = sparse::ReferenceSpGemm(a, b);
  auto got = alg->Compute(a, b);
  ASSERT_TRUE(expected.ok() && got.ok()) << alg->name();
  EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-9)) << alg->name();
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, RectangularProductTest,
                         ::testing::Range(0, 7));

TEST(FunctionalTest, ExpandMergeOnEmptyMatrix) {
  sparse::CooMatrix coo(16, 16);
  auto a = CsrMatrix::FromCoo(coo);
  ASSERT_TRUE(a.ok());
  const std::vector<sparse::Index> reversed = {3, 2, 1, 0};
  auto natural = ExpandMerge(*a, *a);
  auto ordered = ExpandMerge(*a, *a, reversed);
  ASSERT_TRUE(natural.ok() && ordered.ok());
  EXPECT_EQ(natural->nnz(), 0);
  EXPECT_EQ(ordered->nnz(), 0);
}

TEST(FunctionalTest, ExpandMergeOrderChangesLayoutNotProduct) {
  const CsrMatrix a = testing_util::RandomMatrix(40, 30, 0.2, 5);
  const CsrMatrix b = testing_util::RandomMatrix(30, 35, 0.2, 6);
  std::vector<sparse::Index> reversed;
  for (sparse::Index i = a.cols() - 1; i >= 0; --i) reversed.push_back(i);
  // A partial order: the listed pairs go first, the rest follow.
  const std::vector<sparse::Index> partial = {7, 3, 29};
  auto expected = sparse::ReferenceSpGemm(a, b);
  ASSERT_TRUE(expected.ok());
  for (const auto& order : {std::vector<sparse::Index>{}, reversed, partial}) {
    auto got = ExpandMerge(a, b, order);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-12));
  }
}

/// Rebuilds `m` row by row; `edit(r, cols, vals)` may reorder, drop or
/// replace row r's entries.
CsrMatrix EditRows(
    const CsrMatrix& m,
    const std::function<void(Index, std::vector<Index>*,
                             std::vector<Value>*)>& edit) {
  std::vector<Offset> ptr = {0};
  std::vector<Index> idx;
  std::vector<Value> val;
  for (Index r = 0; r < m.rows(); ++r) {
    const SpanView row = m.Row(r);
    std::vector<Index> cols(row.indices, row.indices + row.size);
    std::vector<Value> vals(row.values, row.values + row.size);
    edit(r, &cols, &vals);
    idx.insert(idx.end(), cols.begin(), cols.end());
    val.insert(val.end(), vals.begin(), vals.end());
    ptr.push_back(static_cast<Offset>(idx.size()));
  }
  auto out = CsrMatrix::FromParts(m.rows(), m.cols(), std::move(ptr),
                                  std::move(idx), std::move(val));
  SPNET_CHECK(out.ok()) << out.status().ToString();
  return std::move(out).value();
}

/// Serial layout-order oracle. Row r's C-hat is materialised pair by pair
/// in dispatch order (unlisted pairs last, ties in stored order), then
/// merged in layout order: columns in first-touch order, sums started
/// from 0.0, and a row's only product copied as is.
CsrMatrix LayoutOrderOracle(const CsrMatrix& a, const CsrMatrix& b,
                            const std::vector<Index>& order) {
  std::vector<size_t> rank(static_cast<size_t>(a.cols()), order.size());
  for (size_t pos = 0; pos < order.size(); ++pos) {
    rank[static_cast<size_t>(order[pos])] = pos;
  }
  std::vector<Offset> ptr = {0};
  std::vector<Index> idx;
  std::vector<Value> val;
  for (Index r = 0; r < a.rows(); ++r) {
    const SpanView arow = a.Row(r);
    std::vector<Offset> pairs(static_cast<size_t>(arow.size));
    std::iota(pairs.begin(), pairs.end(), Offset{0});
    std::stable_sort(pairs.begin(), pairs.end(), [&](Offset x, Offset y) {
      return rank[static_cast<size_t>(arow.indices[x])] <
             rank[static_cast<size_t>(arow.indices[y])];
    });
    std::vector<std::pair<Index, Value>> chat;
    for (Offset k : pairs) {
      const SpanView brow = b.Row(arow.indices[k]);
      for (Offset l = 0; l < brow.size; ++l) {
        chat.emplace_back(brow.indices[l], arow.values[k] * brow.values[l]);
      }
    }
    if (chat.size() == 1) {
      idx.push_back(chat[0].first);
      val.push_back(chat[0].second);
    } else {
      std::vector<Index> first_touch;
      std::map<Index, Value> sums;
      for (const auto& [c, v] : chat) {
        auto [it, fresh] = sums.try_emplace(c, 0.0);
        if (fresh) first_touch.push_back(c);
        it->second += v;
      }
      for (Index c : first_touch) {
        idx.push_back(c);
        val.push_back(sums[c]);
      }
    }
    ptr.push_back(static_cast<Offset>(idx.size()));
  }
  auto out = CsrMatrix::FromParts(a.rows(), b.cols(), std::move(ptr),
                                  std::move(idx), std::move(val));
  SPNET_CHECK(out.ok()) << out.status().ToString();
  return std::move(out).value();
}

TEST(FunctionalTest, ExpandMergeMatchesLayoutOrderOracle) {
  // B's row 0 holds one entry, so pair 0 adds one product to a row.
  const CsrMatrix b = EditRows(
      testing_util::SkewedMatrix(160, 120, 41),
      [](Index r, std::vector<Index>* cols, std::vector<Value>* vals) {
        if (r == 0) {
          *cols = {4};
          *vals = {3.0};
        }
      });
  // A: rows stored rotated by one (unsorted, and neither the natural nor
  // the reversed pair order), every seventh row empty, mixed signs so the
  // summation order shows in the bits, and row 5's only product
  // -0.0 * 3.0 = -0.0.
  const CsrMatrix a = EditRows(
      testing_util::SkewedMatrix(160, 120, 43),
      [](Index r, std::vector<Index>* cols, std::vector<Value>* vals) {
        if (!cols->empty()) {
          std::rotate(cols->begin(), cols->begin() + 1, cols->end());
          std::rotate(vals->begin(), vals->begin() + 1, vals->end());
        }
        for (size_t k = 1; k < vals->size(); k += 2) (*vals)[k] *= -1.0;
        if (r % 7 == 3) {
          cols->clear();
          vals->clear();
        }
        if (r == 5) {
          *cols = {0};
          *vals = {-0.0};
        }
      });
  ASSERT_FALSE(a.RowsSorted());

  std::vector<Index> reversed;
  for (Index i = a.cols() - 1; i >= 0; --i) reversed.push_back(i);
  const spgemm::Workload workload = spgemm::BuildWorkload(a, b);
  const core::ReorganizerConfig config;
  const std::vector<Index> dispatch = core::BuildDispatchOrder(
      workload, core::Classify(workload, config), config);
  ASSERT_FALSE(dispatch.empty());

  const std::pair<const char*, std::vector<Index>> orders[] = {
      {"natural", {}}, {"reversed", reversed}, {"dispatch", dispatch}};
  for (const auto& [name, order] : orders) {
    const CsrMatrix want = LayoutOrderOracle(a, b, order);
    for (int threads : {1, 2, 4, 7}) {
      SetGlobalThreadCount(threads);
      auto got = ExpandMerge(a, b, order);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::string label =
          std::string(name) + " order, " + std::to_string(threads) +
          " threads";
      EXPECT_EQ(want.ptr(), got->ptr()) << label;
      EXPECT_EQ(want.indices(), got->indices()) << label;
      ASSERT_EQ(want.values().size(), got->values().size()) << label;
      size_t differing_bits = 0;
      for (size_t k = 0; k < want.values().size(); ++k) {
        differing_bits += std::bit_cast<uint64_t>(want.values()[k]) !=
                          std::bit_cast<uint64_t>(got->values()[k]);
      }
      EXPECT_EQ(differing_bits, 0u) << label;
      ASSERT_EQ(got->RowNnz(5), 1) << label;
      EXPECT_TRUE(std::signbit(got->values()[static_cast<size_t>(
          got->ptr()[5])]))
          << label << ": a lone -0.0 product must keep its sign";
    }
  }
  SetGlobalThreadCount(0);
}

TEST(FunctionalTest, ExpandMergeRejectsBadPairOrder) {
  const CsrMatrix a = testing_util::RandomMatrix(8, 6, 0.4, 9);
  const std::vector<sparse::Index> out_of_range = {0, 6};
  const std::vector<sparse::Index> negative = {-1};
  const std::vector<sparse::Index> repeated = {2, 1, 2};
  const std::vector<sparse::Index> too_long = {0, 1, 2, 3, 4, 5, 0};
  for (const auto& order : {out_of_range, negative, repeated, too_long}) {
    auto got = ExpandMerge(a, testing_util::RandomMatrix(6, 5, 0.4, 10),
                           order);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FunctionalTest, ChatOffsetsRefuseUnaddressableTotals) {
  auto ok = ChatOffsets({2, 0, 3});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, (std::vector<sparse::Offset>{0, 2, 2, 5}));
  const int64_t max = std::numeric_limits<int64_t>::max();
  // Saturating int64 total: the count is only a lower bound.
  auto saturated = ChatOffsets({max / 2 + 1, max / 2 + 1});
  ASSERT_FALSE(saturated.ok());
  EXPECT_EQ(saturated.status().code(), StatusCode::kResourceExhausted);
  // Representable count whose (column, value) bytes overflow size_t.
  auto too_big = ChatOffsets({max / 4});
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);
}

TEST(FunctionalTest, DimensionMismatchRejectedEverywhere) {
  const CsrMatrix a = testing_util::RandomMatrix(10, 12, 0.3, 1);
  const CsrMatrix b = testing_util::RandomMatrix(10, 12, 0.3, 2);
  for (const auto& alg : core::MakeAllAlgorithms()) {
    EXPECT_FALSE(alg->Compute(a, b).ok()) << alg->name();
    EXPECT_FALSE(alg->Plan(a, b, gpusim::DeviceSpec::TitanXp()).ok())
        << alg->name();
  }
}

TEST(PlanTest, AllAlgorithmsProduceConsistentFlops) {
  const CsrMatrix a = testing_util::SkewedMatrix(200, 120, 90);
  const int64_t flops = sparse::SpGemmFlops(a, a);
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  for (const auto& alg : core::MakeAllAlgorithms()) {
    auto plan = alg->Plan(a, a, device);
    ASSERT_TRUE(plan.ok()) << alg->name();
    EXPECT_EQ(plan->flops, flops) << alg->name();
    EXPECT_GT(plan->output_nnz, 0) << alg->name();
  }
}

TEST(MeasureTest, ProducesPositiveTimings) {
  const CsrMatrix a = testing_util::SkewedMatrix(200, 120, 91);
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  for (const auto& alg : core::MakeAllAlgorithms()) {
    auto m = Measure(*alg, a, a, device);
    ASSERT_TRUE(m.ok()) << alg->name();
    EXPECT_GT(m->total_seconds, 0.0) << alg->name();
    EXPECT_GT(m->Gflops(), 0.0) << alg->name();
    EXPECT_GE(m->total_seconds, m->stats.seconds) << alg->name();
  }
}

TEST(MeasureTest, PhaseSplitCoversDeviceTime) {
  const CsrMatrix a = testing_util::SkewedMatrix(300, 200, 92);
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  const auto outer = MakeOuterProduct();
  auto m = Measure(*outer, a, a, device);
  ASSERT_TRUE(m.ok());
  EXPECT_GT(m->expansion.cycles, 0.0);
  EXPECT_GT(m->merge.cycles, 0.0);
  EXPECT_NEAR(m->expansion.cycles + m->merge.cycles, m->stats.cycles,
              1e-6 + 0.01 * m->stats.cycles);
}

}  // namespace
}  // namespace spgemm
}  // namespace spnet
