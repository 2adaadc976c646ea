#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/batch_runner.h"
#include "engine/manifest.h"
#include "engine/plan_cache.h"
#include "sparse/fingerprint.h"
#include "spgemm/exec_context.h"
#include "tests/test_util.h"

namespace spnet {
namespace engine {
namespace {

using sparse::CsrMatrix;
using sparse::StructuralFingerprint;

std::shared_ptr<const CsrMatrix> SharedSkewed(sparse::Index n,
                                              sparse::Index hub_nnz,
                                              uint64_t seed) {
  return std::make_shared<const CsrMatrix>(
      testing_util::SkewedMatrix(n, hub_nnz, seed));
}

spgemm::SpGemmPlan DummyPlan(int64_t flops) {
  spgemm::SpGemmPlan plan;
  plan.flops = flops;
  plan.output_nnz = flops;
  return plan;
}

// ---------------------------------------------------------------- fingerprint

TEST(FingerprintTest, StableAcrossIdenticalBuilds) {
  const CsrMatrix a = testing_util::SkewedMatrix(64, 32, 7);
  const CsrMatrix b = testing_util::SkewedMatrix(64, 32, 7);
  EXPECT_EQ(StructuralFingerprint(a), StructuralFingerprint(b));
}

TEST(FingerprintTest, IgnoresValues) {
  const CsrMatrix a = testing_util::SkewedMatrix(64, 32, 7);
  // Same structure, different numerics.
  std::vector<sparse::Value> doubled(a.values());
  for (sparse::Value& v : doubled) v *= 2.0;
  auto b = CsrMatrix::FromParts(a.rows(), a.cols(), a.ptr(), a.indices(),
                                std::move(doubled));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(StructuralFingerprint(a), StructuralFingerprint(*b));
}

TEST(FingerprintTest, EmptyMatrixSpellingsShareAKey) {
  // A default-constructed matrix stores an empty ptr array; builder-built
  // empties carry rows()+1 zeros. Same logical structure, same key.
  const CsrMatrix default_built;
  sparse::CooMatrix coo(0, 0);
  auto builder_built = CsrMatrix::FromCoo(coo);
  ASSERT_TRUE(builder_built.ok());
  EXPECT_EQ(StructuralFingerprint(default_built),
            StructuralFingerprint(*builder_built));
}

TEST(FingerprintTest, EmptyMatricesOfDifferentShapesDiffer) {
  sparse::CooMatrix coo3(3, 3);
  sparse::CooMatrix coo4(4, 4);
  sparse::CooMatrix coo34(3, 4);
  auto m3 = CsrMatrix::FromCoo(coo3);
  auto m4 = CsrMatrix::FromCoo(coo4);
  auto m34 = CsrMatrix::FromCoo(coo34);
  ASSERT_TRUE(m3.ok() && m4.ok() && m34.ok());
  EXPECT_NE(StructuralFingerprint(*m3), StructuralFingerprint(*m4));
  EXPECT_NE(StructuralFingerprint(*m3), StructuralFingerprint(*m34));
}

TEST(FingerprintTest, EmptyAndNearEmptyDiffer) {
  sparse::CooMatrix empty(3, 3);
  sparse::CooMatrix one(3, 3);
  one.Add(1, 1, 5.0);
  auto a = CsrMatrix::FromCoo(empty);
  auto b = CsrMatrix::FromCoo(one);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(StructuralFingerprint(*a), StructuralFingerprint(*b));
}

TEST(FingerprintTest, DistinguishesStructures) {
  const CsrMatrix a = testing_util::SkewedMatrix(64, 32, 7);
  const CsrMatrix b = testing_util::SkewedMatrix(64, 32, 8);
  const CsrMatrix c = testing_util::SkewedMatrix(65, 32, 7);
  EXPECT_NE(StructuralFingerprint(a), StructuralFingerprint(b));
  EXPECT_NE(StructuralFingerprint(a), StructuralFingerprint(c));
}

TEST(FingerprintTest, DistinguishesDimsOfEmptyMatrices) {
  // Same (empty) arrays, different dimensions: dims must be hashed too.
  auto a = CsrMatrix::FromParts(0, 5, {0}, {}, {});
  auto b = CsrMatrix::FromParts(0, 6, {0}, {}, {});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(StructuralFingerprint(*a), StructuralFingerprint(*b));
}

TEST(FingerprintTest, CombineIsOrderSensitive) {
  EXPECT_NE(sparse::CombineFingerprints(1, 2),
            sparse::CombineFingerprints(2, 1));
}

// ----------------------------------------------------------------- plan cache

TEST(PlanCacheTest, LruEvictionOrder) {
  PlanCache cache(2);
  const PlanKey k1{1, 1, "x", 0};
  const PlanKey k2{2, 2, "x", 0};
  const PlanKey k3{3, 3, "x", 0};
  cache.Insert(k1, DummyPlan(1));
  cache.Insert(k2, DummyPlan(2));
  // Touch k1 so k2 becomes the least recently used entry.
  ASSERT_NE(cache.Lookup(k1), nullptr);
  cache.Insert(k3, DummyPlan(3));

  EXPECT_EQ(cache.Lookup(k2), nullptr);  // evicted
  auto p1 = cache.Lookup(k1);
  auto p3 = cache.Lookup(k3);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p3, nullptr);
  EXPECT_EQ(p1->flops, 1);
  EXPECT_EQ(p3->flops, 3);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, CapacityZeroDisablesCaching) {
  PlanCache cache(0);
  const PlanKey k{1, 1, "x", 0};
  auto inserted = cache.Insert(k, DummyPlan(1));
  ASSERT_NE(inserted, nullptr);  // caller still gets the shared plan
  EXPECT_EQ(cache.Lookup(k), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, KeysDifferingOnlyInConfigAreDistinct) {
  PlanCache cache(4);
  const PlanKey k1{1, 1, "reorganizer", 10};
  const PlanKey k2{1, 1, "reorganizer", 11};
  cache.Insert(k1, DummyPlan(1));
  EXPECT_EQ(cache.Lookup(k2), nullptr);
  EXPECT_NE(cache.Lookup(k1), nullptr);
}

TEST(PlanCacheTest, RecordsCountersOnContext) {
  spgemm::ExecContext ctx;
  PlanCache cache(1);
  const PlanKey k1{1, 1, "x", 0};
  const PlanKey k2{2, 2, "x", 0};
  EXPECT_EQ(cache.Lookup(k1, &ctx), nullptr);  // miss
  cache.Insert(k1, DummyPlan(1), &ctx);
  EXPECT_NE(cache.Lookup(k1, &ctx), nullptr);  // hit
  cache.Insert(k2, DummyPlan(2), &ctx);        // evicts k1

  const auto snapshot = ctx.registry.Snapshot();
  EXPECT_EQ(snapshot.at("engine.plan_cache.miss"), 1);
  EXPECT_EQ(snapshot.at("engine.plan_cache.hit"), 1);
  EXPECT_EQ(snapshot.at("engine.plan_cache.evict"), 1);
}

TEST(PlanCacheTest, ShardedCacheAggregatesCountersGlobally) {
  // 4 shards, capacity 8: per-shard LRU, but hits/misses/evictions must
  // aggregate across shards so BENCH_engine_batch.json consumers see the
  // same totals a single-shard cache reports.
  PlanCache cache(8, /*shards=*/4);
  EXPECT_EQ(cache.shards(), 4u);
  for (uint64_t i = 0; i < 8; ++i) {
    const PlanKey k{i + 1, i + 1, "x", 0};
    EXPECT_EQ(cache.Lookup(k), nullptr);  // miss
    cache.Insert(k, DummyPlan(static_cast<int64_t>(i)));
    EXPECT_NE(cache.Lookup(k), nullptr);  // hit
  }
  EXPECT_EQ(cache.misses(), 8);
  EXPECT_EQ(cache.hits(), 8);
  // Keys hash unevenly across shards, so a hot shard may already have
  // evicted; the books must still balance globally.
  EXPECT_EQ(cache.size(),
            8u - static_cast<size_t>(cache.evictions()));
  // Push enough new keys to overflow every shard's share of the capacity.
  for (uint64_t i = 100; i < 132; ++i) {
    cache.Insert(PlanKey{i, i, "x", 0}, DummyPlan(1));
  }
  EXPECT_GT(cache.evictions(), 0);
  // Shards never grow past the distributed capacity, and every insert is
  // either resident or evicted.
  EXPECT_LE(cache.size(), 8u);
  EXPECT_EQ(cache.size(), 40u - static_cast<size_t>(cache.evictions()));
}

TEST(PlanCacheTest, SingleShardKeepsExactGlobalLru) {
  // The default shard count must preserve the exact global LRU order the
  // legacy tests (LruEvictionOrder above) rely on.
  PlanCache cache(2);
  EXPECT_EQ(cache.shards(), 1u);
}

// -------------------------------------------------------------- request API

TEST(RequestBuilderTest, BuildsValidatedRequests) {
  const auto m = SharedSkewed(64, 16, 3);
  auto request = RequestBuilder()
                     .Id("r1")
                     .Tenant("team-a")
                     .Priority(2)
                     .DeadlineMs(125.0)
                     .Algorithm("reorganizer")
                     .OperandA(m)
                     .Build();
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->schema_version, kRequestSchemaVersion);
  EXPECT_EQ(request->id, "r1");
  EXPECT_EQ(request->tenant, "team-a");
  EXPECT_EQ(request->priority, 2);
  EXPECT_DOUBLE_EQ(request->deadline_ms, 125.0);
  EXPECT_EQ(request->a.get(), m.get());
}

TEST(RequestBuilderTest, RejectsIncompleteRequests) {
  const auto m = SharedSkewed(64, 16, 3);
  EXPECT_EQ(RequestBuilder().OperandA(m).Build().status().code(),
            StatusCode::kInvalidArgument);  // no id
  EXPECT_EQ(RequestBuilder().Id("r").Build().status().code(),
            StatusCode::kInvalidArgument);  // no A matrix
  EXPECT_EQ(RequestBuilder().Id("r").OperandA(m).Algorithm("").Build()
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // empty algorithm
}

TEST(RequestBuilderTest, NegativeDeadlineNormalizesToInherit) {
  const auto m = SharedSkewed(64, 16, 3);
  auto request =
      RequestBuilder().Id("r").OperandA(m).DeadlineMs(-5.0).Build();
  ASSERT_TRUE(request.ok());
  EXPECT_DOUBLE_EQ(request->deadline_ms, Request::kInheritDeadline);
}

TEST(RequestApiTest, ExecuteRejectsWrongSchemaVersion) {
  const auto m = SharedSkewed(64, 16, 3);
  auto request = RequestBuilder().Id("r").OperandA(m).Build();
  ASSERT_TRUE(request.ok());
  request->schema_version = 99;
  BatchRunner runner(BatchOptions{});
  auto report = runner.Execute({*request});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------- batch runner

std::vector<Request> RepeatedRequests(
    const std::shared_ptr<const CsrMatrix>& m, int n,
    const std::string& algorithm) {
  std::vector<Request> requests;
  for (int i = 0; i < n; ++i) {
    Request r;
    r.id = "q" + std::to_string(i);
    r.a = m;
    r.algorithm = algorithm;
    requests.push_back(std::move(r));
  }
  return requests;
}

TEST(BatchRunnerTest, CacheHitShortCircuitsPlanning) {
  const auto m = SharedSkewed(200, 64, 3);
  BatchOptions options;
  options.plan_cache_capacity = 8;
  BatchRunner runner(options);
  spgemm::ExecContext ctx;

  auto report = runner.Execute(RepeatedRequests(m, 4, "reorganizer"), &ctx);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->succeeded, 4);
  EXPECT_EQ(report->failed, 0);
  // Concurrent identical queries may race the first insert, so the exact
  // hit/miss split is not deterministic — but every query either hit or
  // missed, and at least one miss planned the structure.
  EXPECT_EQ(report->plan_cache_hits + report->plan_cache_misses, 4);
  EXPECT_GE(report->plan_cache_misses, 1);
  for (const Response& r : report->responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.algorithm_used, "reorganizer");
    EXPECT_FALSE(r.fallback_used);
    // Planning is deterministic, so hit or miss the simulation agrees.
    EXPECT_DOUBLE_EQ(r.sim_ms, report->responses[0].sim_ms);
  }

  // A second (warm) batch short-circuits planning on every query.
  auto warm = runner.Execute(RepeatedRequests(m, 4, "reorganizer"), &ctx);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->plan_cache_misses, 0);
  EXPECT_EQ(warm->plan_cache_hits, 4);
  for (const Response& r : warm->responses) {
    EXPECT_TRUE(r.plan_cache_hit);
    EXPECT_DOUBLE_EQ(r.sim_ms, report->responses[0].sim_ms);
  }

  // The counters surfaced through the ExecContext registry too.
  const auto snapshot = ctx.registry.Snapshot();
  EXPECT_GE(snapshot.at("engine.plan_cache.hit"), 4);
  EXPECT_GE(snapshot.at("engine.plan_cache.miss"), 1);
}

TEST(BatchRunnerTest, CachedResultsAgreeWithUncached) {
  const auto m = SharedSkewed(150, 48, 5);
  BatchOptions cached_options;
  cached_options.plan_cache_capacity = 8;
  BatchRunner cached(cached_options);
  BatchOptions uncached_options;
  uncached_options.plan_cache_capacity = 0;
  BatchRunner uncached(uncached_options);

  auto a = cached.Execute(RepeatedRequests(m, 3, "reorganizer"));
  auto b = uncached.Execute(RepeatedRequests(m, 3, "reorganizer"));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(b->plan_cache_hits, 0);
  for (size_t i = 0; i < a->responses.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->responses[i].sim_ms, b->responses[i].sim_ms);
    EXPECT_EQ(a->responses[i].flops, b->responses[i].flops);
    EXPECT_EQ(a->responses[i].output_nnz, b->responses[i].output_nnz);
  }
}

TEST(BatchRunnerTest, DeadlineExpiryIsPerQuery) {
  const auto m = SharedSkewed(200, 64, 3);
  BatchRunner runner(BatchOptions{});

  std::vector<Request> requests = RepeatedRequests(m, 2, "reorganizer");
  // Sub-microsecond budget: expires at the first deadline check. The other
  // query keeps its default (no deadline) and must be unaffected.
  requests[0].deadline_ms = 1e-6;

  auto report = runner.Execute(requests);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->deadline_expired, 1);
  EXPECT_EQ(report->succeeded, 1);
  EXPECT_EQ(report->failed, 0);
  EXPECT_EQ(report->responses[0].status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(report->responses[1].status.ok());
  EXPECT_GT(report->responses[1].sim_ms, 0.0);
}

TEST(BatchRunnerTest, ZeroDeadlineIsBornExpired) {
  const auto m = SharedSkewed(200, 64, 3);
  BatchRunner runner(BatchOptions{});

  std::vector<Request> requests = RepeatedRequests(m, 2, "reorganizer");
  // 0 is an explicit already-expired budget, not "no deadline".
  requests[0].deadline_ms = 0.0;

  auto report = runner.Execute(requests);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->deadline_expired, 1);
  EXPECT_EQ(report->responses[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(report->responses[0].sim_ms, 0.0);  // expired before any work
  EXPECT_TRUE(report->responses[1].status.ok());
}

TEST(BatchRunnerTest, DefaultDeadlineIsInheritedNotOverridden) {
  const auto m = SharedSkewed(200, 64, 3);
  BatchOptions options;
  options.default_deadline_ms = 1e-6;  // expires at the first check
  BatchRunner runner(options);

  std::vector<Request> requests = RepeatedRequests(m, 2, "reorganizer");
  EXPECT_EQ(requests[0].deadline_ms, Request::kInheritDeadline);
  // An explicit per-query budget beats the batch default.
  requests[1].deadline_ms = 1e9;

  auto report = runner.Execute(requests);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->responses[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(report->responses[1].status.ok());
}

TEST(BatchRunnerTest, InvalidReorganizerConfigFallsBackToBaseline) {
  const auto m = SharedSkewed(150, 48, 5);
  BatchOptions options;
  options.reorganizer_config.alpha = -1.0;  // MakeBlockReorganizer refuses
  options.fallback_algorithm = "outer-product";
  BatchRunner runner(options);
  spgemm::ExecContext ctx;

  auto report = runner.Execute(RepeatedRequests(m, 2, "reorganizer"), &ctx);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->succeeded, 2);
  EXPECT_EQ(report->fallbacks, 2);
  for (const Response& r : report->responses) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.fallback_used);
    EXPECT_EQ(r.algorithm_used, "outer-product");
    EXPECT_GT(r.sim_ms, 0.0);
  }
  EXPECT_EQ(ctx.registry.Snapshot().at("engine.batch.fallback"), 2);
}

TEST(BatchRunnerTest, UnknownAlgorithmFallsBackToBaseline) {
  const auto m = SharedSkewed(100, 32, 9);
  BatchRunner runner(BatchOptions{});
  auto report = runner.Execute(RepeatedRequests(m, 1, "no-such-algorithm"));
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->responses.size(), 1u);
  EXPECT_TRUE(report->responses[0].status.ok());
  EXPECT_TRUE(report->responses[0].fallback_used);
  EXPECT_EQ(report->responses[0].algorithm_used, "outer-product");
}

TEST(BatchRunnerTest, UnbuildableFallbackFailsTheRun) {
  const auto m = SharedSkewed(100, 32, 9);
  BatchOptions options;
  options.fallback_algorithm = "no-such-algorithm";
  BatchRunner runner(options);
  auto report = runner.Execute(RepeatedRequests(m, 1, "reorganizer"));
  EXPECT_FALSE(report.ok());
}

TEST(BatchRunnerTest, EmptyBatchIsOk) {
  BatchRunner runner(BatchOptions{});
  auto report = runner.Execute({});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->responses.empty());
  EXPECT_EQ(report->succeeded, 0);
}

TEST(BatchRunnerTest, MissingMatrixIsInvalidArgument) {
  BatchRunner runner(BatchOptions{});
  Request request;
  request.id = "no-matrix";
  auto report = runner.Execute({request});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------- manifest

TEST(ManifestTest, ParsesEntriesCommentsAndRepeats) {
  auto entries = ParseManifest(
      "# production-ish mix\n"
      "as-caida reorganizer 3\n"
      "\n"
      "emailEnron row-product   # inline comment\n"
      "graphs/web.mtx\n");
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].source, "as-caida");
  EXPECT_EQ((*entries)[0].algorithm, "reorganizer");
  EXPECT_EQ((*entries)[0].repeat, 3);
  EXPECT_EQ((*entries)[1].algorithm, "row-product");
  EXPECT_EQ((*entries)[1].repeat, 1);
  EXPECT_EQ((*entries)[2].source, "graphs/web.mtx");
  EXPECT_EQ((*entries)[2].algorithm, "reorganizer");
}

TEST(ManifestTest, StripsTrailingCarriageReturns) {
  // Windows-edited manifests carry \r\n line endings; the \r must not
  // stick to the last token of each line.
  auto entries = ParseManifest(
      "as-caida reorganizer 3\r\n"
      "emailEnron row-product\r\n"
      "graphs/web.mtx\r\n");
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].repeat, 3);
  EXPECT_EQ((*entries)[1].algorithm, "row-product");
  EXPECT_EQ((*entries)[2].source, "graphs/web.mtx");
}

TEST(ManifestTest, RejectsMalformedRepeat) {
  EXPECT_FALSE(ParseManifest("as-caida reorganizer zero\n").ok());
  EXPECT_FALSE(ParseManifest("as-caida reorganizer 0\n").ok());
  EXPECT_FALSE(ParseManifest("as-caida reorganizer -2\n").ok());
  EXPECT_FALSE(ParseManifest("as-caida reorganizer 2 extra\n").ok());
}

TEST(ManifestTest, BuildRequestsSharesRepeatedSources) {
  std::vector<ManifestEntry> entries;
  entries.push_back({"as-caida", "reorganizer", 2});
  entries.push_back({"as-caida", "row-product", 1});
  ManifestLoadOptions options;
  options.scale = 0.05;
  auto requests = BuildRequests(entries, options);
  ASSERT_TRUE(requests.ok()) << requests.status().ToString();
  ASSERT_EQ(requests->size(), 3u);
  // One load, shared by all three requests.
  EXPECT_EQ((*requests)[0].a.get(), (*requests)[1].a.get());
  EXPECT_EQ((*requests)[0].a.get(), (*requests)[2].a.get());
  EXPECT_EQ((*requests)[0].id, "as-caida:reorganizer#0");
  EXPECT_EQ((*requests)[2].algorithm, "row-product");
}

TEST(ManifestTest, MissingSourceFailsBuild) {
  std::vector<ManifestEntry> entries;
  entries.push_back({"no-such-dataset", "reorganizer", 1});
  auto requests = BuildRequests(entries, ManifestLoadOptions{});
  EXPECT_FALSE(requests.ok());
}

}  // namespace
}  // namespace engine
}  // namespace spnet
