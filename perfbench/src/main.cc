// spnet_perfbench: the layered spGEMM benchmark.
//
//   spnet_perfbench --workload <rmat-multiply|table2-cold|serve-hot>
//                   --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//                   [--tiny] [--corrupt <none|c-value|sim-ms>]
//
// Untraced (--trace 0), the workload's own loop runs for --seconds and the
// run reports end-to-end metrics. Traced (--trace 1), the loop runs half
// untraced and half with an ExecContext, and every runner plus the layer
// sweep runs over the workload's inputs, giving the per-layer metrics.
// Each computed metric is printed as "metric <name> <value> <unit> n=<k>";
// the last line is one JSON object with correct/attempted/failed/metrics.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "datasets/generators.h"
#include "datasets/registry.h"
#include "runners.h"
#include "harness.h"
#include "sparse/reference_spgemm.h"
#include "sparse/serialization.h"
#include "spgemm/workload_model.h"

namespace perfbench {
namespace {

namespace sp = spnet::sparse;
using spnet::Timer;

// ---- workload constants ------------------------------------------------------

// rmat-multiply: one R-MAT scale-16 power-law graph. 1.2M requested edges
// give about 41M C-hat elements (flops x 12 B = ~490 MB), at least 4x a
// 105 MB last-level cache.
constexpr int kRmatScale = 16;
constexpr int64_t kRmatEdges = 1200000;
// table2-cold: the Table II geomean depends on the scale (1.28 at 0.25,
// 1.33 at 1.0), so it is fixed here.
constexpr double kTableScale = 0.25;
// serve-hot: hot sources are pinned; fresh sources arrive in bursts.
constexpr double kServeScale = 0.25;
constexpr double kFreshScale = 0.02;
// Offered load, about a fifth of the capacity measured with --rate (see
// README.md): a host shared with another run of the same size still has
// headroom, so latency measures service, not a growing backlog.
constexpr double kServeRate = 300.0;  // requests per second
// Room for a few seconds of a stalled host at kServeRate, so a pause of
// the machine delays requests instead of refusing them.
constexpr size_t kServeQueue = 1024;
constexpr double kLatencyLimitMs = 50.0;
constexpr double kFreshShare = 0.05;
constexpr int kFreshBurst = 3;
constexpr int kServeWorkers = 3;  // + the generator thread = 4 busy threads

// Traced runs of table2-cold and serve-hot run the numeric layer only on
// inputs with at most this many C-hat elements (60 MB).
constexpr int64_t kNumericChatCap = 5000000;

const std::vector<std::string> kMultiplyAlgs = {"reorganizer", "outer-product",
                                                "row-product"};
const std::vector<std::string> kTableAlgs = {
    "outer-product", "reorganizer", "reorganizer-limiting",
    "reorganizer-splitting", "reorganizer-gathering"};
const std::vector<std::string> kSweepAlgs = {
    "outer-product", "row-product", "reorganizer", "reorganizer-limiting",
    "reorganizer-splitting", "reorganizer-gathering"};
const std::vector<std::string> kServeAlgs = {
    "reorganizer", "outer-product", "row-product", "reorganizer-gathering"};
const std::vector<std::string> kHotSources = {"as-caida", "emailEnron",
                                              "epinions", "poisson3Da"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
  bool tiny = false;
  Corruption corruption = Corruption::kNone;
  // serve-hot's offered rate. Only changed to measure capacity: offer far
  // more than the server can take and read the completion rate.
  double rate = kServeRate;
};

int HostThreads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

// ---- set-up ------------------------------------------------------------------

// Everything a workload needs before its timed loop. Rebuilt from scratch
// on every set-up repetition.
struct Workspace {
  std::vector<Input> inputs;  // the workload's matrix set
  std::vector<Input> fresh;   // serve-hot only: written, never pinned
  std::vector<sp::CsrMatrix> reference;  // C = A*A per input (multiply)
  ExpectedTable expected;
  std::vector<spnet::engine::Request> requests;  // batch
  std::vector<BatchKey> keys;
  std::unique_ptr<ServeRig> rig;
  int64_t flops = 0;  // C-hat elements over the set
  std::vector<int64_t> input_flops;
  int64_t output_nnz = 0;
  double generate_s = 0.0;
};

Input WriteAndRead(const std::string& name, const std::string& path,
                   const sp::CsrMatrix& m) {
  SPNET_CHECK_OK(sp::WriteBinary(m, path));
  auto read = sp::ReadBinary(path);
  SPNET_CHECK(read.ok()) << read.status().ToString();
  return Input{name, path,
               std::make_shared<const sp::CsrMatrix>(std::move(read).value())};
}

std::vector<std::pair<std::string, sp::CsrMatrix>> Generate(const Args& args) {
  std::vector<std::pair<std::string, sp::CsrMatrix>> out;
  if (args.workload == "rmat-multiply") {
    spnet::datasets::RmatParams p;
    p.scale = args.tiny ? 10 : kRmatScale;
    p.edge_count = args.tiny ? 16000 : kRmatEdges;
    p.seed = args.seed;
    auto m = spnet::datasets::GenerateRmat(p);
    SPNET_CHECK(m.ok()) << m.status().ToString();
    out.emplace_back("rmat", std::move(m).value());
    return out;
  }
  std::vector<std::string> names;
  double scale = 0.0;
  if (args.workload == "table2-cold") {
    for (const auto& spec : spnet::datasets::TableTwoDatasets()) {
      names.push_back(spec.name);
    }
    scale = args.tiny ? 0.01 : kTableScale;
  } else {
    names = kHotSources;
    scale = args.tiny ? 0.02 : kServeScale;
  }
  for (const std::string& name : names) {
    auto spec = spnet::datasets::FindDataset(name);
    SPNET_CHECK(spec.ok()) << spec.status().ToString();
    auto m = spnet::datasets::Materialize(*spec, scale, args.seed);
    SPNET_CHECK(m.ok()) << m.status().ToString();
    out.emplace_back(name, std::move(m).value());
  }
  return out;
}

// Fresh serve-hot sources: small Table II stand-ins, each with its own
// seed so every file is a distinct plan key.
std::vector<std::pair<std::string, sp::CsrMatrix>> GenerateFresh(
    const Args& args, int count) {
  std::vector<std::pair<std::string, sp::CsrMatrix>> out;
  const auto& specs = spnet::datasets::TableTwoDatasets();
  for (int i = 0; i < count; ++i) {
    const auto& spec = specs[static_cast<size_t>(i) % specs.size()];
    auto m = spnet::datasets::Materialize(
        spec, args.tiny ? 0.01 : kFreshScale,
        args.seed * 1000003ULL + static_cast<uint64_t>(i));
    SPNET_CHECK(m.ok()) << m.status().ToString();
    out.emplace_back("fresh" + std::to_string(i) + "-" + spec.name,
                     std::move(m).value());
  }
  return out;
}

// A traced serve-hot run drives two schedules (untraced, then traced),
// each long enough for a p99 with ten samples beyond it.
double TraceHalfSeconds(const Args& args) {
  return std::max(args.seconds / 2.0, 1100.0 / args.rate);
}

int FreshCount(const Args& args) {
  const double seconds =
      args.trace ? 2.0 * TraceHalfSeconds(args) : args.seconds;
  const double arrivals = args.rate * seconds;
  return std::max(1, static_cast<int>(std::ceil(arrivals * kFreshShare /
                                                kFreshBurst)));
}

std::unique_ptr<Workspace> SetUp(const Args& args) {
  auto ws = std::make_unique<Workspace>();
  const auto device = spnet::gpusim::DeviceSpec::TitanXp();
  Timer gen;
  auto generated = Generate(args);
  std::vector<std::pair<std::string, sp::CsrMatrix>> fresh;
  if (args.workload == "serve-hot") fresh = GenerateFresh(args, FreshCount(args));
  ws->generate_s = gen.Seconds();

  for (auto& [name, m] : generated) {
    ws->inputs.push_back(
        WriteAndRead(name, args.workdir + "/" + name + ".spnb", m));
  }
  for (auto& [name, m] : fresh) {
    ws->fresh.push_back(
        WriteAndRead(name, args.workdir + "/" + name + ".spnb", m));
  }
  generated.clear();
  fresh.clear();

  for (const Input& input : ws->inputs) {
    const auto w = spnet::spgemm::BuildWorkload(*input.matrix, *input.matrix);
    ws->flops += w.flops;
    ws->input_flops.push_back(w.flops);
  }
  if (args.workload == "rmat-multiply") {
    for (const Input& input : ws->inputs) {
      auto c = sp::ReferenceSpGemm(*input.matrix, *input.matrix);
      SPNET_CHECK(c.ok()) << c.status().ToString();
      ws->output_nnz += c->nnz();
      ws->reference.push_back(std::move(c).value());
    }
  }
  // Single-threaded reference simulations: what every response must equal.
  const int threads = spnet::GlobalThreadCount();
  spnet::SetGlobalThreadCount(1);
  const std::vector<std::string>& algs =
      args.workload == "rmat-multiply" ? kMultiplyAlgs
      : args.workload == "table2-cold" ? kTableAlgs
                                       : kServeAlgs;
  for (const Input& input : ws->inputs) {
    for (const std::string& alg : algs) {
      SPNET_CHECK_OK(ws->expected.Add(input, alg, device));
    }
  }
  for (const Input& input : ws->fresh) {
    SPNET_CHECK_OK(ws->expected.Add(input, "reorganizer", device));
  }
  spnet::SetGlobalThreadCount(threads);

  if (args.workload == "table2-cold") {
    ws->requests = BuildBatchRequests(ws->inputs, kTableAlgs, &ws->keys);
  }
  if (args.workload == "serve-hot") {
    ServeConfig config;
    config.workers = kServeWorkers;
    config.queue_capacity = kServeQueue;
    config.latency_limit_ms = kLatencyLimitMs;
    for (const Input& input : ws->inputs) {
      config.pinned.push_back(input.path);
      for (const std::string& alg : kServeAlgs) {
        config.warmup.emplace_back(input.path, alg);
      }
    }
    ws->rig = std::make_unique<ServeRig>(config);
    SPNET_CHECK_OK(ws->rig->Start(ws->expected));
  }
  return ws;
}

// serve-hot's open-loop schedule: Poisson arrivals at kServeRate. About
// kFreshShare of the arrivals are bursts of kFreshBurst requests on one
// fresh source (concurrent misses on one plan key); the rest name a pinned
// hot source under a uniform mix of algorithms.
std::vector<Arrival> ServeSchedule(const Workspace& ws, double seconds,
                                   double rate, uint64_t seed,
                                   size_t* next_fresh) {
  const int64_t count =
      std::max<int64_t>(1, static_cast<int64_t>(rate * seconds));
  const std::vector<double> at = PoissonOffsets(count, rate, seed);
  spnet::Rng rng(seed ^ 0x5EEDULL);
  std::vector<Arrival> schedule;
  for (int64_t i = 0; i < count; ++i) {
    const bool fresh = *next_fresh < ws.fresh.size() &&
                       rng.NextDouble() < kFreshShare / kFreshBurst;
    if (fresh) {
      for (int k = 0; k < kFreshBurst; ++k) {
        // 0.1 ms apart: all of a burst reaches the cache before the
        // first plan is inserted.
        schedule.push_back(Arrival{at[static_cast<size_t>(i)] + 1e-4 * k,
                                   ws.fresh[*next_fresh].path, "reorganizer"});
      }
      ++*next_fresh;
      continue;
    }
    const Input& hot =
        ws.inputs[static_cast<size_t>(rng.NextU64() % ws.inputs.size())];
    const std::string& alg =
        kServeAlgs[static_cast<size_t>(rng.NextU64() % kServeAlgs.size())];
    schedule.push_back(Arrival{at[static_cast<size_t>(i)], hot.path, alg});
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Arrival& x, const Arrival& y) { return x.at_s < y.at_s; });
  return schedule;
}

double SimSpeedup(const Workspace& ws) {
  std::vector<double> gains;
  for (const Input& input : ws.inputs) {
    const auto* outer = ws.expected.Find(input.path, "outer-product");
    const auto* reorg = ws.expected.Find(input.path, "reorganizer");
    if (outer != nullptr && reorg != nullptr && reorg->sim_ms > 0.0) {
      gains.push_back(outer->sim_ms / reorg->sim_ms);
    }
  }
  return GeoMean(gains);
}

void PrintInputs(const Workspace& ws) {
  for (size_t i = 0; i < ws.inputs.size(); ++i) {
    const sp::CsrMatrix& a = *ws.inputs[i].matrix;
    std::printf("input %s rows=%lld nnz=%lld chat=%lld chat_mb=%.1f\n",
                ws.inputs[i].name.c_str(), static_cast<long long>(a.rows()),
                static_cast<long long>(a.nnz()),
                static_cast<long long>(ws.input_flops[i]),
                static_cast<double>(ws.input_flops[i]) * 12.0 / 1e6);
  }
}

// ---- output ------------------------------------------------------------------

void PrintResult(const MetricSet& metrics, const Checker& checker) {
  for (const auto& [name, e] : metrics.entries()) {
    std::printf("metric %s %.9g %s n=%lld\n", name.c_str(), e.value,
                e.unit.c_str(), static_cast<long long>(e.samples));
  }
  std::string json = "{\"correct\": ";
  json += checker.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checker.attempted());
  json += ", \"failed\": " + std::to_string(checker.failed());
  json += ", \"metrics\": {";
  bool first = true;
  char buf[256];
  for (const auto& [name, e] : metrics.entries()) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), e.value, e.unit.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void SetErrorRate(MetricSet* m, const Checker& checker) {
  m->Set("error_rate",
         checker.attempted() == 0
             ? 0.0
             : static_cast<double>(checker.failed()) /
                   static_cast<double>(checker.attempted()),
         "fraction", checker.attempted());
}

// ---- untraced run: end-to-end metrics -------------------------------------------

template <typename Fn>
double RunFor(double seconds, Fn&& one_unit) {
  Timer timer;
  do {
    one_unit();
  } while (timer.Seconds() < seconds);
  return timer.Seconds();
}

int RunEndToEnd(const Args& args) {
  const int setup_reps = args.tiny ? 1 : 3;
  Samples setup_s;
  std::unique_ptr<Workspace> ws;
  for (int rep = 0; rep < setup_reps; ++rep) {
    ws.reset();  // tear the previous repetition down first
    Timer timer;
    ws = SetUp(args);
    setup_s.Add(timer.Seconds());
  }
  PrintInputs(*ws);

  MetricSet m;
  Checker checker;
  int64_t units = 0;
  int64_t good_units = 0;
  double measured_s = 0.0;
  const auto unit = [&](const std::function<void()>& body) {
    const int64_t failed_before = checker.failed();
    body();
    ++units;
    if (checker.failed() == failed_before) ++good_units;
  };

  if (args.workload == "rmat-multiply") {
    MultiplyStats stats;
    measured_s = RunFor(args.seconds, [&] {
      unit([&] {
        RunMultiplyPass(ws->inputs, ws->reference, kMultiplyAlgs,
                        args.corruption, nullptr, &checker, &stats);
      });
    });
    m.SetMedian("work_ms", stats.round_ms, "ms");
    for (const std::string& alg : kMultiplyAlgs) {
      m.SetMedian("multiply_ms." + alg, stats.pass_ms[alg], "ms");
    }
    m.Set("spgemm.chat_mb_computed",
          static_cast<double>(ws->flops) * 12.0 / 1e6, "MB");
    m.Set("goodput_per_s", static_cast<double>(good_units) / measured_s, "1/s",
          units);
  } else if (args.workload == "table2-cold") {
    BatchStats stats;
    measured_s = RunFor(args.seconds, [&] {
      unit([&] {
        RunBatchPass(ws->requests, ws->keys, ws->expected, args.corruption,
                     nullptr, &checker, &stats);
      });
    });
    m.SetMedian("work_ms", stats.pass_ms, "ms");
    m.Set("batch_s", stats.pass_ms.Median() / 1e3, "s",
          static_cast<int64_t>(stats.pass_ms.count()));
    m.Set("goodput_per_s", static_cast<double>(good_units) / measured_s, "1/s",
          units);
  } else {
    ServeStats stats;
    size_t next_fresh = 0;
    const auto schedule =
        ServeSchedule(*ws, args.seconds, args.rate, args.seed, &next_fresh);
    ws->rig->Run(schedule, ws->expected, args.corruption, nullptr, &checker,
                 &stats);
    ws->rig->Collect(&stats);
    m.SetMedian("work_ms", stats.latency_ms, "ms");
    m.SetMedian("latency_p50_ms", stats.latency_ms, "ms");
    m.SetTail("latency_p99_ms", stats.latency_ms, 0.99, "ms");
    const double goodput = static_cast<double>(stats.good) / args.seconds;
    m.Set("goodput_per_s", goodput, "1/s", stats.requests);
    m.Set("goodput_rps", goodput, "req/s", stats.requests);
    m.SetTail("serve.generator_lag_ms.p99", stats.lag_ms, 0.99, "ms");
    m.Set("served_rps", static_cast<double>(stats.completed) / stats.elapsed_s,
          "req/s", stats.completed);
    std::printf("config offered_rps=%g workers=%d pool_threads=%d "
                "latency_limit_ms=%g requests=%lld fresh_sources=%zu\n",
                args.rate, kServeWorkers, spnet::GlobalThreadCount(),
                kLatencyLimitMs, static_cast<long long>(stats.requests),
                ws->fresh.size());
  }
  m.Set("setup_s", setup_s.Median(), "s",
        static_cast<int64_t>(setup_s.count()));
  m.Set("sim_speedup", SimSpeedup(*ws), "x",
        static_cast<int64_t>(ws->inputs.size()));
  SetErrorRate(&m, checker);
  ws.reset();
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  PrintResult(m, checker);
  return 0;
}

// ---- traced run: per-layer metrics ---------------------------------------------

void SetSelfTimes(const SpanBook& book, MetricSet* m) {
  // Per-algorithm spans are grouped by their prefix ("plan:B-Gathering"
  // -> "plan"); engine spans keep their phase ("engine:run" ->
  // "engine-run"). The benchmark's own spans are in the trace file only.
  std::map<std::string, Samples> grouped;
  for (const auto& [name, stat] : book.stats()) {
    const std::string prefix = name.substr(0, name.find(':'));
    if (prefix == "bench") continue;
    grouped[prefix == "engine" ? MetricSafe(name) : MetricSafe(prefix)]
        .Append(stat.self_ms);
  }
  for (const auto& [name, samples] : grouped) {
    m->SetMedian("self_ms." + name, samples, "ms");
  }
}

void SetEngineMetrics(const Samples& execute_ms, int64_t hits, int64_t misses,
                      int64_t distinct_keys, int64_t evictions,
                      int64_t fallbacks, int64_t deadline_expired,
                      MetricSet* m) {
  m->SetMedian("engine.execute_ms", execute_ms, "ms");
  const int64_t lookups = hits + misses;
  m->Set("engine.plan_cache.hit_ratio",
         lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                     : 0.0,
         "fraction", lookups);
  m->Set("engine.plan_cache.misses_per_key",
         static_cast<double>(misses) /
             static_cast<double>(std::max<int64_t>(1, distinct_keys)),
         "ratio", distinct_keys);
  m->Set("engine.plan_cache.evictions", static_cast<double>(evictions),
         "count");
  m->Set("engine.fallbacks", static_cast<double>(fallbacks), "count");
  m->Set("engine.deadline_expired", static_cast<double>(deadline_expired),
         "count");
}

int RunTraced(const Args& args) {
  const int threads = HostThreads();
  auto ws = SetUp(args);
  PrintInputs(*ws);
  MetricSet m;
  Checker checker;
  SpanBook book;
  m.Set("datasets.generate_s", ws->generate_s, "s");
  const double half = args.seconds / 2.0;

  // The workload's own loop, untraced then traced.
  MultiplyStats multiply;
  MultiplyStats multiply_traced;
  BatchStats batch;
  BatchStats batch_traced;
  ServeStats serve;
  ServeStats serve_traced;
  double untraced = 0.0;
  double traced = 0.0;
  if (args.workload == "rmat-multiply") {
    RunFor(half, [&] {
      RunMultiplyPass(ws->inputs, ws->reference, kMultiplyAlgs,
                      args.corruption, nullptr, &checker, &multiply);
    });
    RunFor(half, [&] {
      RunMultiplyPass(ws->inputs, ws->reference, kMultiplyAlgs,
                      args.corruption, &book, &checker, &multiply_traced);
    });
    untraced = multiply.round_ms.Median();
    traced = multiply_traced.round_ms.Median();
  } else if (args.workload == "table2-cold") {
    RunFor(half, [&] {
      RunBatchPass(ws->requests, ws->keys, ws->expected, args.corruption,
                   nullptr, &checker, &batch);
    });
    RunFor(half, [&] {
      RunBatchPass(ws->requests, ws->keys, ws->expected, args.corruption,
                   &book, &checker, &batch_traced);
    });
    untraced = batch.pass_ms.Median();
    traced = batch_traced.pass_ms.Median();
  } else {
    std::printf("config offered_rps=%g workers=%d pool_threads=%d "
                "latency_limit_ms=%g\n",
                args.rate, kServeWorkers, spnet::GlobalThreadCount(),
                kLatencyLimitMs);
    const double serve_half = TraceHalfSeconds(args);
    size_t next_fresh = 0;
    ws->rig->Run(
        ServeSchedule(*ws, serve_half, args.rate, args.seed, &next_fresh),
        ws->expected, args.corruption, nullptr, &checker, &serve);
    ws->rig->Run(
        ServeSchedule(*ws, serve_half, args.rate, args.seed + 1, &next_fresh),
        ws->expected, args.corruption, &book, &checker, &serve_traced);
    ws->rig->Collect(&serve);
    // Stopped before the pool is resized for the other runners.
    ws->rig->Stop();
    spnet::SetGlobalThreadCount(threads);
    untraced = serve.latency_ms.Median();
    traced = serve_traced.latency_ms.Median();
  }
  m.Set("trace_overhead_frac", untraced > 0.0 ? traced / untraced - 1.0 : 0.0,
        "fraction");

  // The layer sweep: every planning-layer call over the workload's inputs,
  // untraced for the timers, then once traced for span self times.
  SweepStats sweep;
  const int reps = std::max<int>(
      1, static_cast<int>(std::ceil(100.0 / static_cast<double>(ws->inputs.size()))));
  RunLayerSweep(ws->inputs, kSweepAlgs, reps, nullptr, &checker, &sweep);
  SweepStats sweep_traced;
  RunLayerSweep(ws->inputs, kSweepAlgs, 1, &book, &checker, &sweep_traced);

  m.SetMedian("sparse.load_ms", sweep.load_ms, "ms");
  m.SetMedian("sparse.fingerprint_ms", sweep.fingerprint_ms, "ms");
  m.SetMedian("spgemm.build_workload_ms", sweep.build_workload_ms, "ms");
  for (const std::string& alg : kSweepAlgs) {
    m.SetMedian("spgemm.plan_ms." + alg + ".p50", sweep.plan_ms[alg], "ms");
    if (!m.SetTail("spgemm.plan_ms." + alg + ".p90", sweep.plan_ms[alg], 0.9,
                   "ms")) {
      checker.Fail("too few plan samples for a p90 of " + alg);
    }
  }
  m.SetMedian("core.classify_ms", sweep.classify_ms, "ms");
  m.SetMedian("core.split_ms", sweep.split_ms, "ms");
  m.SetMedian("core.gather_ms", sweep.gather_ms, "ms");
  m.SetMedian("core.limit_ms", sweep.limit_ms, "ms");
  m.Set("core.dominators", static_cast<double>(sweep.dominators), "count");
  m.Set("core.low_performers", static_cast<double>(sweep.low_performers),
        "count");
  m.Set("core.limited_rows", static_cast<double>(sweep.limited_rows), "count");
  m.Set("core.fragments", static_cast<double>(sweep.fragments), "count");
  m.Set("core.combined_blocks", static_cast<double>(sweep.combined_blocks),
        "count");
  for (const char* technique : {"limiting", "splitting", "gathering"}) {
    const std::string alg = std::string("reorganizer-") + technique;
    std::vector<double> gains;
    for (size_t i = 0; i < sweep.sim_ms[alg].size(); ++i) {
      gains.push_back(sweep.sim_ms["outer-product"][i] / sweep.sim_ms[alg][i]);
    }
    m.Set(std::string("core.geomean.") + technique, GeoMean(gains), "x",
          static_cast<int64_t>(gains.size()));
  }
  m.SetMedian("gpusim.simulate_ms", sweep.simulate_ms, "ms");
  for (const std::string& alg : kMultiplyAlgs) {
    const DeviceTotals& d = sweep.device[alg];
    m.Set("gpusim.kernels." + alg, static_cast<double>(d.kernels), "count");
    m.Set("gpusim.sim_ms.expansion." + alg, d.expansion_ms, "sim_ms");
    m.Set("gpusim.sim_ms.merge." + alg, d.merge_ms, "sim_ms");
    m.Set("gpusim.host_precalc_ms." + alg, d.host_precalc_ms, "sim_ms");
    m.Set("gpusim.lbi." + alg, d.stats.Lbi(), "x");
    m.Set("gpusim.sync_stall_frac." + alg, d.stats.SyncStallFraction(),
          "fraction");
    m.Set("gpusim.l2_bytes." + alg,
          static_cast<double>(d.stats.l2_read_bytes + d.stats.l2_write_bytes),
          "bytes");
    m.Set("gpusim.dram_bytes." + alg, static_cast<double>(d.stats.dram_bytes),
          "bytes");
  }
  m.SetMedian("serve.store_load_ms", sweep.store_get_ms, "ms");

  // Numeric multiply. rmat-multiply ran it above on its own input. The
  // other workloads run it on those of their inputs whose C-hat is at most
  // kNumericChatCap: Table II at scale 0.25 reaches 358M C-hat elements
  // (4.3 GB) on loc-gowalla.
  std::vector<Input> numeric_inputs;
  int64_t numeric_flops = 0;
  if (args.workload == "rmat-multiply") {
    numeric_inputs = ws->inputs;
    numeric_flops = ws->flops;
  } else {
    for (size_t i = 0; i < ws->inputs.size(); ++i) {
      if (ws->input_flops[i] > kNumericChatCap) continue;
      numeric_inputs.push_back(ws->inputs[i]);
      numeric_flops += ws->input_flops[i];
      auto c = sp::ReferenceSpGemm(*ws->inputs[i].matrix, *ws->inputs[i].matrix);
      SPNET_CHECK(c.ok()) << c.status().ToString();
      ws->output_nnz += c->nnz();
      ws->reference.push_back(std::move(c).value());
    }
    std::printf("config numeric_inputs=%zu of %zu (C-hat <= %lld)\n",
                numeric_inputs.size(), ws->inputs.size(),
                static_cast<long long>(kNumericChatCap));
    RunMultiplyPass(numeric_inputs, ws->reference, kMultiplyAlgs,
                    args.corruption, nullptr, &checker, &multiply);
    RunMultiplyPass(numeric_inputs, ws->reference, kMultiplyAlgs,
                    args.corruption, &book, &checker, &multiply_traced);
  }
  MultiplyStats serial;
  spnet::SetGlobalThreadCount(1);
  RunMultiplyPass(numeric_inputs, ws->reference, kMultiplyAlgs,
                  args.corruption, nullptr, &checker, &serial);
  spnet::SetGlobalThreadCount(threads);
  for (const std::string& alg : kMultiplyAlgs) {
    const double ms = multiply.pass_ms[alg].Median();
    m.SetMedian("multiply_ms." + alg, multiply.pass_ms[alg], "ms");
    m.Set("spgemm.compute_mflops." + alg,
          ms > 0.0 ? static_cast<double>(numeric_flops) / (ms * 1e3) : 0.0,
          "MFLOP/s", static_cast<int64_t>(multiply.pass_ms[alg].count()));
    m.Set("spgemm.parallel_speedup." + alg,
          ms > 0.0 ? serial.pass_ms[alg].Median() / ms : 0.0, "x");
  }
  m.Set("spgemm.flops", static_cast<double>(numeric_flops), "count");
  m.Set("spgemm.output_nnz", static_cast<double>(ws->output_nnz), "count");
  m.Set("spgemm.chat_mb_computed",
        static_cast<double>(numeric_flops) * 12.0 / 1e6, "MB");
  const auto find_span = [&](const std::string& name) -> const Samples* {
    auto it = book.stats().find(name);
    return it == book.stats().end() ? nullptr : &it->second.total_ms;
  };
  for (const char* phase : {"expand", "merge"}) {
    const Samples* s = find_span(phase);
    m.Set(std::string("spgemm.") + phase + "_ms", s ? s->Median() : 0.0, "ms",
          s ? static_cast<int64_t>(s->count()) : 0);
  }
  const auto& counters = book.counters("compute");
  const auto run = counters.find("pool.chunks_run");
  const auto stolen = counters.find("pool.chunks_stolen");
  const double chunks = run == counters.end() ? 0.0 : run->second;
  m.Set("common.pool.steal_ratio",
        chunks > 0.0 ? (stolen == counters.end() ? 0.0 : stolen->second) / chunks
                     : 0.0,
        "fraction");

  // Engine: table2-cold's own passes; the other workloads run one cold and
  // one traced pass over their inputs under the Table II algorithms.
  // serve-hot takes its engine counters from the server instead.
  if (args.workload != "table2-cold") {
    ws->requests = BuildBatchRequests(ws->inputs, kTableAlgs, &ws->keys);
    const auto device = spnet::gpusim::DeviceSpec::TitanXp();
    spnet::SetGlobalThreadCount(1);
    for (const Input& input : ws->inputs) {
      for (const std::string& alg : kTableAlgs) {
        if (ws->expected.Find(input.path, alg) == nullptr) {
          SPNET_CHECK_OK(ws->expected.Add(input, alg, device));
        }
      }
    }
    spnet::SetGlobalThreadCount(threads);
    RunBatchPass(ws->requests, ws->keys, ws->expected, args.corruption,
                 nullptr, &checker, &batch);
    RunBatchPass(ws->requests, ws->keys, ws->expected, args.corruption,
                 &book, &checker, &batch_traced);
  }
  if (args.workload == "serve-hot") {
    SetEngineMetrics(serve.exec_ms, serve.plan_hits, serve.plan_misses,
                     serve.distinct_keys, serve.plan_evictions,
                     serve.fallbacks + serve_traced.fallbacks,
                     serve.deadline_expired + serve_traced.deadline_expired,
                     &m);
  } else {
    SetEngineMetrics(batch.pass_ms, batch.hits, batch.misses,
                     batch.distinct_keys, batch.evictions, batch.fallbacks,
                     batch.deadline_expired, &m);
  }

  // Serve: serve-hot's own schedule, else a probe of 1000 open-loop
  // requests over the pinned inputs at about half their capacity. The
  // queue holds all 1000, so a slow host delays the probe but never makes
  // it refuse a request.
  if (args.workload != "serve-hot") {
    ServeConfig config;
    config.workers = kServeWorkers;
    config.queue_capacity = kServeQueue;
    config.latency_limit_ms = kLatencyLimitMs;
    for (const Input& input : ws->inputs) {
      config.pinned.push_back(input.path);
      for (const std::string& alg : kServeAlgs) {
        if (ws->expected.Find(input.path, alg) != nullptr) {
          config.warmup.emplace_back(input.path, alg);
        }
      }
    }
    spnet::SetGlobalThreadCount(1);
    ServeRig rig(config);
    SPNET_CHECK_OK(rig.Start(ws->expected));
    const double per_request_ms =
        sweep.fingerprint_ms.Median() + sweep.simulate_ms.Median();
    const double rate = std::min(
        5000.0, 0.5 * kServeWorkers * 1e3 / std::max(per_request_ms, 0.01));
    const std::vector<double> at = PoissonOffsets(1000, rate, args.seed);
    std::vector<Arrival> schedule;
    spnet::Rng rng(args.seed);
    for (double t : at) {
      const auto& [source, alg] =
          config.warmup[static_cast<size_t>(rng.NextU64() % config.warmup.size())];
      schedule.push_back(Arrival{t, source, alg});
    }
    rig.Run(schedule, ws->expected, args.corruption, nullptr, &checker, &serve);
    rig.Collect(&serve);
    rig.Stop();
    spnet::SetGlobalThreadCount(threads);
    std::printf("config probe offered_rps=%.1f workers=%d pool_threads=1 "
                "latency_limit_ms=%g\n",
                rate, kServeWorkers, kLatencyLimitMs);
  }
  m.SetMedian("serve.exec_ms", serve.exec_ms, "ms");
  m.SetMedian("serve.wait_ms.p50", serve.wait_ms, "ms");
  m.SetMedian("serve.latency_p50_ms", serve.latency_ms, "ms");
  if (!m.SetTail("serve.wait_ms.p99", serve.wait_ms, 0.99, "ms") ||
      !m.SetTail("serve.latency_p99_ms", serve.latency_ms, 0.99, "ms") ||
      !m.SetTail("serve.generator_lag_ms.p99", serve.lag_ms, 0.99, "ms")) {
    checker.Fail("too few serve samples for a p99");
  }
  m.Set("serve.goodput_rps",
        serve.schedule_s > 0.0
            ? static_cast<double>(serve.good) / serve.schedule_s
            : 0.0,
        "req/s", serve.requests);
  for (const auto& [reason, count] : serve.rejected) {
    m.Set("serve.rejected." + reason, static_cast<double>(count), "count");
  }

  SetSelfTimes(book, &m);
  SetErrorRate(&m, checker);
  const std::string trace_path = args.workdir + "/../trace-" + args.workload +
                                 "-" + std::to_string(args.seed) + ".json";
  if (book.WriteJson(trace_path)) {
    std::printf("trace %s\n", trace_path.c_str());
  }
  PrintResult(m, checker);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    if (flag == "--workload") {
      args->workload = value();
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args->trace = value() == "1";
    } else if (flag == "--workdir") {
      args->workdir = value();
    } else if (flag == "--rate") {
      args->rate = std::atof(value().c_str());
    } else if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--corrupt") {
      const std::string c = value();
      if (c == "c-value") {
        args->corruption = Corruption::kCValue;
      } else if (c == "sim-ms") {
        args->corruption = Corruption::kSimMs;
      } else if (c != "none") {
        return false;
      }
    } else {
      return false;
    }
  }
  return args->workload == "rmat-multiply" || args->workload == "table2-cold" ||
         args->workload == "serve-hot";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args) || args.seconds <= 0.0 ||
      args.rate <= 0.0) {
    std::fprintf(stderr,
                 "usage: spnet_perfbench --workload "
                 "<rmat-multiply|table2-cold|serve-hot> --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--tiny] [--corrupt "
                 "none|c-value|sim-ms]\n");
    return 2;
  }
  // serve-hot runs its pool on one thread: the server workers plus the
  // generator already use every core. The other workloads use them all.
  spnet::SetGlobalThreadCount(args.workload == "serve-hot"
                                  ? 1
                                  : perfbench::HostThreads());
  return args.trace ? perfbench::RunTraced(args) : perfbench::RunEndToEnd(args);
}
