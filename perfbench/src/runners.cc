#include "runners.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/b_gathering.h"
#include "core/b_limiting.h"
#include "core/b_splitting.h"
#include "core/block_reorganizer.h"
#include "core/workload_classifier.h"
#include "serve/matrix_store.h"
#include "serve/wire.h"
#include "sparse/fingerprint.h"
#include "sparse/serialization.h"
#include "spgemm/algorithm_registry.h"
#include "spgemm/workload_model.h"
#include "verify/differential.h"

namespace perfbench {

namespace sp = spnet::sparse;
namespace sg = spnet::spgemm;
using spnet::Status;

namespace {

// Tolerance for entry-by-entry agreement with ReferenceSpGemm: algorithms
// sum each output entry's products in different orders.
constexpr double kValueTolerance = 1e-6;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

sp::CsrMatrix WithOneValueFlipped(const sp::CsrMatrix& c) {
  std::vector<sp::Value> values = c.values();
  if (!values.empty()) values[values.size() / 2] += 1.0;
  auto copy = sp::CsrMatrix::FromParts(c.rows(), c.cols(), c.ptr(),
                                       c.indices(), std::move(values));
  return copy.ok() ? std::move(copy).value() : c;
}

// Fast path of the output check, parallel over rows: every row of `got`,
// sorted by column, equals the sorted reference row within tolerance.
// Anything else goes to FindFirstDivergence, which decides and names the
// first divergence.
bool SameAsReference(const sp::CsrMatrix& expected, const sp::CsrMatrix& got) {
  if (!expected.RowsSorted() || expected.rows() != got.rows() ||
      expected.cols() != got.cols() || expected.ptr() != got.ptr()) {
    return false;
  }
  std::atomic<bool> same{true};
  const int64_t rows = got.rows();
  const Status s = spnet::ParallelFor(
      0, rows, spnet::GrainForItems(rows, spnet::GlobalThreadCount()),
      [&](int64_t begin, int64_t end, int) {
        std::vector<std::pair<sp::Index, sp::Value>> row;
        for (int64_t r = begin; r < end && same.load(); ++r) {
          const auto x = expected.Row(static_cast<sp::Index>(r));
          const auto y = got.Row(static_cast<sp::Index>(r));
          row.clear();
          for (sp::Offset k = 0; k < y.size; ++k) {
            row.emplace_back(y.indices[k], y.values[k]);
          }
          std::sort(row.begin(), row.end());
          for (sp::Offset k = 0; k < x.size; ++k) {
            const auto& [col, value] = row[static_cast<size_t>(k)];
            if (col != x.indices[k] ||
                std::fabs(value - x.values[k]) > kValueTolerance) {
              same.store(false);
              break;
            }
          }
        }
        return Status::Ok();
      });
  return s.ok() && same.load();
}

}  // namespace

std::unique_ptr<sg::SpGemmAlgorithm> MakeAlgorithm(const std::string& name) {
  spnet::core::RegisterCoreAlgorithms();
  auto created = sg::AlgorithmRegistry::Global().Create(name);
  SPNET_CHECK(created.ok()) << created.status().ToString();
  return std::move(created).value();
}

Status ExpectedTable::Add(const Input& input, const std::string& algorithm,
                          const spnet::gpusim::DeviceSpec& device) {
  const auto alg = MakeAlgorithm(algorithm);
  SPNET_ASSIGN_OR_RETURN(
      sg::SpGemmMeasurement m,
      sg::Measure(*alg, *input.matrix, *input.matrix, device));
  entries_[{input.path, algorithm}] =
      Entry{m.flops, m.output_nnz, m.total_seconds * 1e3};
  return Status::Ok();
}

const ExpectedTable::Entry* ExpectedTable::Find(
    const std::string& path, const std::string& algorithm) const {
  auto it = entries_.find({path, algorithm});
  return it == entries_.end() ? nullptr : &it->second;
}

std::string ExpectedTable::Diff(const std::string& path,
                                const std::string& algorithm,
                                const spnet::engine::Response& r) const {
  const Entry* e = Find(path, algorithm);
  char buf[512];
  if (e == nullptr) return "no reference for " + path + " / " + algorithm;
  if (!r.status.ok()) return "status " + r.status.ToString();
  if (r.flops != e->flops) {
    std::snprintf(buf, sizeof(buf), "flops %lld, reference %lld",
                  static_cast<long long>(r.flops),
                  static_cast<long long>(e->flops));
    return buf;
  }
  if (r.output_nnz != e->output_nnz) {
    std::snprintf(buf, sizeof(buf), "output_nnz %lld, reference %lld",
                  static_cast<long long>(r.output_nnz),
                  static_cast<long long>(e->output_nnz));
    return buf;
  }
  if (r.sim_ms != e->sim_ms) {
    std::snprintf(buf, sizeof(buf), "sim_ms %.17g, reference %.17g",
                  r.sim_ms, e->sim_ms);
    return buf;
  }
  return "";
}

// ---- multiply ------------------------------------------------------------

void RunMultiplyPass(const std::vector<Input>& inputs,
                     const std::vector<sp::CsrMatrix>& reference,
                     const std::vector<std::string>& algorithms,
                     Corruption corruption, SpanBook* book, Checker* checker,
                     MultiplyStats* stats) {
  double round_ms = 0.0;
  bool corrupted = false;
  for (const std::string& name : algorithms) {
    const auto alg = MakeAlgorithm(name);
    double pass_ms = 0.0;
    for (size_t i = 0; i < inputs.size(); ++i) {
      const sp::CsrMatrix& a = *inputs[i].matrix;
      spnet::Result<sp::CsrMatrix> c = Status::Internal("not run");
      pass_ms += TimeLayer(book, "compute", nullptr,
                           [&](sg::ExecContext* ctx) {
                             c = alg->Compute(a, a, ctx);
                           });
      const std::string what = inputs[i].name + " / " + name;
      if (!c.ok()) {
        checker->Fail(what + ": " + c.status().ToString());
        continue;
      }
      sp::CsrMatrix got = std::move(c).value();
      if (corruption == Corruption::kCValue && !corrupted) {
        got = WithOneValueFlipped(got);
        corrupted = true;
      }
      spnet::verify::Divergence d;
      if (!SameAsReference(reference[i], got) &&
          spnet::verify::FindFirstDivergence(reference[i], got,
                                             kValueTolerance, &d)) {
        checker->Fail(what + ": C differs from ReferenceSpGemm at " +
                      spnet::verify::DivergenceToString(d));
      } else {
        checker->Ok();
      }
    }
    stats->pass_ms[name].Add(pass_ms);
    round_ms += pass_ms;
  }
  stats->round_ms.Add(round_ms);
}

// ---- batch ---------------------------------------------------------------

std::vector<spnet::engine::Request> BuildBatchRequests(
    const std::vector<Input>& inputs,
    const std::vector<std::string>& algorithms, std::vector<BatchKey>* keys) {
  std::vector<spnet::engine::Request> requests;
  for (const Input& input : inputs) {
    for (const std::string& algorithm : algorithms) {
      auto built = spnet::engine::RequestBuilder()
                       .Id(input.name + "/" + algorithm)
                       .Algorithm(algorithm)
                       .OperandA(input.matrix)
                       .Build();
      SPNET_CHECK(built.ok()) << built.status().ToString();
      requests.push_back(std::move(built).value());
      keys->push_back(BatchKey{input.path, algorithm});
    }
  }
  return requests;
}

void RunBatchPass(const std::vector<spnet::engine::Request>& requests,
                  const std::vector<BatchKey>& keys,
                  const ExpectedTable& expected, Corruption corruption,
                  SpanBook* book, Checker* checker, BatchStats* stats) {
  spnet::engine::BatchRunner runner{spnet::engine::BatchOptions{}};
  spnet::Result<spnet::engine::ExecutionReport> report = Status::Internal("not run");
  TimeLayer(book, "execute", &stats->pass_ms, [&](sg::ExecContext* ctx) {
    report = runner.Execute(requests, ctx);
  });
  if (!report.ok()) {
    checker->Fail("Execute: " + report.status().ToString());
    return;
  }
  std::set<std::pair<std::string, std::string>> distinct;
  for (size_t i = 0; i < report->responses.size(); ++i) {
    spnet::engine::Response& r = report->responses[i];
    if (corruption == Corruption::kSimMs && i == 0) r.sim_ms *= 1.0 + 1e-9;
    const std::string diff = expected.Diff(keys[i].path, keys[i].algorithm, r);
    if (diff.empty()) {
      checker->Ok();
    } else {
      checker->Fail(r.id + ": " + diff);
    }
    distinct.insert({keys[i].path, keys[i].algorithm});
  }
  stats->hits += report->plan_cache_hits;
  stats->misses += report->plan_cache_misses;
  stats->evictions += report->plan_cache_evictions;
  stats->fallbacks += report->fallbacks;
  stats->deadline_expired += report->deadline_expired;
  stats->distinct_keys += static_cast<int64_t>(distinct.size());
}

// ---- serve ---------------------------------------------------------------

std::vector<double> PoissonOffsets(int64_t count, double rate,
                                   uint64_t seed) {
  spnet::Rng rng(seed);
  std::vector<double> offsets;
  offsets.reserve(static_cast<size_t>(count));
  double t = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    offsets.push_back(t);
  }
  return offsets;
}

ServeRig::~ServeRig() { Stop(); }

Status ServeRig::Start(const ExpectedTable& expected) {
  spnet::serve::ServeOptions options;
  options.workers = config_.workers;
  options.queue_capacity = config_.queue_capacity;
  options.pinned_sources = config_.pinned;
  server_ = std::make_unique<spnet::serve::Server>(options);
  SPNET_RETURN_IF_ERROR(server_->Start());
  // Warm-up: plan every hot key once, so scheduled requests on pinned
  // sources hit the plan cache. Checked like any other request.
  std::atomic<int64_t> pending{0};
  std::atomic<int64_t> bad{0};
  for (const auto& [source, algorithm] : config_.warmup) {
    spnet::serve::WireRequest wire;
    wire.id = "warmup:" + source + ":" + algorithm;
    wire.source = source;
    wire.algorithm = algorithm;
    pending.fetch_add(1);
    const std::string path = source;
    const std::string alg = algorithm;
    Status s = server_->SubmitWire(
        wire, [&, path, alg](const spnet::engine::Response& r) {
          if (!expected.Diff(path, alg, r).empty()) bad.fetch_add(1);
          pending.fetch_sub(1);
        });
    if (!s.ok()) return s;
    // One at a time: concurrent warm-up misses would plan a key twice.
    while (pending.load() > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  for (const auto& key : config_.warmup) keys_.insert(key);
  if (bad.load() != 0) return Status::Internal("warm-up response mismatch");
  return Status::Ok();
}

void ServeRig::Stop() {
  if (server_ != nullptr) {
    server_->Drain();
    server_.reset();
  }
}

void ServeRig::Run(const std::vector<Arrival>& schedule,
                   const ExpectedTable& expected, Corruption corruption,
                   SpanBook* book, Checker* checker, ServeStats* stats) {
  using Clock = std::chrono::steady_clock;
  std::mutex mu;  // guards stats and checker against worker callbacks
  std::vector<char> answered(schedule.size(), 0);
  std::atomic<int64_t> in_flight{0};
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& arrival = schedule[i];
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrival.at_s));
    std::this_thread::sleep_until(due);
    const double lag_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    keys_.insert({arrival.source, arrival.algorithm});
    const std::string line = "{\"id\": \"r" + std::to_string(i) +
                             "\", \"tenant\": \"t" + std::to_string(i % 4) +
                             "\", \"source\": \"" + arrival.source +
                             "\", \"algorithm\": \"" + arrival.algorithm +
                             "\"}";
    in_flight.fetch_add(1);
    Status submitted = Status::Ok();
    TimeLayer(
        book, "parse+submit", nullptr, [&](sg::ExecContext*) {
          auto wire = spnet::serve::ParseRequestLine(line);
          if (!wire.ok()) {
            submitted = wire.status();
            return;
          }
          submitted = server_->SubmitWire(
              *wire, [&, i, due](const spnet::engine::Response& response) {
                const double latency_ms =
                    std::chrono::duration<double, std::milli>(Clock::now() -
                                                              due)
                        .count();
                spnet::engine::Response r = response;
                if (corruption == Corruption::kSimMs && i == 0) {
                  r.sim_ms *= 1.0 + 1e-9;
                }
                const std::string diff = expected.Diff(
                    schedule[i].source, schedule[i].algorithm, r);
                {
                  std::lock_guard<std::mutex> lock(mu);
                  answered[i] = 1;
                  stats->latency_ms.Add(latency_ms);
                  stats->exec_ms.Add(r.wall_ms);
                  stats->wait_ms.Add(std::max(0.0, latency_ms - r.wall_ms));
                  if (r.fallback_used) ++stats->fallbacks;
                  if (r.status.code() ==
                      spnet::StatusCode::kDeadlineExceeded) {
                    ++stats->deadline_expired;
                  }
                  if (diff.empty()) {
                    checker->Ok();
                    ++stats->completed;
                    if (latency_ms <= config_.latency_limit_ms) ++stats->good;
                  } else {
                    checker->Fail(r.id + " (" + schedule[i].source + " / " +
                                  schedule[i].algorithm + "): " + diff);
                  }
                }
                in_flight.fetch_sub(1);
              });
        });
    std::lock_guard<std::mutex> lock(mu);
    stats->lag_ms.Add(lag_ms);
    if (!submitted.ok()) {
      in_flight.fetch_sub(1);
      checker->Fail(std::string("r").append(std::to_string(i)) +
                    " rejected: " + submitted.ToString());
    }
  }
  while (in_flight.load() > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double end_s = SecondsSince(start);
  // A rejected request never answers: it counts as late, with latency up
  // to the end of the run.
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (!answered[i]) stats->latency_ms.Add((end_s - schedule[i].at_s) * 1e3);
  }
  stats->requests += static_cast<int64_t>(schedule.size());
  stats->schedule_s += schedule.empty() ? 0.0 : schedule.back().at_s;
  stats->elapsed_s += end_s;
}

void ServeRig::Collect(ServeStats* stats) {
  stats->plan_hits = server_->plan_cache().hits();
  stats->plan_misses = server_->plan_cache().misses();
  stats->plan_evictions = server_->plan_cache().evictions();
  stats->store_evictions = server_->matrix_store().evictions();
  stats->distinct_keys = static_cast<int64_t>(keys_.size());
  const auto counters = server_->registry().Snapshot();
  for (const char* reason :
       {"draining", "invalid", "injected", "quota", "queue_full", "source"}) {
    const auto it = counters.find(std::string("serve.rejected.") + reason);
    stats->rejected[reason] =
        it == counters.end() ? 0 : static_cast<int64_t>(it->second);
  }
}

// ---- layer sweep -----------------------------------------------------------

void RunLayerSweep(const std::vector<Input>& inputs,
                   const std::vector<std::string>& algorithms, int reps,
                   SpanBook* book, Checker* checker, SweepStats* stats) {
  const spnet::gpusim::DeviceSpec device = spnet::gpusim::DeviceSpec::TitanXp();
  const spnet::core::ReorganizerConfig config;
  const spnet::core::BlockReorganizerSpGemm analyzer(config);
  std::map<std::string, std::unique_ptr<sg::SpGemmAlgorithm>> algs;
  for (const std::string& name : algorithms) algs[name] = MakeAlgorithm(name);

  for (int rep = 0; rep < reps; ++rep) {
    for (const Input& input : inputs) {
      spnet::Result<sp::CsrMatrix> loaded = Status::Internal("not run");
      TimeLayer(book, "read-binary", &stats->load_ms, [&](sg::ExecContext*) {
        loaded = sp::ReadBinary(input.path);
      });
      if (!loaded.ok()) {
        checker->Fail(input.path + ": " + loaded.status().ToString());
        continue;
      }
      const sp::CsrMatrix& a = *loaded;
      uint64_t fp = 0;
      TimeLayer(book, "fingerprint", &stats->fingerprint_ms,
                [&](sg::ExecContext*) { fp = sp::StructuralFingerprint(a); });
      if (fp != sp::StructuralFingerprint(*input.matrix)) {
        checker->Fail(input.path + ": .spnb round trip changed the matrix");
        continue;
      }
      sg::Workload workload;
      TimeLayer(book, "build-workload", &stats->build_workload_ms,
                [&](sg::ExecContext* ctx) {
                  workload = sg::BuildWorkload(a, a, ctx);
                });
      spnet::core::Classification classes;
      TimeLayer(book, "classify", &stats->classify_ms,
                [&](sg::ExecContext* ctx) {
                  classes = spnet::core::Classify(workload, config, ctx);
                });
      TimeLayer(book, "split", &stats->split_ms, [&](sg::ExecContext* ctx) {
        (void)spnet::core::BuildSplitPlan(workload, classes.dominators,
                                          config, device, ctx);
      });
      TimeLayer(book, "gather", &stats->gather_ms, [&](sg::ExecContext* ctx) {
        (void)spnet::core::BuildGatherPlan(workload, classes.low_performers,
                                           config, ctx);
      });
      TimeLayer(book, "limit", &stats->limit_ms, [&](sg::ExecContext* ctx) {
        (void)spnet::core::MakeLimitedMergeOptions(classes, config, ctx);
      });
      for (const std::string& name : algorithms) {
        spnet::Result<sg::SpGemmPlan> plan = Status::Internal("not run");
        TimeLayer(book, "plan", &stats->plan_ms[name],
                  [&](sg::ExecContext* ctx) {
                    plan = algs[name]->Plan(a, a, device, ctx);
                  });
        if (!plan.ok()) {
          checker->Fail(input.name + " / " + name + ": " +
                        plan.status().ToString());
          continue;
        }
        spnet::Result<sg::SpGemmMeasurement> m = Status::Internal("not run");
        TimeLayer(book, "simulate", &stats->simulate_ms,
                  [&](sg::ExecContext* ctx) {
                    m = sg::SimulatePlan(*plan, device, ctx);
                  });
        if (!m.ok()) {
          checker->Fail(input.name + " / " + name + ": " +
                        m.status().ToString());
          continue;
        }
        checker->Ok();
        if (rep != 0) continue;
        DeviceTotals& d = stats->device[name];
        d.kernels += static_cast<int64_t>(plan->kernels.size());
        if (d.stats.sm_busy_cycles.empty()) {
          d.stats.sm_busy_cycles.assign(m->stats.sm_busy_cycles.size(), 0.0);
        }
        d.stats.Accumulate(m->stats);
        d.expansion_ms += m->expansion.seconds * 1e3;
        d.merge_ms += m->merge.seconds * 1e3;
        d.host_precalc_ms += plan->host_seconds * 1e3;
        stats->sim_ms[name].push_back(m->total_seconds * 1e3);
      }
      if (rep == 0) {
        auto report = analyzer.Analyze(a, a, device);
        if (report.ok()) {
          stats->dominators += report->dominators;
          stats->low_performers += report->low_performers;
          stats->limited_rows += report->limited_rows;
          stats->fragments += report->fragments;
          stats->combined_blocks += report->combined_blocks;
        } else {
          checker->Fail(input.name + ": Analyze: " +
                        report.status().ToString());
        }
      }
      // A fresh store per call: every Get is a cold load, as for a fresh
      // source in the daemon.
      spnet::serve::MatrixStore store{spnet::serve::MatrixStore::Options{}};
      TimeLayer(book, "store-get", &stats->store_get_ms,
                [&](sg::ExecContext*) { (void)store.Get(input.path); });
    }
  }
}

}  // namespace perfbench
