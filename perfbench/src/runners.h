// The benchmark's runners. Each one calls a layer's public functions from
// outside, times them, and checks every output against a reference made in
// set-up:
//   - multiply: SpGemmAlgorithm::Compute per algorithm, checked entry by
//     entry against ReferenceSpGemm;
//   - batch:    one cold BatchRunner::Execute on a fresh runner;
//   - serve:    an open-loop schedule through ParseRequestLine + SubmitWire;
//   - sweep:    every planning layer call, one at a time.
// Batch and serve responses are checked against a single-threaded Measure
// of the same (matrix, algorithm): flops, output_nnz and sim_ms must match
// exactly.
#ifndef SPNET_PERFBENCH_RUNNERS_H_
#define SPNET_PERFBENCH_RUNNERS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/batch_runner.h"
#include "engine/request.h"
#include "gpusim/device_spec.h"
#include "harness.h"
#include "serve/server.h"
#include "sparse/csr_matrix.h"
#include "spgemm/algorithm.h"

namespace perfbench {

using MatrixPtr = std::shared_ptr<const spnet::sparse::CsrMatrix>;

// One generated input, written to and read back from a .spnb file.
struct Input {
  std::string name;
  std::string path;
  MatrixPtr matrix;
};

// Deliberate output corruptions for the benchmark's own tests: one value
// flipped in a copy of C, or one response's sim_ms perturbed. Both must be
// caught by the output check.
enum class Corruption { kNone, kCValue, kSimMs };

// Simulated reference for every (input path, algorithm) a run will submit.
class ExpectedTable {
 public:
  struct Entry {
    int64_t flops = 0;
    int64_t output_nnz = 0;
    double sim_ms = 0.0;
  };
  spnet::Status Add(const Input& input, const std::string& algorithm,
                    const spnet::gpusim::DeviceSpec& device);
  const Entry* Find(const std::string& path,
                    const std::string& algorithm) const;
  // Empty when `response` matches the reference; otherwise the first field
  // that differs.
  std::string Diff(const std::string& path, const std::string& algorithm,
                   const spnet::engine::Response& response) const;

 private:
  std::map<std::pair<std::string, std::string>, Entry> entries_;
};

std::unique_ptr<spnet::spgemm::SpGemmAlgorithm> MakeAlgorithm(
    const std::string& name);

// ---- multiply ------------------------------------------------------------

struct MultiplyStats {
  std::map<std::string, Samples> pass_ms;  // per algorithm, summed over set
  Samples round_ms;                        // every algorithm, one pass
};

// Computes C = A*A for every input and algorithm once, timing each
// algorithm's pass over the set and checking C against `reference`.
void RunMultiplyPass(const std::vector<Input>& inputs,
                     const std::vector<spnet::sparse::CsrMatrix>& reference,
                     const std::vector<std::string>& algorithms,
                     Corruption corruption, SpanBook* book, Checker* checker,
                     MultiplyStats* stats);

// ---- batch ---------------------------------------------------------------

struct BatchKey {
  std::string path;
  std::string algorithm;
};

struct BatchStats {
  Samples pass_ms;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t fallbacks = 0;
  int64_t deadline_expired = 0;
  int64_t distinct_keys = 0;
};

// Builds the cold-pass request list: every input under every algorithm.
std::vector<spnet::engine::Request> BuildBatchRequests(
    const std::vector<Input>& inputs,
    const std::vector<std::string>& algorithms, std::vector<BatchKey>* keys);

// One Execute on a fresh BatchRunner: every request plans.
void RunBatchPass(const std::vector<spnet::engine::Request>& requests,
                  const std::vector<BatchKey>& keys,
                  const ExpectedTable& expected, Corruption corruption,
                  SpanBook* book, Checker* checker, BatchStats* stats);

// ---- serve ---------------------------------------------------------------

struct Arrival {
  double at_s = 0.0;  // scheduled send time, from the schedule's start
  std::string source;
  std::string algorithm;
};

struct ServeConfig {
  int workers = 3;
  size_t queue_capacity = 64;
  double latency_limit_ms = 50.0;
  std::vector<std::string> pinned;
  std::vector<std::pair<std::string, std::string>> warmup;  // source, alg
};

struct ServeStats {
  Samples latency_ms;  // scheduled send -> callback; rejections count late
  Samples exec_ms;     // Response::wall_ms
  Samples wait_ms;     // latency - exec
  Samples lag_ms;      // actual send - scheduled send
  int64_t requests = 0;
  int64_t completed = 0;  // answered with a correct response
  int64_t good = 0;       // ... and within the latency limit
  int64_t fallbacks = 0;
  int64_t deadline_expired = 0;
  double schedule_s = 0.0;  // first to last scheduled send
  double elapsed_s = 0.0;   // first scheduled send to last answer
  std::map<std::string, int64_t> rejected;  // by server reason
  int64_t plan_hits = 0;
  int64_t plan_misses = 0;
  int64_t plan_evictions = 0;
  int64_t distinct_keys = 0;
  int64_t store_evictions = 0;
};

// An in-process serve::Server. Start() (server start, pinning, warm-up) is
// part of set-up; Run() drives one open-loop schedule.
class ServeRig {
 public:
  explicit ServeRig(ServeConfig config) : config_(std::move(config)) {}
  ~ServeRig();
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;
  spnet::Status Start(const ExpectedTable& expected);
  void Run(const std::vector<Arrival>& schedule, const ExpectedTable& expected,
           Corruption corruption, SpanBook* book, Checker* checker,
           ServeStats* stats);
  // Plan-cache, store and rejection counters since Start().
  void Collect(ServeStats* stats);
  void Stop();

 private:
  ServeConfig config_;
  std::unique_ptr<spnet::serve::Server> server_;
  std::set<std::pair<std::string, std::string>> keys_;  // source, alg
};

// Poisson arrivals at `rate` per second over `sources` (with per-arrival
// algorithm), drawn from `seed`.
std::vector<double> PoissonOffsets(int64_t count, double rate, uint64_t seed);

// ---- layer sweep -----------------------------------------------------------

struct DeviceTotals {
  int64_t kernels = 0;
  spnet::gpusim::KernelStats stats;
  double expansion_ms = 0.0;
  double merge_ms = 0.0;
  double host_precalc_ms = 0.0;
};

struct SweepStats {
  Samples load_ms, fingerprint_ms, build_workload_ms, classify_ms, split_ms,
      gather_ms, limit_ms, simulate_ms, store_get_ms;
  std::map<std::string, Samples> plan_ms;
  std::map<std::string, DeviceTotals> device;  // first repetition only
  std::map<std::string, std::vector<double>> sim_ms;  // per input
  int64_t dominators = 0, low_performers = 0, limited_rows = 0, fragments = 0,
          combined_blocks = 0;
};

// Times each planning-layer call on every input, `reps` times over.
void RunLayerSweep(const std::vector<Input>& inputs,
                   const std::vector<std::string>& algorithms, int reps,
                   SpanBook* book, Checker* checker, SweepStats* stats);

}  // namespace perfbench

#endif  // SPNET_PERFBENCH_RUNNERS_H_
