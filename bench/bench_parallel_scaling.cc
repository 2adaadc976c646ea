// Host-side parallel-scaling micro-bench for the functional
// expansion/merge stack: wall-clock time and speedup vs --threads=1 for
// the reference Gustavson spGEMM, the shared expand/merge kernel in
// natural order and in the reorganizer's dispatch order (planning
// included), the CSR->CSC conversion, and the workload precalculation, on a
// Zipf-skewed (power-law) and a banded (quasi-regular) generator at
// default scale.
//
// Only host wall-clock changes with --threads; simulated GPU cycles and
// all functional results are thread-count-invariant (the determinism
// suite asserts bit-identical outputs). On a single-core host the >1
// thread configurations time-slice one core, so expect ~1x or below;
// the target of >= 2x at 4 threads applies to hosts with >= 4 cores.
//
// Flags: --scale (default 1.0 here; the matrices are synthetic and small),
// --seed, --csv, --threads (ignored: this bench sweeps thread counts),
// --repeats (default 3, best-of), --json_out=<path> (machine-readable
// BENCH_parallel_scaling.json).

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/block_reorganizer.h"
#include "core/workload_classifier.h"
#include "datasets/generators.h"
#include "metrics/report.h"
#include "sparse/csr_matrix.h"
#include "sparse/reference_spgemm.h"
#include "spgemm/functional.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace {

using sparse::CscMatrix;
using sparse::CsrMatrix;

struct Workpiece {
  std::string name;
  CsrMatrix a;
};

std::vector<int> ThreadSweep() {
  std::vector<int> sweep = {1, 2, 4};
  const int hw = GlobalThreadCount();  // before any override: hardware
  if (hw > 4) sweep.push_back(hw);
  return sweep;
}

double BestOf(int repeats, const std::function<void()>& fn) {
  double best = -1.0;
  for (int i = 0; i < repeats; ++i) {
    Timer timer;
    fn();
    const double s = timer.Seconds();
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

int Run(int argc, char** argv) {
  bench::BenchOptions options = bench::BenchOptions::FromArgs(argc, argv);
  FlagParser flags;
  SPNET_CHECK(flags.Parse(argc, argv).ok());
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  // This bench owns the thread count; undo the BenchOptions override so
  // the sweep starts from the hardware default.
  SetGlobalThreadCount(0);
  const std::vector<int> sweep = ThreadSweep();

  // At the repo-wide default --scale=0.25 the workpieces are 3000x3000
  // with ~60k nonzeros — seconds-fast even serially; --scale=1.0 is the
  // 12000x12000, 240k-nnz configuration.
  const double scale = options.scale <= 0 ? 1.0 : options.scale;

  datasets::PowerLawParams zipf;
  zipf.rows = zipf.cols = static_cast<sparse::Index>(12000 * scale);
  zipf.nnz = static_cast<int64_t>(240000 * scale);
  zipf.seed = options.seed;
  auto zipf_m = datasets::GeneratePowerLaw(zipf);
  SPNET_CHECK(zipf_m.ok()) << zipf_m.status().ToString();

  datasets::QuasiRegularParams banded;
  banded.n = static_cast<sparse::Index>(12000 * scale);
  banded.nnz = static_cast<int64_t>(240000 * scale);
  banded.seed = options.seed;
  auto banded_m = datasets::GenerateQuasiRegular(banded);
  SPNET_CHECK(banded_m.ok()) << banded_m.status().ToString();

  std::vector<Workpiece> pieces;
  pieces.push_back({"zipf", std::move(zipf_m).value()});
  pieces.push_back({"banded", std::move(banded_m).value()});

  struct Stage {
    const char* name;
    std::function<void(const CsrMatrix&)> fn;
  };
  const Stage stages[] = {
      {"reference_spgemm",
       [](const CsrMatrix& a) {
         auto c = sparse::ReferenceSpGemm(a, a);
         SPNET_CHECK(c.ok()) << c.status().ToString();
       }},
      {"expand_merge",
       [](const CsrMatrix& a) {
         auto c = spgemm::ExpandMerge(a, a);
         SPNET_CHECK(c.ok()) << c.status().ToString();
       }},
      {"expand_merge_reorganizer_order",
       [](const CsrMatrix& a) {
         const core::ReorganizerConfig config;
         const spgemm::Workload w = spgemm::BuildWorkload(a, a);
         const std::vector<sparse::Index> order =
             core::BuildDispatchOrder(w, core::Classify(w, config), config);
         auto c = spgemm::ExpandMerge(a, a, order);
         SPNET_CHECK(c.ok()) << c.status().ToString();
       }},
      {"csc_from_csr",
       [](const CsrMatrix& a) { CscMatrix::FromCsr(a); }},
      {"build_workload",
       [](const CsrMatrix& a) { spgemm::BuildWorkload(a, a); }},
  };

  std::printf("== parallel scaling: host wall-clock vs --threads "
              "(best of %d, %d hardware threads) ==\n",
              repeats, GlobalThreadCount());
  std::vector<std::string> header = {"dataset", "stage"};
  for (int t : sweep) {
    header.push_back("t=" + std::to_string(t) + " ms");
    if (t != 1) header.push_back("x vs t=1");
  }
  metrics::Table table(header);

  for (const Workpiece& piece : pieces) {
    for (const Stage& stage : stages) {
      std::vector<std::string> row = {piece.name, stage.name};
      double serial_s = 0.0;
      for (int t : sweep) {
        SetGlobalThreadCount(t);
        stage.fn(piece.a);  // warm-up: page in inputs, size the pool
        const double s =
            BestOf(repeats, [&] { stage.fn(piece.a); });
        if (t == 1) serial_s = s;
        row.push_back(metrics::FormatDouble(s * 1e3, 2));
        if (t != 1) {
          row.push_back(metrics::FormatDouble(
              s > 0.0 ? serial_s / s : 0.0, 2));
        }
      }
      table.AddRow(std::move(row));
    }
  }
  SetGlobalThreadCount(0);

  std::fputs(options.csv ? table.ToCsv().c_str() : table.ToString().c_str(),
             stdout);

  bench::BenchJson json("parallel_scaling", "host scaling", options);
  json.AddTable("wall_clock_vs_threads", table);
  json.WriteIfRequested();
  return 0;
}

}  // namespace
}  // namespace spnet

int main(int argc, char** argv) { return spnet::Run(argc, argv); }
