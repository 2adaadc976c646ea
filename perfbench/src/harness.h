// Measurement plumbing shared by the perfbench runners: sample sets with
// the percentile-reporting rule, the metric sink that becomes the result
// line, and the in-memory span recorder used by traced runs.
#ifndef SPNET_PERFBENCH_HARNESS_H_
#define SPNET_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/timer.h"
#include "spgemm/exec_context.h"

namespace perfbench {

// Host wall-clock samples in one unit (ms unless the name says otherwise).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t count() const { return values_.size(); }
  double Sum() const;
  double Median() const;
  // Nearest-rank percentile. Only meaningful (and only reported) when at
  // least ten samples lie beyond it: see HasTail.
  double Percentile(double q) const;
  bool HasTail(double q) const;

 private:
  std::vector<double> values_;
};

// An ordered set of named metrics. The result line carries value and unit;
// the sample count is printed on the human-readable lines before it.
class MetricSet {
 public:
  struct Entry {
    double value = 0.0;
    std::string unit;
    int64_t samples = 1;
  };
  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = 1);
  // Median of `s`; the percentile variants go through SetTail.
  void SetMedian(const std::string& name, const Samples& s,
                 const std::string& unit);
  // Sets `name` to the q-percentile of `s`. Returns false (and sets
  // nothing) when fewer than ten samples lie beyond it.
  bool SetTail(const std::string& name, const Samples& s, double q,
               const std::string& unit);
  const std::map<std::string, Entry>& entries() const { return entries_; }

 private:
  std::map<std::string, Entry> entries_;
};

// Aggregates the span trees of many short-lived ExecContexts. Each layer
// call in a traced run gets a fresh context (TraceRecorder is
// single-threaded and capped), wrapped in a benchmark span "bench:<layer>";
// the program's own spans nest underneath it.
class SpanBook {
 public:
  struct Stat {
    Samples total_ms;
    Samples self_ms;  // span minus the direct child spans it contains
  };
  // Takes the spans of `ctx` and adds its counters to those of `layer`.
  void Absorb(const std::string& layer, const spnet::spgemm::ExecContext& ctx);
  const std::map<std::string, Stat>& stats() const { return stats_; }
  // Summed registry counters (e.g. pool.chunks_run) of one layer's calls.
  std::map<std::string, double> counters(const std::string& layer) const;
  // Writes every aggregated span as one JSON document.
  bool WriteJson(const std::string& path) const;

 private:
  std::map<std::string, Stat> stats_;
  std::map<std::string, std::map<std::string, double>> counters_;
  int64_t dropped_ = 0;
};

// Times one call into a layer. With a book, the call runs under a fresh
// ExecContext inside a "bench:<layer>" span and the spans are absorbed;
// without one, the call gets a null context. The elapsed ms is returned
// and added to `samples` when given.
template <typename Fn>
double TimeLayer(SpanBook* book, const std::string& layer, Samples* samples,
                 Fn&& fn) {
  double ms = 0.0;
  if (book == nullptr) {
    spnet::Timer timer;
    fn(static_cast<spnet::spgemm::ExecContext*>(nullptr));
    ms = timer.Seconds() * 1e3;
  } else {
    spnet::spgemm::ExecContext ctx;
    const int id = ctx.trace.Begin("bench:" + layer);
    spnet::Timer timer;
    fn(&ctx);
    ms = timer.Seconds() * 1e3;
    ctx.trace.End(id);
    book->Absorb(layer, ctx);
  }
  if (samples != nullptr) samples->Add(ms);
  return ms;
}

// Counts checked outputs. A failure is a call that returned an error, a
// rejected request, or an output that differs from the reference; the
// first few are printed with their divergence.
class Checker {
 public:
  void Ok() { ++attempted_; }
  void Fail(const std::string& what);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

double PeakRssMb();
double GeoMean(const std::vector<double>& values);
// Metric names allow letters, digits, '_', '.', '-'; span names such as
// "plan:Block-Reorganizer" are mapped by replacing anything else with '-'.
std::string MetricSafe(const std::string& name);

}  // namespace perfbench

#endif  // SPNET_PERFBENCH_HARNESS_H_
