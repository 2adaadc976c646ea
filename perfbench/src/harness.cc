#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Median() const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

bool Samples::HasTail(double q) const {
  const double n = static_cast<double>(values_.size());
  return n - std::ceil(q * n) >= 10.0;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  entries_[name] = Entry{value, unit, samples};
}

void MetricSet::SetMedian(const std::string& name, const Samples& s,
                          const std::string& unit) {
  Set(name, s.Median(), unit, static_cast<int64_t>(s.count()));
}

bool MetricSet::SetTail(const std::string& name, const Samples& s, double q,
                        const std::string& unit) {
  if (!s.HasTail(q)) return false;
  Set(name, s.Percentile(q), unit, static_cast<int64_t>(s.count()));
  return true;
}

void SpanBook::Absorb(const std::string& layer,
                      const spnet::spgemm::ExecContext& ctx) {
  for (const auto& [name, value] : ctx.registry.Snapshot()) {
    counters_[layer][name] += value;
  }
  const spnet::metrics::TraceRecorder& trace = ctx.trace;
  const auto& spans = trace.spans();
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const auto& span : spans) {
    if (span.parent >= 0 && span.duration_ms >= 0.0) {
      child_ms[static_cast<size_t>(span.parent)] += span.duration_ms;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].duration_ms < 0.0) continue;  // never closed
    Stat& stat = stats_[spans[i].name];
    stat.total_ms.Add(spans[i].duration_ms);
    stat.self_ms.Add(std::max(0.0, spans[i].duration_ms - child_ms[i]));
  }
  dropped_ += trace.dropped_spans();
}

std::map<std::string, double> SpanBook::counters(
    const std::string& layer) const {
  auto it = counters_.find(layer);
  return it == counters_.end() ? std::map<std::string, double>{} : it->second;
}

bool SpanBook::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"dropped_spans\": " << dropped_ << ", \"spans\": [";
  bool first = true;
  char buf[512];
  for (const auto& [name, stat] : stats_) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"name\": \"%s\", \"count\": %zu, "
                  "\"total_ms_median\": %.6f, \"total_ms_sum\": %.6f, "
                  "\"self_ms_median\": %.6f, \"self_ms_sum\": %.6f}",
                  first ? "" : ",", name.c_str(), stat.total_ms.count(),
                  stat.total_ms.Median(), stat.total_ms.Sum(),
                  stat.self_ms.Median(), stat.self_ms.Sum());
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Checker::Fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  if (failed_ <= 5) std::printf("CHECK FAILED: %s\n", what.c_str());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string MetricSafe(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) c = '-';
  }
  return out;
}

}  // namespace perfbench
