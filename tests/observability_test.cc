// Tests for the observability stack: JSON writer output parses back,
// Registry instruments round-trip through their JSON dump, TraceRecorder
// keeps span nesting straight, and an ExecContext threaded through
// Compute/Measure collects deterministic metrics at any thread count.

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/block_reorganizer.h"
#include "core/reorganizer_config.h"
#include "gpusim/device_spec.h"
#include "metrics/json_writer.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "spgemm/algorithm.h"
#include "spgemm/exec_context.h"
#include "tests/test_util.h"

#include "gtest/gtest.h"

namespace spnet {
namespace {

// --- A minimal recursive-descent JSON reader, just enough to parse back
// --- what JsonWriter emits (objects, arrays, strings, numbers, bool,
// --- null). Lives in the test so the production tree stays parser-free.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = ParseValue(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            const int code =
                std::stoi(text_.substr(pos_, 4), nullptr, 16);
            pos_ += 4;
            // The writer only \u-escapes control characters (< 0x20).
            c = static_cast<char>(code);
            break;
          }
          default: return false;
        }
      }
      out->push_back(c);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = JsonValue::Type::kObject;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') { ++pos_; return true; }
      while (true) {
        SkipSpace();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_++] != ':') return false;
        JsonValue v;
        if (!ParseValue(&v)) return false;
        out->object[key] = std::move(v);
        SkipSpace();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') { ++pos_; continue; }
        if (text_[pos_] == '}') { ++pos_; return true; }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out->type = JsonValue::Type::kArray;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') { ++pos_; return true; }
      while (true) {
        JsonValue v;
        if (!ParseValue(&v)) return false;
        out->array.push_back(std::move(v));
        SkipSpace();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') { ++pos_; continue; }
        if (text_[pos_] == ']') { ++pos_; return true; }
        return false;
      }
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->string);
    }
    if (Literal("true")) { out->type = JsonValue::Type::kBool; out->boolean = true; return true; }
    if (Literal("false")) { out->type = JsonValue::Type::kBool; out->boolean = false; return true; }
    if (Literal("null")) { out->type = JsonValue::Type::kNull; return true; }
    // Number.
    size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) return false;
    out->type = JsonValue::Type::kNumber;
    out->number = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

JsonValue ParseOrDie(const std::string& text) {
  JsonValue v;
  JsonReader reader(text);
  EXPECT_TRUE(reader.Parse(&v)) << "unparseable JSON: " << text;
  return v;
}

TEST(JsonWriterTest, EscapesAndNesting) {
  metrics::JsonWriter w;
  w.BeginObject();
  w.Key("quote\"back\\slash").String("line\nbreak\ttab");
  w.Key("unit").Double(0.5);
  w.Key("neg").Int(-7);
  w.Key("flag").Bool(true);
  w.Key("none").Null();
  w.Key("inf").Double(INFINITY);
  w.Key("list").BeginArray().Int(1).Int(2).EndArray();
  w.EndObject();

  const JsonValue v = ParseOrDie(w.str());
  ASSERT_EQ(v.type, JsonValue::Type::kObject);
  ASSERT_NE(v.Find("quote\"back\\slash"), nullptr);
  EXPECT_EQ(v.Find("quote\"back\\slash")->string, "line\nbreak\ttab");
  EXPECT_DOUBLE_EQ(v.Find("unit")->number, 0.5);
  EXPECT_DOUBLE_EQ(v.Find("neg")->number, -7.0);
  EXPECT_TRUE(v.Find("flag")->boolean);
  EXPECT_EQ(v.Find("none")->type, JsonValue::Type::kNull);
  // JSON has no Inf: the writer degrades it to null.
  EXPECT_EQ(v.Find("inf")->type, JsonValue::Type::kNull);
  ASSERT_EQ(v.Find("list")->array.size(), 2u);
  EXPECT_DOUBLE_EQ(v.Find("list")->array[1].number, 2.0);
}

TEST(RegistryTest, JsonRoundTrip) {
  metrics::Registry registry;
  registry.AddCounter("rows.expanded", 41);
  registry.AddCounter("rows.expanded", 1);
  registry.SetGauge("threshold", 2.5);
  registry.SetGauge("threshold", 3.5);  // last write wins
  registry.ObserveHistogram("factor", 0);
  registry.ObserveHistogram("factor", 3);
  registry.ObserveHistogram("factor", 64);

  const JsonValue v = ParseOrDie(registry.ToJson());
  const JsonValue* counters = v.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("rows.expanded")->number, 42.0);

  const JsonValue* gauges = v.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->Find("threshold")->number, 3.5);

  const JsonValue* histograms = v.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* factor = histograms->Find("factor");
  ASSERT_NE(factor, nullptr);
  EXPECT_DOUBLE_EQ(factor->Find("count")->number, 3.0);
  EXPECT_DOUBLE_EQ(factor->Find("sum")->number, 67.0);
  EXPECT_DOUBLE_EQ(factor->Find("min")->number, 0.0);
  EXPECT_DOUBLE_EQ(factor->Find("max")->number, 64.0);
  // Buckets are {le, count} pairs and their counts add up.
  double total = 0.0;
  for (const JsonValue& bucket : factor->Find("buckets")->array) {
    total += bucket.Find("count")->number;
  }
  EXPECT_DOUBLE_EQ(total, 3.0);
}

TEST(RegistryTest, HistogramBucketing) {
  metrics::Histogram h;
  h.Observe(0);   // bucket 0
  h.Observe(1);   // bucket 1
  h.Observe(5);   // bucket 3: [4, 7]
  h.Observe(7);   // bucket 3
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 13);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 7);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(1), 1);
  EXPECT_EQ(h.bucket(3), 2);
  EXPECT_EQ(metrics::Histogram::BucketUpperBound(3), 7);
}

TEST(RegistryTest, EmptyHistogramReportsZeroExtremes) {
  // The raw min/max slots hold INT64_MAX/INT64_MIN sentinels before the
  // first observation; accessors must never leak them.
  const metrics::Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(RegistryTest, HistogramExtremeValues) {
  metrics::Histogram h;
  h.Observe(0);
  EXPECT_EQ(h.bucket(0), 1);  // bucket 0 holds exactly {0}
  h.Observe(std::numeric_limits<int64_t>::max());
  EXPECT_EQ(h.bucket(metrics::Histogram::kBuckets - 1), 1);
  EXPECT_EQ(h.max(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(metrics::Histogram::BucketUpperBound(63),
            std::numeric_limits<int64_t>::max());
}

#ifdef NDEBUG
TEST(RegistryTest, NegativeObservationClampsToZeroInRelease) {
  // In debug builds the assert fires instead; the release clamp keeps a
  // buggy call site from driving sum/min negative.
  metrics::Histogram h;
  h.Observe(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.bucket(0), 1);
}
#else
TEST(RegistryTest, NegativeObservationAssertsInDebug) {
  metrics::Histogram h;
  EXPECT_DEATH(h.Observe(-5), "non-negative");
}
#endif

TEST(RegistryTest, NameCollisionAcrossKindsIsDisabled) {
  metrics::Registry registry;
  ASSERT_NE(registry.GetCounter("x"), nullptr);
  // Same name, different kind: lookup refuses rather than aliasing.
  EXPECT_EQ(registry.GetGauge("x"), nullptr);
  EXPECT_EQ(registry.GetHistogram("x"), nullptr);
  // The convenience wrappers treat the collision as "metric disabled".
  registry.SetGauge("x", 9.0);
  registry.ObserveHistogram("x", 9);
  const auto snapshot = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.at("x"), 0.0);
}

TEST(RegistryTest, FindHistogramIsAPureLookup) {
  metrics::Registry registry;
  // Absent name: null, and the probe must not materialize an empty
  // instrument (a stats read is not an instrumentation site).
  EXPECT_EQ(registry.FindHistogram("latency"), nullptr);
  EXPECT_EQ(registry.FindHistogram("latency"), nullptr);
  EXPECT_TRUE(registry.Snapshot().empty());

  registry.ObserveHistogram("latency", 42);
  const metrics::Histogram* h = registry.FindHistogram("latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1);
  EXPECT_DOUBLE_EQ(h->Percentile(0.5), 42.0);

  // A name registered as another kind is "not a histogram", same as the
  // GetHistogram collision contract.
  ASSERT_NE(registry.GetCounter("hits"), nullptr);
  EXPECT_EQ(registry.FindHistogram("hits"), nullptr);
}

TEST(TraceRecorderTest, NestedSpanOrdering) {
  metrics::TraceRecorder trace;
  const int outer = trace.Begin("measure");
  const int plan = trace.Begin("plan");
  trace.End(plan);
  const int simulate = trace.Begin("simulate");
  trace.End(simulate);
  trace.End(outer);

  const auto& spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "measure");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "plan");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[2].name, "simulate");
  EXPECT_EQ(spans[2].depth, 1);
  EXPECT_EQ(spans[2].parent, outer);
  for (const auto& span : spans) {
    EXPECT_GE(span.duration_ms, 0.0) << span.name;
    EXPECT_GE(span.start_ms, 0.0) << span.name;
  }
  // Children start no earlier than their parent.
  EXPECT_GE(spans[1].start_ms, spans[0].start_ms);

  const JsonValue v = ParseOrDie(trace.ToJson());
  ASSERT_EQ(v.array.size(), 3u);
  EXPECT_EQ(v.array[0].Find("name")->string, "measure");
  EXPECT_EQ(v.array[1].Find("depth")->number, 1.0);
}

TEST(TraceRecorderTest, EndClosesDeeperOpenSpans) {
  metrics::TraceRecorder trace;
  const int outer = trace.Begin("outer");
  trace.Begin("inner");       // never explicitly ended
  trace.Begin("innermost");   // never explicitly ended
  trace.End(outer);
  for (const auto& span : trace.spans()) {
    EXPECT_GE(span.duration_ms, 0.0) << span.name << " left open";
  }
  // A fresh Begin after everything closed is a root again.
  const int next = trace.Begin("next");
  trace.End(next);
  EXPECT_EQ(trace.spans().back().depth, 0);
}

TEST(TraceRecorderTest, CapsAndCountsDroppedSpans) {
  metrics::TraceRecorder trace;
  for (size_t i = 0; i < metrics::TraceRecorder::kMaxSpans + 10; ++i) {
    const int id = trace.Begin("s");
    trace.End(id);
  }
  EXPECT_EQ(trace.spans().size(), metrics::TraceRecorder::kMaxSpans);
  EXPECT_EQ(trace.dropped_spans(), 10);
}

TEST(TraceRecorderTest, ScopedSpanToleratesNullRecorder) {
  metrics::ScopedSpan span(nullptr, "noop");  // must not crash
  spgemm::ExecContext* null_ctx = nullptr;
  spgemm::AddCounter(null_ctx, "noop", 1);
  spgemm::SetGauge(null_ctx, "noop", 1.0);
  spgemm::ObserveHistogram(null_ctx, "noop", 1);
  EXPECT_EQ(spgemm::TraceOf(null_ctx), nullptr);
}

// Snapshot keys that describe the computation rather than the clock or
// the pool schedule; these must not depend on the host thread count.
std::map<std::string, double> DeterministicSubset(
    const std::map<std::string, double>& snapshot) {
  const char* prefixes[] = {"classifier.", "splitting.", "gathering.",
                            "limiting.",   "expand.",    "merge.",
                            "sim."};
  std::map<std::string, double> out;
  for (const auto& [key, value] : snapshot) {
    for (const char* prefix : prefixes) {
      if (key.rfind(prefix, 0) == 0) {
        out[key] = value;
        break;
      }
    }
  }
  return out;
}

std::map<std::string, double> RunWithThreads(int threads) {
  SetGlobalThreadCount(threads);
  const sparse::CsrMatrix a = testing_util::SkewedMatrix(300, 600, 7);
  auto reorganizer = core::MakeBlockReorganizer(core::ReorganizerConfig());
  SPNET_CHECK(reorganizer.ok());
  spgemm::ExecContext ctx;
  auto m = spgemm::Measure(**reorganizer, a, a,
                           gpusim::DeviceSpec::TitanXp(), &ctx);
  SPNET_CHECK(m.ok()) << m.status().ToString();
  auto c = (*reorganizer)->Compute(a, a, &ctx);
  SPNET_CHECK(c.ok()) << c.status().ToString();
  return ctx.registry.Snapshot();
}

TEST(ExecContextTest, MetricsDeterministicAcrossThreadCounts) {
  const auto serial = RunWithThreads(1);
  const auto parallel = RunWithThreads(4);
  SetGlobalThreadCount(0);
  const auto lhs = DeterministicSubset(serial);
  const auto rhs = DeterministicSubset(parallel);
  ASSERT_FALSE(lhs.empty());
  EXPECT_EQ(lhs, rhs);
  // The classifier actually saw the workload.
  EXPECT_GT(lhs.at("classifier.nonzero_pairs"), 0.0);
  EXPECT_GT(lhs.at("sim.kernels_run"), 0.0);
}

TEST(ExecContextTest, MeasureRecordsSpansAndPoolCounters) {
  const sparse::CsrMatrix a = testing_util::RandomMatrix(80, 80, 0.05, 3);
  // A baseline and the reorganizer: the workload build is traced by the
  // shared Plan skeleton, not by either algorithm.
  std::vector<std::unique_ptr<spgemm::SpGemmAlgorithm>> algorithms;
  algorithms.push_back(spgemm::MakeOuterProduct());
  algorithms.push_back(std::make_unique<core::BlockReorganizerSpGemm>());
  for (const auto& alg : algorithms) {
    SCOPED_TRACE(alg->name());
    SetGlobalThreadCount(2);
    spgemm::ExecContext ctx;
    auto m = spgemm::Measure(*alg, a, a, gpusim::DeviceSpec::TitanXp(), &ctx);
    SetGlobalThreadCount(0);
    ASSERT_TRUE(m.ok()) << m.status().ToString();

    const auto& spans = ctx.trace.spans();
    std::vector<std::string> names;
    for (const auto& span : spans) names.push_back(span.name);
    ASSERT_FALSE(names.empty());
    EXPECT_EQ(names.front(), "measure:" + alg->name());
    const auto plan =
        std::find(names.begin(), names.end(), "plan:" + alg->name());
    ASSERT_NE(plan, names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "simulate"), names.end());
    // The plan span nests inside the measure span, and the workload build
    // inside the plan span.
    EXPECT_EQ(spans[1].parent, 0);
    const auto workload =
        std::find(names.begin(), names.end(), "build-workload");
    ASSERT_NE(workload, names.end());
    EXPECT_EQ(spans[static_cast<size_t>(workload - names.begin())].parent,
              plan - names.begin());

    const auto snapshot = ctx.registry.Snapshot();
    // Pool counters published once (outermost scope only), so chunks_run
    // reflects real work, not a double count.
    ASSERT_TRUE(snapshot.count("pool.chunks_run"));
    EXPECT_GT(snapshot.at("sim.kernels_run"), 0.0);
    EXPECT_GT(snapshot.at("measure.total_seconds"), 0.0);
  }
}

TEST(ExecContextTest, ToJsonParsesBack) {
  spgemm::ExecContext ctx;
  spgemm::AddCounter(&ctx, "c", 5);
  spgemm::SetGauge(&ctx, "g", 1.25);
  {
    metrics::ScopedSpan span(spgemm::TraceOf(&ctx), "stage");
  }
  const JsonValue v = ParseOrDie(ctx.ToJson());
  EXPECT_DOUBLE_EQ(v.Find("schema_version")->number, 1.0);
  const JsonValue* m = v.Find("metrics");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->Find("counters")->Find("c")->number, 5.0);
  EXPECT_DOUBLE_EQ(m->Find("gauges")->Find("g")->number, 1.25);
  const JsonValue* trace = v.Find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->array.size(), 1u);
  EXPECT_EQ(trace->array[0].Find("name")->string, "stage");
  EXPECT_EQ(trace->array[0].Find("dur_ms")->type, JsonValue::Type::kNumber);
}

}  // namespace
}  // namespace spnet
