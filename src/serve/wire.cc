#include "serve/wire.h"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "metrics/json_writer.h"

namespace spnet {
namespace serve {

namespace {

/// Cursor over one request line. All helpers report errors with the byte
/// offset so a client can see exactly where its line went wrong.
struct Scanner {
  const std::string& line;
  size_t pos = 0;

  void SkipSpace() {
    while (pos < line.size() &&
           (line[pos] == ' ' || line[pos] == '\t' || line[pos] == '\r')) {
      ++pos;
    }
  }

  Status ErrorAt(const std::string& what) const {
    return Status::InvalidArgument("request line byte " + std::to_string(pos) +
                                   ": " + what);
  }

  Status Expect(char c) {
    SkipSpace();
    if (pos >= line.size() || line[pos] != c) {
      return ErrorAt(std::string("expected '") + c + "'");
    }
    ++pos;
    return Status::Ok();
  }

  Result<std::string> ParseString() {
    SPNET_RETURN_IF_ERROR(Expect('"'));
    std::string out;
    while (pos < line.size()) {
      const char c = line[pos];
      if (c == '"') {
        ++pos;
        return out;
      }
      if (c == '\\') {
        ++pos;
        if (pos >= line.size()) break;
        switch (line[pos]) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          default:
            // \uXXXX is valid JSON but nothing in the protocol emits it
            // (ids, tenants and sources are ASCII); rejecting beats
            // silently mangling a surrogate pair.
            return ErrorAt("unsupported escape '\\" +
                           std::string(1, line[pos]) + "'");
        }
        ++pos;
        continue;
      }
      out.push_back(c);
      ++pos;
    }
    return ErrorAt("unterminated string");
  }

  Result<double> ParseNumber() {
    SkipSpace();
    const char* start = line.c_str() + pos;
    char* end = nullptr;
    const double value = std::strtod(start, &end);
    if (end == start || !std::isfinite(value)) {
      return ErrorAt("expected a number");
    }
    pos += static_cast<size_t>(end - start);
    return value;
  }

  /// A number that must fit in int: converting an out-of-range double to
  /// int is undefined behavior, so it is rejected at the number's offset.
  Result<int> ParseInt() {
    SkipSpace();
    const size_t start = pos;
    SPNET_ASSIGN_OR_RETURN(const double value, ParseNumber());
    if (!(value >= std::numeric_limits<int>::min() &&
          value <= std::numeric_limits<int>::max())) {
      pos = start;
      return ErrorAt("number outside int range");
    }
    return static_cast<int>(value);
  }
};

}  // namespace

Result<WireRequest> ParseRequestLine(const std::string& line) {
  Scanner s{line};
  WireRequest request;
  SPNET_RETURN_IF_ERROR(s.Expect('{'));
  s.SkipSpace();
  if (s.pos < line.size() && line[s.pos] == '}') {
    ++s.pos;
  } else {
    while (true) {
      SPNET_ASSIGN_OR_RETURN(const std::string key, s.ParseString());
      SPNET_RETURN_IF_ERROR(s.Expect(':'));
      s.SkipSpace();
      if (s.pos >= line.size()) return s.ErrorAt("missing value");
      const char c = line[s.pos];
      if (c == '{' || c == '[') {
        return s.ErrorAt("nested containers are not part of the protocol");
      }
      if (c == '"') {
        SPNET_ASSIGN_OR_RETURN(const std::string value, s.ParseString());
        if (key == "id") {
          request.id = value;
        } else if (key == "tenant") {
          request.tenant = value;
        } else if (key == "source") {
          request.source = value;
        } else if (key == "algorithm") {
          request.algorithm = value;
        }
        // Unknown string keys are ignored (additive evolution).
      } else if (line.compare(s.pos, 4, "true") == 0) {
        s.pos += 4;
      } else if (line.compare(s.pos, 5, "false") == 0) {
        s.pos += 5;
      } else if (line.compare(s.pos, 4, "null") == 0) {
        s.pos += 4;
      } else if (key == "schema_version") {
        SPNET_ASSIGN_OR_RETURN(request.schema_version, s.ParseInt());
      } else if (key == "priority") {
        SPNET_ASSIGN_OR_RETURN(request.priority, s.ParseInt());
      } else {
        SPNET_ASSIGN_OR_RETURN(const double value, s.ParseNumber());
        if (key == "deadline_ms") {
          request.deadline_ms = value;
        }
        // Unknown numeric keys are ignored.
      }
      s.SkipSpace();
      if (s.pos < line.size() && line[s.pos] == ',') {
        ++s.pos;
        continue;
      }
      SPNET_RETURN_IF_ERROR(s.Expect('}'));
      break;
    }
  }
  s.SkipSpace();
  if (s.pos != line.size()) {
    return s.ErrorAt("trailing content after request object");
  }

  SPNET_RETURN_IF_ERROR(engine::ValidateSchemaVersion(request.schema_version));
  if (request.id.empty()) {
    return Status::InvalidArgument("request line has no \"id\"");
  }
  if (request.source.empty()) {
    return Status::InvalidArgument("request '" + request.id +
                                   "' has no \"source\"");
  }
  if (request.tenant.empty()) {
    return Status::InvalidArgument("request '" + request.id +
                                   "' has an empty \"tenant\"");
  }
  return request;
}

std::string SerializeResponse(const engine::Response& response) {
  metrics::JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(response.schema_version);
  w.Key("id").String(response.id);
  w.Key("tenant").String(response.tenant);
  w.Key("ok").Bool(response.status.ok());
  w.Key("code").String(StatusCodeName(response.status.code()));
  w.Key("message").String(response.status.message());
  w.Key("algorithm_used").String(response.algorithm_used);
  w.Key("plan_cache_hit").Bool(response.plan_cache_hit);
  w.Key("fallback_used").Bool(response.fallback_used);
  w.Key("wall_ms").Double(response.wall_ms);
  w.Key("sim_ms").Double(response.sim_ms);
  w.Key("gflops").Double(response.gflops);
  w.Key("flops").Int(response.flops);
  w.Key("output_nnz").Int(response.output_nnz);
  w.EndObject();
  return w.str();
}

}  // namespace serve
}  // namespace spnet
