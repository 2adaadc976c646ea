#include "sparse/matrix_market.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "verify/fault_injection.h"

namespace spnet {
namespace sparse {

namespace {

std::string ToLower(std::string s) {
  // std::tolower(int) is undefined for negative values other than EOF, and
  // plain char is signed on most ABIs — a non-ASCII byte in a header token
  // must go through unsigned char.
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

/// Removes a trailing '\r' so CRLF files parse like LF files. Only the
/// getline-based header/size lines need this; entry parsing uses stream
/// extraction, which already treats '\r' as whitespace.
void StripCr(std::string* line) {
  if (!line->empty() && line->back() == '\r') line->pop_back();
}

}  // namespace

Result<CsrMatrix> ParseMatrixMarket(const std::string& content) {
  std::istringstream in(content);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::IoError("empty Matrix Market input");
  }
  StripCr(&line);
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket") {
    return Status::InvalidArgument("missing %%MatrixMarket banner");
  }
  object = ToLower(object);
  format = ToLower(format);
  field = ToLower(field);
  symmetry = ToLower(symmetry);
  if (object != "matrix" || format != "coordinate") {
    return Status::Unimplemented("only 'matrix coordinate' is supported, got " +
                                 object + " " + format);
  }
  const bool pattern = field == "pattern";
  if (!pattern && field != "real" && field != "integer") {
    return Status::Unimplemented("unsupported field type: " + field);
  }
  const bool symmetric = symmetry == "symmetric";
  if (!symmetric && symmetry != "general") {
    return Status::Unimplemented("unsupported symmetry: " + symmetry);
  }

  // Skip comments, then read the size line.
  bool have_size_line = false;
  while (std::getline(in, line)) {
    StripCr(&line);
    if (!line.empty() && line[0] != '%') {
      have_size_line = true;
      break;
    }
  }
  if (!have_size_line) {
    return Status::InvalidArgument("missing size line (comment-only input)");
  }
  long long rows = 0, cols = 0, entries = 0;
  {
    std::istringstream size_line(line);
    if (!(size_line >> rows >> cols >> entries)) {
      return Status::InvalidArgument("malformed size line: " + line);
    }
  }
  if (rows < 0 || cols < 0 || entries < 0) {
    return Status::InvalidArgument("negative sizes in header");
  }
  // Index is 32-bit; a larger header would silently wrap in the casts
  // below and corrupt every entry bound check after it.
  constexpr long long kMaxIndex = std::numeric_limits<Index>::max();
  if (rows > kMaxIndex || cols > kMaxIndex) {
    return Status::OutOfRange("header dimensions " + std::to_string(rows) +
                              " x " + std::to_string(cols) +
                              " exceed 32-bit index range");
  }

  CooMatrix coo(static_cast<Index>(rows), static_cast<Index>(cols));
  // The size line is untrusted: every entry needs more than two bytes of
  // `content` ("r c"), which bounds the reservation without trusting
  // `entries` or doubling it past long long.
  const long long plausible = std::min<long long>(
      entries, static_cast<long long>(content.size() / 2));
  coo.Reserve(symmetric ? 2 * plausible : plausible);
  for (long long k = 0; k < entries; ++k) {
    long long r = 0, c = 0;
    double v = 1.0;
    if (!(in >> r >> c)) {
      return Status::IoError("unexpected end of entries at " +
                             std::to_string(k));
    }
    if (!pattern && !(in >> v)) {
      return Status::IoError("missing value at entry " + std::to_string(k));
    }
    if (r < 1 || r > rows || c < 1 || c > cols) {
      return Status::OutOfRange("entry (" + std::to_string(r) + ", " +
                                std::to_string(c) + ") out of bounds");
    }
    coo.Add(static_cast<Index>(r - 1), static_cast<Index>(c - 1), v);
    if (symmetric && r != c) {
      coo.Add(static_cast<Index>(c - 1), static_cast<Index>(r - 1), v);
    }
  }
  return CsrMatrix::FromCoo(coo);
}

Result<CsrMatrix> ReadMatrixMarket(const std::string& path) {
  SPNET_RETURN_IF_ERROR(verify::MaybeInjectFault(verify::kSiteLoaderRead));
  std::ifstream file(path);
  if (!file) {
    return Status::IoError("cannot open " + path);
  }
  std::ostringstream content;
  content << file.rdbuf();
  return ParseMatrixMarket(content.str());
}

Status WriteMatrixMarket(const CsrMatrix& m, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << m.rows() << " " << m.cols() << " " << m.nnz() << "\n";
  for (Index r = 0; r < m.rows(); ++r) {
    const SpanView row = m.Row(r);
    for (Offset k = 0; k < row.size; ++k) {
      out << (r + 1) << " " << (row.indices[k] + 1) << " " << row.values[k]
          << "\n";
    }
  }
  if (!out) {
    return Status::IoError("write failed for " + path);
  }
  return Status::Ok();
}

}  // namespace sparse
}  // namespace spnet
