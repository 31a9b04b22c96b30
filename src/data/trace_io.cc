#include "data/trace_io.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

namespace apc {

const char kTraceCsvMagic[] = "# apcache-trace-v1";

namespace {

/// Parses "hosts=H duration=T" from the header tail. Returns false on any
/// malformed field (the caller reports Corruption).
bool ParseHeader(const std::string& line, size_t* hosts, size_t* duration) {
  std::stringstream ss(line.substr(std::strlen(kTraceCsvMagic)));
  std::string token;
  bool saw_hosts = false;
  bool saw_duration = false;
  while (ss >> token) {
    size_t eq = token.find('=');
    if (eq == std::string::npos) return false;
    std::string key = token.substr(0, eq);
    char* end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(token.c_str() + eq + 1, &end, 10);
    if (end == token.c_str() + eq + 1 || *end != '\0' || errno == ERANGE) {
      return false;
    }
    if (key == "hosts") {
      *hosts = static_cast<size_t>(v);
      saw_hosts = true;
    } else if (key == "duration") {
      *duration = static_cast<size_t>(v);
      saw_duration = true;
    } else {
      return false;
    }
  }
  return saw_hosts && saw_duration;
}

}  // namespace

Status SaveTraceCsv(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open for writing: " + path);
  }
  size_t duration = trace.duration();
  out << kTraceCsvMagic << " hosts=" << trace.hosts.size()
      << " duration=" << duration << '\n';
  // max_digits10: enough decimal digits that strtod recovers every double
  // bit-for-bit, which is what makes save/load a true round trip.
  out.precision(std::numeric_limits<double>::max_digits10);
  for (size_t t = 0; t < duration; ++t) {
    for (size_t h = 0; h < trace.hosts.size(); ++h) {
      if (h > 0) out << ',';
      out << trace.hosts[h][t];
    }
    out << '\n';
  }
  out.flush();
  if (!out) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Result<Trace> LoadTraceCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open for reading: " + path);
  }
  std::vector<std::vector<double>> rows;
  std::string line;
  size_t line_no = 0;
  bool have_header = false;
  size_t header_hosts = 0;
  size_t header_duration = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.compare(0, std::strlen(kTraceCsvMagic), kTraceCsvMagic) == 0) {
      if (have_header || line_no != 1 ||
          !ParseHeader(line, &header_hosts, &header_duration)) {
        return Status::Corruption("malformed trace header at line " +
                                  std::to_string(line_no));
      }
      have_header = true;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;  // comments are free-form
    std::vector<double> row;
    std::stringstream ss(line);
    std::string field;
    while (std::getline(ss, field, ',')) {
      char* end = nullptr;
      errno = 0;
      double v = std::strtod(field.c_str(), &end);
      const char* rest = end;
      while (std::isspace(static_cast<unsigned char>(*rest))) ++rest;
      // The whole field must be one finite number: a NaN or infinite value
      // would be cached as an interval that contains nothing, and "1.5abc"
      // is not 1.5. Trailing whitespace (a CRLF line end) is fine.
      if (end == field.c_str() || errno == ERANGE || *rest != '\0' ||
          !std::isfinite(v)) {
        return Status::Corruption("non-numeric or non-finite field '" +
                                  field + "' at line " +
                                  std::to_string(line_no));
      }
      row.push_back(v);
    }
    if (!rows.empty() && row.size() != rows.front().size()) {
      return Status::Corruption("ragged row at line " +
                                std::to_string(line_no));
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    return Status::InvalidArgument("empty trace file: " + path);
  }
  if (have_header) {
    // The header is what catches truncation at a row boundary — without it
    // a cut file is just a shorter (still rectangular) trace.
    if (rows.front().size() != header_hosts || rows.size() != header_duration) {
      return Status::Corruption(
          "trace dimensions " + std::to_string(rows.front().size()) + "x" +
          std::to_string(rows.size()) + " disagree with header " +
          std::to_string(header_hosts) + "x" +
          std::to_string(header_duration) + " (truncated file?): " + path);
    }
  }

  Trace trace;
  size_t num_hosts = rows.front().size();
  trace.hosts.assign(num_hosts, std::vector<double>(rows.size()));
  for (size_t t = 0; t < rows.size(); ++t) {
    for (size_t h = 0; h < num_hosts; ++h) {
      trace.hosts[h][t] = rows[t][h];
    }
  }
  return trace;
}

}  // namespace apc
