#include "trace.h"

#include <cmath>
#include <cstdio>

namespace aggbench {
namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool TraceRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"query_id\":%llu",
                 i == 0 ? "" : ",\n", JsonEscape(span.name).c_str(),
                 static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.query_id));
    for (const auto& [key, value] : span.args) {
      // JSON has no NaN or infinity; a non-finite count is written as null.
      if (std::isfinite(value)) {
        std::fprintf(file, ",\"%s\":%.17g", JsonEscape(key).c_str(), value);
      } else {
        std::fprintf(file, ",\"%s\":null", JsonEscape(key).c_str());
      }
    }
    std::fprintf(file, "}}");
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace aggbench
