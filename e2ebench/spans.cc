#include "spans.h"

#include <cstdio>

namespace e2e {

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.end > 0.0 && name == span.name) {
      out.push_back((span.end - span.begin) * 1e6);
    }
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().begin;
  std::fprintf(file, "{\"traceEvents\":[\n");
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end <= 0.0) continue;
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"input\":%llu}}\n",
                 first ? "" : ",", span.name, (span.begin - origin) * 1e6,
                 (span.end - span.begin) * 1e6, i,
                 span.parent == kNoParent ? -1LL
                                          : static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.input));
    first = false;
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace e2e
