// In-memory spans for the traced mode: one record per call into a
// layer's public function, with the span that caused it and the input
// (page or query) it belongs to. Kept in memory while the run lasts and
// written out as a Chrome trace_event file at the end.
#ifndef WEBRE_E2EBENCH_SPANS_H_
#define WEBRE_E2EBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace e2e {

class SpanLog {
 public:
  static constexpr uint32_t kNoParent = 0xFFFFFFFFu;

  /// Opens a span; returns its id.
  uint32_t Begin(const char* name, uint32_t parent = kNoParent,
                 uint64_t input = 0) {
    spans_.push_back(Span{name, Now(), 0.0, parent, input});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void End(uint32_t id) { spans_[id].end = Now(); }
  /// Records a span whose interval was timed by the caller (when its
  /// name depends on what the call did).
  void Add(const char* name, double begin, double end,
           uint32_t parent = kNoParent, uint64_t input = 0) {
    spans_.push_back(Span{name, begin, end, parent, input});
  }

  /// Durations of every closed span named `name`, in microseconds.
  std::vector<double> DurationsUs(const std::string& name) const;

  /// Writes the spans as Chrome trace_event JSON. Returns false on an
  /// I/O error.
  bool WriteChromeTrace(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    double begin;
    double end;
    uint32_t parent;
    uint64_t input;
  };
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, uint32_t parent = SpanLog::kNoParent,
         uint64_t input = 0)
      : log_(log), id_(log.Begin(name, parent, input)) {}
  ~Scoped() { log_.End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  uint32_t id_;
};

}  // namespace e2e

#endif  // WEBRE_E2EBENCH_SPANS_H_
