// In-memory span recorder. The benchmark wraps every call it makes into
// a pdtstore module in a Span; a span carries its name, start, end, the
// span that caused it and the request it belongs to. Spans stay in
// memory until the run ends, then are written out as JSON lines.
//
// A Span always measures its own duration (the untraced run's latency
// samples come from the same clock reads); it is recorded only when the
// recorder is enabled and the request is traced.
#ifndef PDTSTORE_PERFBENCH_TRACE_H_
#define PDTSTORE_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< static string: "<layer>.<call>"
  int64_t start_ns = 0;   ///< steady clock, relative to the recorder
  int64_t end_ns = 0;
  uint64_t id = 0;      ///< unique, > 0
  uint64_t parent = 0;  ///< 0 for a root span
  uint64_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (children may overlap one another and
/// may run on other threads; the covered part is the union, clipped to
/// the parent's interval). Returned in the order of `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

/// Sums self time per layer, the text before the first '.' of a name.
std::map<std::string, int64_t> SelfTimeByLayerNs(
    const std::vector<SpanRecord>& spans);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const SpanRecord& span);

  /// Every span recorded so far, in recording order.
  std::vector<SpanRecord> Spans() const;
  /// Writes the spans as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// One timed call. A root span (parent == nullptr) opens a new request;
/// `traced = false` on a root keeps it and all its children out of the
/// recorder (the overhead estimate alternates traced and untraced
/// requests within one run).
class Span {
 public:
  Span(Tracer* tracer, const char* name, const Span* parent,
       bool traced = true);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in ms.
  double End();

 private:
  Tracer* tracer_;
  bool record_;
  SpanRecord rec_;
  bool ended_ = false;
};

}  // namespace perfbench

#endif  // PDTSTORE_PERFBENCH_TRACE_H_
