//===- perfbench/harness/Trace.h - In-memory span recorder ------*- C++ -*-===//
//
// The benchmark's own tracer. Spans are opened around calls into Brainy's
// public functions from the harness, never inside the program: each span
// records its name, start, end, thread and the span that was open on the
// same thread when it began (its parent). Everything stays in memory until
// writeChromeTrace() emits Chrome trace-event JSON, which Perfetto and
// about:tracing open as-is.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t nowNs();

struct SpanRecord {
  std::string Name;
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = root
  uint32_t Tid = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
};

/// Per-name aggregate: call count, total duration, and self time (duration
/// minus the time covered by the span's direct children).
struct SpanAggregate {
  uint64_t Count = 0;
  double TotalMs = 0;
  double SelfMs = 0;
  std::vector<double> DurationsMs;
};

class Tracer {
public:
  static Tracer &instance();

  void record(SpanRecord R);
  std::vector<SpanRecord> spans() const;
  std::map<std::string, SpanAggregate> aggregate() const;

  /// Writes every recorded span as Chrome trace-event JSON ("X" events,
  /// microsecond timestamps, id/parent in args). Returns false on IO error.
  bool writeChromeTrace(const std::string &Path) const;

  uint64_t nextId();

private:
  mutable std::mutex M;
  std::vector<SpanRecord> Records;
  uint64_t NextId = 1;
};

/// RAII span: opened at construction, recorded at destruction. Nested spans
/// on one thread link to the innermost open span as their parent.
class Span {
public:
  explicit Span(std::string Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Milliseconds since the span opened.
  double elapsedMs() const;

private:
  SpanRecord R;
};

/// Percentile (0..100) of \p V by nearest rank; 0 for an empty vector.
double percentile(std::vector<double> V, double P);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
