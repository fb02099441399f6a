// In-memory span log of the benchmark driver.
//
// The driver times every call it makes into a layer of the library from
// outside, on std::chrono::steady_clock in nanoseconds, and tags each span
// with the frame it belongs to and the span that caused it. Every driver
// loop records from one thread, so the log takes no lock. Nothing is
// written until `write_span_dump` after the timed phases, so recording
// costs one clock read and one vector append.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One span recorded by the driver. `name` points at a string literal.
struct Span {
  const char* name = "";
  int64_t frame = -1;   ///< frame id shared by every span of one frame
  int32_t parent = -1;  ///< index of the parent span in the same log
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// The driver's spans, recorded by one thread at a time, plus the library's
/// obs spans drained into it. A disabled log records nothing and hands out
/// index -1, so call sites need no branches of their own.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Opens a span; close it with `end`. Returns its index (or -1).
  int32_t begin(const char* name, int64_t frame, int32_t parent,
                int64_t start_ns) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back({name, frame, parent, start_ns, start_ns});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void end(int32_t index, int64_t end_ns) {
    if (index >= 0) {
      spans_[static_cast<size_t>(index)].end_ns = end_ns;
    }
  }

  /// Records a span whose start and end are both already known.
  int32_t add(const char* name, int64_t frame, int32_t parent,
              int64_t start_ns, int64_t end_ns) {
    const int32_t index = begin(name, frame, parent, start_ns);
    end(index, end_ns);
    return index;
  }

  void reserve(size_t spans) {
    if (enabled_) {
      spans_.reserve(spans);
    }
  }

  /// Moves every obs span recorded so far into this log and empties the
  /// obs rings, so a long traced phase never overruns them. Call only
  /// while no other thread records obs spans.
  void drain_library_spans() {
    if (!enabled_) {
      return;
    }
    std::vector<roadfusion::obs::TraceEvent> events =
        roadfusion::obs::collect_events();
    library_.insert(library_.end(), events.begin(), events.end());
    library_dropped_ += roadfusion::obs::dropped_event_count();
    roadfusion::obs::reset_tracing();
  }

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<roadfusion::obs::TraceEvent>& library_spans() const {
    return library_;
  }
  /// Obs spans lost to ring wraparound before they were drained.
  uint64_t library_dropped() const { return library_dropped_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<roadfusion::obs::TraceEvent> library_;
  uint64_t library_dropped_ = 0;
};

/// Writes the driver's spans and the drained library obs spans of `log`
/// as two tab-separated files under `dir`:
///   driver_spans.tsv  frame index parent name start_ns end_ns
///   obs_spans.tsv     tid name start_us duration_us
/// Returns false when a file cannot be written.
bool write_span_dump(const std::string& dir, const SpanLog& log);

}  // namespace perfbench
