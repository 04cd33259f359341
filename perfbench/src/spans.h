// The benchmark's own spans: recorded in memory around each call into the
// program during a traced run, written out when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "stats_util.h"

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = -1;  ///< -1 for a root span.
  int64_t op = -1;      ///< Schedule position or round op index.
  Clock::time_point start;
  Clock::time_point end;
};

/// One buffer per recording thread; no locking. Disabled logs record
/// nothing, so an untraced run pays one branch per call.
class SpanLog {
 public:
  SpanLog(bool enabled, int threads)
      : enabled_(enabled), buffers_(static_cast<size_t>(threads)) {
    // Reserve up front so recording does not reallocate mid-measurement.
    if (enabled_) {
      for (auto& b : buffers_) b.reserve(1 << 17);
    }
  }

  bool enabled() const { return enabled_; }

  /// Records a finished span on `thread`'s buffer and returns its id.
  int64_t Add(int thread, const char* name, int64_t parent, int64_t op,
              Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return -1;
    auto& buf = buffers_[static_cast<size_t>(thread)];
    const int64_t id =
        (static_cast<int64_t>(thread) << 40) | static_cast<int64_t>(buf.size());
    buf.push_back({name, id, parent, op, start, end});
    return id;
  }

  /// Sets the end of a span recorded earlier on `thread` (a parent whose
  /// children had to know its id first).
  void Finish(int thread, int64_t id, Clock::time_point end) {
    if (!enabled_) return;
    buffers_[static_cast<size_t>(thread)][static_cast<size_t>(
        id & ((int64_t{1} << 40) - 1))].end = end;
  }

  /// Writes one JSON object per span (times in ns since `origin`).
  bool Write(const std::string& path, Clock::time_point origin) const {
    std::ofstream out(path);
    if (!out) return false;
    for (size_t t = 0; t < buffers_.size(); ++t) {
      for (const Span& s : buffers_[t]) {
        out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"op\":" << s.op
            << ",\"thread\":" << t << ",\"start_ns\":"
            << std::chrono::duration_cast<std::chrono::nanoseconds>(s.start -
                                                                    origin)
                   .count()
            << ",\"end_ns\":"
            << std::chrono::duration_cast<std::chrono::nanoseconds>(s.end -
                                                                    origin)
                   .count()
            << "}\n";
      }
    }
    return static_cast<bool>(out);
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& b : buffers_) n += b.size();
    return n;
  }

 private:
  bool enabled_;
  std::vector<std::vector<Span>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
