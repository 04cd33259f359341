// The three workloads of the end-to-end benchmark and the layer replay of
// a traced run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/datasets.h"
#include "spans.h"
#include "stats_util.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 0.08;
  double timeout_s = 60.0;  ///< Per-op budget; a timeout is a failed op.
  std::string trace_path;   ///< Span output of a traced run.
  Clock::time_point process_start;
};

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// First wrong answer: op, query, key and failed check. Empty = correct.
  std::string wrong;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  double throughput_qps = 0.0;  ///< Also reported by traced runs.
};

bool KnownWorkload(const std::string& name);

/// Runs `options.workload` for `options.seconds` and fills the outcome. In a
/// traced run the per-layer metrics are filled instead of the end-to-end
/// ones, and spans go to options.trace_path.
Outcome RunWorkload(const RunOptions& options);

/// Traced-run layer replay: for each query at default parameters, times
/// one engine op through core::RunCellWithContext, then each of its layers
/// called one by one (median of `reps`), and appends the engine.*,
/// linalg.*, stats.* and bicluster.* metrics.
void ReplayLayers(const genbase::core::GenBaseData& data,
                  genbase::core::DatasetSize size, double timeout_s, int reps,
                  SpanLog* spans, int span_thread,
                  std::vector<Metric>* metrics);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
