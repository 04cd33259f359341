// End-to-end benchmark driver. Usage:
//   perfbench --workload paper_cells|serve_zipf|serve_churn --seed N
//             --seconds S --trace 0|1 [--scale X] [--timeout T]
//             [--trace-out PATH]
// Prints an info line, then as its last line one JSON object with exactly
// the keys correct, attempted, failed and metrics. A wrong answer names the
// op, query, key and failed check on stderr and exits 1.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/simd.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_cells|serve_zipf|serve_churn --seed N --seconds S "
               "--trace 0|1 [--scale X] [--timeout T] [--trace-out PATH]\n",
               why);
  std::exit(2);
}

double ParseDouble(const char* s, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !std::isfinite(v)) {
    Usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.process_start = perfbench::Clock::now();
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      char* end = nullptr;
      errno = 0;
      options.seed = std::strtoull(value, &end, 10);
      if (errno != 0 || end == value || *end != '\0') Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = ParseDouble(value, "--seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--scale") {
      options.scale = ParseDouble(value, "--scale");
    } else if (flag == "--timeout") {
      options.timeout_s = ParseDouble(value, "--timeout");
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !perfbench::KnownWorkload(options.workload)) {
    Usage("--workload must be paper_cells, serve_zipf or serve_churn");
  }
  if (!have_seed) Usage("--seed is required");
  if (!(options.seconds > 0 && options.seconds <= 3600)) {
    Usage("--seconds must be in (0, 3600]");
  }
  if (!(options.scale > 0 && options.scale <= 1)) {
    Usage("--scale must be in (0, 1]");
  }
  if (!(options.timeout_s > 0)) Usage("--timeout must be positive");
  if (options.trace && options.trace_path.empty()) {
    options.trace_path = "perfbench-trace-" + options.workload + "-" +
                         std::to_string(options.seed) + ".jsonl";
  }

  const perfbench::Outcome out = perfbench::RunWorkload(options);
  const bool correct = out.wrong.empty();
  if (!correct) std::fprintf(stderr, "perfbench: WRONG ANSWER: %s\n", out.wrong.c_str());

  const auto& metrics = options.trace ? out.per_layer : out.end_to_end;
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"backend\": \"%s\", "
      "\"scale\": %g, \"traced\": %s, \"ops_attempted\": %lld, "
      "\"ops_failed\": %lld, \"throughput_qps\": %.6f, \"metrics\": %s}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      genbase::simd::BackendName(genbase::simd::ActiveBackend()),
      options.scale, options.trace ? "true" : "false",
      static_cast<long long>(out.attempted),
      static_cast<long long>(out.failed), out.throughput_qps,
      perfbench::MetricsJson(metrics).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, out.attempted)),
              static_cast<long long>(out.failed),
              perfbench::MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
