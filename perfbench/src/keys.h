// Operation keys, key pools and seeded op schedules of the end-to-end
// benchmark. Everything here is a pure function of its arguments, so a
// (workload, seed) pair always yields the same inputs.
#ifndef PERFBENCH_KEYS_H_
#define PERFBENCH_KEYS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/datasets.h"
#include "core/queries.h"

namespace perfbench {

/// One cacheable operation: a query and its full parameter set.
struct Key {
  genbase::core::QueryId query = genbase::core::QueryId::kRegression;
  genbase::core::QueryParams params;
};

/// 0-based index of a query (Q1 -> 0 ... Q5 -> 4).
int QueryIndex(genbase::core::QueryId q);

/// "Q4{function_threshold=250 svd_rank=50}": the parameters that matter to
/// the query, for failure messages and traces.
std::string DescribeKey(const Key& key);

/// splitmix64: the benchmark's own generator, so no library RNG change can
/// alter a schedule.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();  ///< [0, 1)
  uint64_t Below(uint64_t n);

 private:
  uint64_t state_;
};

/// Facts about a generated dataset that decide which keys are valid.
struct DataFacts {
  int64_t patients = 0;
  int64_t genes = 0;
  std::vector<int64_t> disease_patients;  ///< Indexed by disease id.
  /// Patients per (gender, max_age) filter, keyed gender * 1000 + max_age.
  std::vector<std::pair<int64_t, int64_t>> age_gender_patients;
  std::vector<int64_t> genes_below_function;  ///< [t] = #genes function < t.
};

DataFacts ComputeFacts(const genbase::core::GenBaseData& data);

/// Keys valid on every dataset in `facts`.
/// serve_zipf: a pool larger than the serving cache's 256-entry bound.
std::vector<Key> ZipfPool(const std::vector<DataFacts>& facts);
/// serve_churn: a pool that fits within the cache bound.
std::vector<Key> ChurnPool(const std::vector<DataFacts>& facts);

/// Per-query mix weights, Q1..Q5.
struct Mix {
  double weight[5];
};
inline constexpr Mix kZipfMix{{30, 20, 5, 15, 30}};   // fig7's mix.
inline constexpr Mix kChurnMix{{30, 25, 5, 2, 38}};   // Q4 rare.

/// A seeded schedule of pool indices: each op draws its query from `mix`,
/// then a key of that query by Zipf(`exponent`) over the query's keys in
/// pool order (rank 1 = first listed). Pool order is fixed; the seed only
/// changes the draw sequence.
std::vector<uint32_t> BuildSchedule(const std::vector<Key>& pool,
                                    const Mix& mix, double exponent,
                                    size_t length, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_KEYS_H_
