// Independent answer checks. The oracle rebuilds each query's input from
// the generated dataset with its own code and computes what every answer
// must satisfy, without calling core::RunReferenceQuery, core::*Analytics
// or the engine helpers.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/datasets.h"
#include "core/queries.h"
#include "keys.h"

namespace perfbench {

/// What one key's answer must satisfy on one dataset.
struct Expected {
  genbase::core::QueryId query = genbase::core::QueryId::kRegression;
  int64_t rows = 0;  ///< Q1 rows, Q2/Q5 samples, Q3/Q4 matrix rows.
  int64_t cols = 0;  ///< Q1 predictors, Q2/Q3/Q4 genes, Q5 genes ranked.

  // Q1: normal-equations least squares.
  double r_squared = 0.0;
  double coef_l2 = 0.0;
  std::vector<double> coef_head;

  // Q2: the sorted upper triangle near the requested quantile, with the
  // count and checksums of the pairs above each of those positions.
  double quantile = 0.0;
  int64_t num_pairs = 0;
  std::vector<double> window;           ///< Ascending covariances.
  std::vector<int64_t> above_count;     ///< Pairs strictly above window[i].
  std::vector<double> above_cov_sum;
  std::vector<double> above_meta_sum;
  double cov_abs_sum = 0.0;             ///< Scale for checksum tolerance.
  double cov_scale = 0.0;               ///< max |cov|, scale for ties.

  // Q3: delta = fraction * MSR(selected matrix).
  double delta = 0.0;
  int bicluster_count = 0;

  // Q4: singular values, descending, length = min(rank, cols).
  std::vector<double> singular_values;

  // Q5: own rank-sum tests.
  int64_t terms_tested = 0;
  int64_t significant_lo = 0;  ///< Terms certainly below significance.
  int64_t significant_hi = 0;  ///< ... plus those within rounding of it.
  double z_abs_sum = 0.0;
};

/// A dense, independently built copy of one generated dataset.
class DatasetOracle {
 public:
  explicit DatasetOracle(const genbase::core::GenBaseData& data);

  /// Expected answers for `keys`, in order. Work shared by keys of one
  /// relational group (same filter) is done once.
  std::vector<Expected> ExpectAll(const std::vector<Key>& keys) const;

 private:
  /// Dense patients x genes block for the given row and column indices
  /// (indices into the sorted id lists).
  std::vector<double> Gather(const std::vector<int64_t>& rows,
                             const std::vector<int64_t>& cols) const;
  std::vector<int64_t> GenesBelow(int64_t function_threshold) const;
  std::vector<int64_t> AllGenes() const;

  Expected ExpectRegression(const Key& key) const;
  std::vector<Expected> ExpectCovariance(const std::vector<Key>& keys) const;
  Expected ExpectBicluster(const Key& key) const;
  std::vector<Expected> ExpectSvd(const std::vector<Key>& keys) const;
  std::vector<Expected> ExpectStats(const std::vector<Key>& keys) const;

  int64_t patients_ = 0;
  int64_t genes_ = 0;
  int64_t go_terms_ = 0;
  std::vector<int64_t> patient_ids_;  ///< Ascending.
  std::vector<int64_t> gene_ids_;     ///< Ascending.
  std::vector<double> expr_;          ///< patients x genes, row-major.
  std::vector<int64_t> age_, gender_, disease_;
  std::vector<double> response_;
  std::vector<int64_t> function_, length_;
  std::vector<std::vector<int64_t>> term_genes_;  ///< Gene indices per term.
};

/// Checks `result` against `expected` for `key`. Returns "" when every
/// check passes, else "<check>: <detail>" for the first one that fails.
std::string Check(const Key& key, const Expected& expected,
                  const genbase::core::QueryResult& result);

/// Checks an answer served while datasets may change. `current` is the
/// expectation on the dataset current when the op started; `other`, when
/// set, on the dataset that replaces or was replaced by it. With
/// `overlapped` (a reload ran during the op) either dataset may answer;
/// without it an answer that matches only `other` is stale and fails.
std::string CheckServed(const Key& key, const Expected& current,
                        const Expected* other, bool overlapped,
                        const genbase::core::QueryResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
