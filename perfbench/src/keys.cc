#include "keys.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

using genbase::core::QueryId;
using genbase::core::QueryParams;

int QueryIndex(QueryId q) { return static_cast<int>(q) - 1; }

std::string DescribeKey(const Key& key) {
  const QueryParams& p = key.params;
  char buf[160];
  switch (key.query) {
    case QueryId::kRegression:
      std::snprintf(buf, sizeof(buf), "Q1{function_threshold=%lld}",
                    static_cast<long long>(p.function_threshold));
      break;
    case QueryId::kCovariance:
      std::snprintf(buf, sizeof(buf),
                    "Q2{disease_id=%lld covariance_quantile=%.4f}",
                    static_cast<long long>(p.disease_id),
                    p.covariance_quantile);
      break;
    case QueryId::kBiclustering:
      std::snprintf(buf, sizeof(buf),
                    "Q3{max_age=%lld gender=%lld delta_fraction=%.3f "
                    "bicluster_count=%d}",
                    static_cast<long long>(p.max_age),
                    static_cast<long long>(p.gender),
                    p.bicluster_delta_fraction, p.bicluster_count);
      break;
    case QueryId::kSvd:
      std::snprintf(buf, sizeof(buf), "Q4{function_threshold=%lld svd_rank=%d}",
                    static_cast<long long>(p.function_threshold), p.svd_rank);
      break;
    case QueryId::kStatistics:
      std::snprintf(buf, sizeof(buf),
                    "Q5{sample_fraction=%.4f significance=%.4f}",
                    p.sample_fraction, p.significance);
      break;
  }
  return buf;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

uint64_t Rng::Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

DataFacts ComputeFacts(const genbase::core::GenBaseData& data) {
  using genbase::core::GeneCols;
  using genbase::core::PatientCols;
  DataFacts f;
  f.patients = data.patients.num_rows();
  f.genes = data.genes.num_rows();
  const auto& disease = data.patients.IntColumn(PatientCols::kDiseaseId);
  const auto& age = data.patients.IntColumn(PatientCols::kAge);
  const auto& gender = data.patients.IntColumn(PatientCols::kGender);
  f.disease_patients.assign(64, 0);
  for (int64_t d : disease) {
    if (d >= 0 && d < 64) ++f.disease_patients[static_cast<size_t>(d)];
  }
  for (int64_t g = 0; g <= 1; ++g) {
    for (int64_t max_age = 20; max_age <= 80; max_age += 5) {
      int64_t n = 0;
      for (size_t i = 0; i < age.size(); ++i) {
        n += (gender[i] == g && age[i] < max_age) ? 1 : 0;
      }
      f.age_gender_patients.push_back({g * 1000 + max_age, n});
    }
  }
  const auto& function = data.genes.IntColumn(GeneCols::kFunction);
  f.genes_below_function.assign(501, 0);
  for (int64_t t = 0; t <= 500; ++t) {
    f.genes_below_function[static_cast<size_t>(t)] = std::count_if(
        function.begin(), function.end(), [t](int64_t v) { return v < t; });
  }
  return f;
}

namespace {

int64_t AgeGenderPatients(const DataFacts& f, int64_t gender,
                          int64_t max_age) {
  for (const auto& [k, n] : f.age_gender_patients) {
    if (k == gender * 1000 + max_age) return n;
  }
  return 0;
}

bool ValidEverywhere(const std::vector<DataFacts>& facts, const Key& key) {
  for (const DataFacts& f : facts) {
    const QueryParams& p = key.params;
    switch (key.query) {
      case QueryId::kRegression:
      case QueryId::kSvd: {
        const int64_t cols =
            f.genes_below_function[static_cast<size_t>(p.function_threshold)];
        // Q1 needs a full-column-rank design [1 | X] with room to spare.
        if (cols < 1 || (key.query == QueryId::kRegression &&
                         cols + 1 > f.patients - 16)) {
          return false;
        }
        break;
      }
      case QueryId::kCovariance:
        // Covariance divides by m - 1; a one-patient disease is rightly
        // rejected by the program.
        if (f.disease_patients[static_cast<size_t>(p.disease_id)] < 3) {
          return false;
        }
        break;
      case QueryId::kBiclustering:
        if (AgeGenderPatients(f, p.gender, p.max_age) < 16) return false;
        break;
      case QueryId::kStatistics:
        break;
    }
  }
  return true;
}

/// Reorders one query's keys by a fixed golden-ratio stride, so the hot
/// (low-rank) end of a Zipf draw spans cheap and expensive relational
/// groups alike instead of, say, only the smallest thresholds.
void Interleave(std::vector<Key>* keys) {
  const size_t n = keys->size();
  if (n < 3) return;
  size_t stride = static_cast<size_t>(std::lround(0.618 * n));
  while (std::gcd(stride, n) != 1) ++stride;
  std::vector<Key> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = (*keys)[(i * stride) % n];
  *keys = std::move(out);
}

struct PoolShape {
  std::vector<int64_t> q1_thresholds;
  std::vector<int64_t> q2_diseases;
  std::vector<double> q2_quantiles;
  std::vector<std::pair<int64_t, int64_t>> q3_age_gender;
  std::vector<int> q3_counts;
  std::vector<int64_t> q4_thresholds;
  std::vector<int> q4_ranks;
  std::vector<double> q5_fractions;
  std::vector<double> q5_significance;
};

std::vector<Key> BuildPool(const std::vector<DataFacts>& facts,
                           const PoolShape& s) {
  std::vector<Key> pool;
  const QueryParams base;
  auto add_query = [&](std::vector<Key> keys) {
    std::vector<Key> valid;
    for (Key& k : keys) {
      if (ValidEverywhere(facts, k)) valid.push_back(std::move(k));
    }
    Interleave(&valid);
    pool.insert(pool.end(), valid.begin(), valid.end());
  };
  std::vector<Key> keys;
  for (int64_t t : s.q1_thresholds) {
    Key k{QueryId::kRegression, base};
    k.params.function_threshold = t;
    keys.push_back(k);
  }
  add_query(std::move(keys));
  keys.clear();
  for (int64_t d : s.q2_diseases) {
    for (double q : s.q2_quantiles) {
      Key k{QueryId::kCovariance, base};
      k.params.disease_id = d;
      k.params.covariance_quantile = q;
      keys.push_back(k);
    }
  }
  add_query(std::move(keys));
  keys.clear();
  for (const auto& [age, gender] : s.q3_age_gender) {
    for (int c : s.q3_counts) {
      Key k{QueryId::kBiclustering, base};
      k.params.max_age = age;
      k.params.gender = gender;
      k.params.bicluster_count = c;
      keys.push_back(k);
    }
  }
  add_query(std::move(keys));
  keys.clear();
  for (int64_t t : s.q4_thresholds) {
    for (int r : s.q4_ranks) {
      Key k{QueryId::kSvd, base};
      k.params.function_threshold = t;
      k.params.svd_rank = r;
      keys.push_back(k);
    }
  }
  add_query(std::move(keys));
  keys.clear();
  for (double f : s.q5_fractions) {
    for (double sig : s.q5_significance) {
      Key k{QueryId::kStatistics, base};
      k.params.sample_fraction = f;
      k.params.significance = sig;
      keys.push_back(k);
    }
  }
  add_query(std::move(keys));
  return pool;
}

}  // namespace

std::vector<Key> ZipfPool(const std::vector<DataFacts>& facts) {
  PoolShape s;
  for (int i = 0; i < 64; ++i) s.q1_thresholds.push_back(120 + 4 * i);
  for (int d = 1; d <= 21; ++d) s.q2_diseases.push_back(d);
  for (int j = 0; j < 15; ++j) s.q2_quantiles.push_back(0.80 + 0.01 * j);
  for (int64_t age : {30, 35, 40, 45, 50}) {
    for (int64_t g : {0, 1}) s.q3_age_gender.push_back({age, g});
  }
  s.q3_counts = {1, 2, 3, 4};
  for (int i = 0; i < 8; ++i) s.q4_thresholds.push_back(140 + 20 * i);
  for (int r = 12; r <= 50; r += 2) s.q4_ranks.push_back(r);
  s.q5_fractions = {0.005, 0.01, 0.02, 0.05, 0.1, 0.2};
  for (int j = 1; j <= 20; ++j) s.q5_significance.push_back(0.0025 * j);
  return BuildPool(facts, s);
}

std::vector<Key> ChurnPool(const std::vector<DataFacts>& facts) {
  PoolShape s;
  for (int i = 0; i < 16; ++i) s.q1_thresholds.push_back(120 + 12 * i);
  for (int d = 1; d <= 10; ++d) s.q2_diseases.push_back(d);
  s.q2_quantiles = {0.80, 0.85, 0.90, 0.95, 0.99};
  s.q3_age_gender = {{30, 0}, {40, 1}, {40, 0}, {50, 1}};
  s.q3_counts = {2, 3};
  // Four Q4 keys of near-equal cost, so the rare Q4 misses do not split
  // q4_ms between cost modes.
  s.q4_thresholds = {240, 250};
  s.q4_ranks = {49, 50};
  s.q5_fractions = {0.005, 0.01, 0.02, 0.05, 0.1, 0.2};
  s.q5_significance = {0.001, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05};
  return BuildPool(facts, s);
}

std::vector<uint32_t> BuildSchedule(const std::vector<Key>& pool,
                                    const Mix& mix, double exponent,
                                    size_t length, uint64_t seed) {
  // Per-query Zipf CDFs over that query's keys, in pool order.
  std::vector<uint32_t> members[5];
  for (uint32_t i = 0; i < pool.size(); ++i) {
    members[QueryIndex(pool[i].query)].push_back(i);
  }
  std::vector<double> cdf[5];
  double mix_cdf[5];
  double mix_total = 0.0;
  for (int q = 0; q < 5; ++q) {
    if (!members[q].empty()) mix_total += mix.weight[q];
  }
  double acc_mix = 0.0;
  for (int q = 0; q < 5; ++q) {
    if (!members[q].empty()) acc_mix += mix.weight[q] / mix_total;
    mix_cdf[q] = acc_mix;
    double total = 0.0;
    for (size_t r = 0; r < members[q].size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    }
    double acc = 0.0;
    for (size_t r = 0; r < members[q].size(); ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), exponent) / total;
      cdf[q].push_back(acc);
    }
  }
  Rng rng(seed ^ 0x5EEDF00Dull);
  std::vector<uint32_t> schedule(length);
  for (size_t i = 0; i < length; ++i) {
    const double u = rng.Uniform();
    int q = 0;
    while (q < 4 && (u >= mix_cdf[q] || members[q].empty())) ++q;
    const double v = rng.Uniform();
    const size_t r = std::min<size_t>(
        members[q].size() - 1,
        static_cast<size_t>(std::lower_bound(cdf[q].begin(), cdf[q].end(), v) -
                            cdf[q].begin()));
    schedule[i] = members[q][r];
  }
  return schedule;
}

}  // namespace perfbench
