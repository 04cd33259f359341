#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <unordered_map>

#include "eigen.h"

namespace perfbench {

using genbase::core::GeneCols;
using genbase::core::GoCols;
using genbase::core::MicroarrayCols;
using genbase::core::PatientCols;
using genbase::core::QueryId;
using genbase::core::QueryResult;

namespace {

/// Positions of the sorted upper triangle kept on each side of the
/// requested quantile: wide enough for any rounding convention of "the
/// q-quantile", narrow enough to keep a key's expectation small.
constexpr int64_t kWindow = 8;

std::unordered_map<int64_t, int64_t> IndexOf(const std::vector<int64_t>& ids) {
  std::unordered_map<int64_t, int64_t> index;
  index.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    index.emplace(ids[i], static_cast<int64_t>(i));
  }
  return index;
}

std::vector<int64_t> SortedUnique(std::vector<int64_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// Gram matrix A^T A of a row-major m x n matrix (full, symmetric).
std::vector<double> Gram(const std::vector<double>& a, int64_t m, int64_t n) {
  std::vector<double> g(static_cast<size_t>(n * n), 0.0);
  for (int64_t i = 0; i < m; ++i) {
    const double* row = a.data() + i * n;
    for (int64_t p = 0; p < n; ++p) {
      const double v = row[p];
      double* grow = g.data() + p * n;
      for (int64_t q = p; q < n; ++q) grow[q] += v * row[q];
    }
  }
  for (int64_t p = 0; p < n; ++p) {
    for (int64_t q = 0; q < p; ++q) g[p * n + q] = g[q * n + p];
  }
  return g;
}

bool Near(double got, double want, double tol) {
  return std::fabs(got - want) <= tol;
}

std::string Fail(const char* check, const char* fmt, double got, double want) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, got, want);
  return std::string(check) + ": " + buf;
}

}  // namespace

DatasetOracle::DatasetOracle(const genbase::core::GenBaseData& data) {
  const auto& pt = data.patients;
  patient_ids_ = SortedUnique(pt.IntColumn(PatientCols::kPatientId));
  patients_ = static_cast<int64_t>(patient_ids_.size());
  const auto pindex = IndexOf(patient_ids_);
  age_.assign(patient_ids_.size(), 0);
  gender_.assign(patient_ids_.size(), 0);
  disease_.assign(patient_ids_.size(), 0);
  response_.assign(patient_ids_.size(), 0.0);
  for (int64_t r = 0; r < pt.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(
        pindex.at(pt.IntColumn(PatientCols::kPatientId)[r]));
    age_[i] = pt.IntColumn(PatientCols::kAge)[r];
    gender_[i] = pt.IntColumn(PatientCols::kGender)[r];
    disease_[i] = pt.IntColumn(PatientCols::kDiseaseId)[r];
    response_[i] = pt.DoubleColumn(PatientCols::kDrugResponse)[r];
  }

  const auto& gt = data.genes;
  gene_ids_ = SortedUnique(gt.IntColumn(GeneCols::kGeneId));
  genes_ = static_cast<int64_t>(gene_ids_.size());
  const auto gindex = IndexOf(gene_ids_);
  function_.assign(gene_ids_.size(), 0);
  length_.assign(gene_ids_.size(), 0);
  for (int64_t r = 0; r < gt.num_rows(); ++r) {
    const size_t g =
        static_cast<size_t>(gindex.at(gt.IntColumn(GeneCols::kGeneId)[r]));
    function_[g] = gt.IntColumn(GeneCols::kFunction)[r];
    length_[g] = gt.IntColumn(GeneCols::kLength)[r];
  }

  const auto& ma = data.microarray;
  expr_.assign(static_cast<size_t>(patients_ * genes_), 0.0);
  const auto& mp = ma.IntColumn(MicroarrayCols::kPatientId);
  const auto& mg = ma.IntColumn(MicroarrayCols::kGeneId);
  const auto& mx = ma.DoubleColumn(MicroarrayCols::kExpr);
  for (size_t r = 0; r < mp.size(); ++r) {
    const auto pit = pindex.find(mp[r]);
    const auto git = gindex.find(mg[r]);
    if (pit == pindex.end() || git == gindex.end()) continue;
    expr_[static_cast<size_t>(pit->second * genes_ + git->second)] = mx[r];
  }

  go_terms_ = data.dims.go_terms;
  term_genes_.assign(static_cast<size_t>(go_terms_), {});
  const auto& og = data.ontology.IntColumn(GoCols::kGeneId);
  const auto& ot = data.ontology.IntColumn(GoCols::kGoId);
  const auto& ob = data.ontology.IntColumn(GoCols::kBelongs);
  for (size_t r = 0; r < og.size(); ++r) {
    if (ob[r] == 0 || ot[r] < 0 || ot[r] >= go_terms_) continue;
    const auto git = gindex.find(og[r]);
    if (git == gindex.end()) continue;
    term_genes_[static_cast<size_t>(ot[r])].push_back(git->second);
  }
  for (auto& t : term_genes_) t = SortedUnique(std::move(t));
}

std::vector<double> DatasetOracle::Gather(
    const std::vector<int64_t>& rows, const std::vector<int64_t>& cols) const {
  std::vector<double> out(rows.size() * cols.size());
  double* dst = out.data();
  for (int64_t r : rows) {
    const double* src = expr_.data() + r * genes_;
    for (int64_t c : cols) *dst++ = src[c];
  }
  return out;
}

std::vector<int64_t> DatasetOracle::GenesBelow(int64_t threshold) const {
  std::vector<int64_t> cols;
  for (int64_t g = 0; g < genes_; ++g) {
    if (function_[static_cast<size_t>(g)] < threshold) cols.push_back(g);
  }
  return cols;
}

std::vector<int64_t> DatasetOracle::AllGenes() const {
  std::vector<int64_t> cols(static_cast<size_t>(genes_));
  std::iota(cols.begin(), cols.end(), 0);
  return cols;
}

std::vector<Expected> DatasetOracle::ExpectAll(
    const std::vector<Key>& keys) const {
  std::vector<Expected> out(keys.size());
  // Keys sharing a relational filter share the expensive part.
  std::map<std::pair<int, int64_t>, std::vector<size_t>> groups;
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto& p = keys[i].params;
    switch (keys[i].query) {
      case QueryId::kRegression:
        out[i] = ExpectRegression(keys[i]);
        break;
      case QueryId::kBiclustering:
        out[i] = ExpectBicluster(keys[i]);
        break;
      case QueryId::kCovariance:
        groups[{2, p.disease_id}].push_back(i);
        break;
      case QueryId::kSvd:
        groups[{4, p.function_threshold}].push_back(i);
        break;
      case QueryId::kStatistics:
        groups[{5, std::max<int64_t>(
                       2, static_cast<int64_t>(std::ceil(
                              static_cast<double>(patients_) *
                              p.sample_fraction)))}]
            .push_back(i);
        break;
    }
  }
  for (const auto& [sig, members] : groups) {
    std::vector<Key> group_keys;
    for (size_t i : members) group_keys.push_back(keys[i]);
    std::vector<Expected> e = sig.first == 2   ? ExpectCovariance(group_keys)
                              : sig.first == 4 ? ExpectSvd(group_keys)
                                               : ExpectStats(group_keys);
    for (size_t j = 0; j < members.size(); ++j) out[members[j]] = e[j];
  }
  return out;
}

Expected DatasetOracle::ExpectRegression(const Key& key) const {
  Expected e;
  e.query = key.query;
  std::vector<int64_t> rows(static_cast<size_t>(patients_));
  std::iota(rows.begin(), rows.end(), 0);
  const std::vector<int64_t> cols = GenesBelow(key.params.function_threshold);
  const int64_t m = patients_;
  const int64_t p = static_cast<int64_t>(cols.size());
  e.rows = m;
  e.cols = p;
  // Centre X and y so the intercept drops out of the normal equations:
  // the same least-squares solution, far better conditioned.
  std::vector<double> x = Gather(rows, cols);
  std::vector<double> mean(static_cast<size_t>(p), 0.0);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < p; ++j) mean[j] += x[i * p + j];
  }
  for (double& v : mean) v /= static_cast<double>(m);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < p; ++j) x[i * p + j] -= mean[j];
  }
  double ymean = 0.0;
  for (double v : response_) ymean += v;
  ymean /= static_cast<double>(m);
  std::vector<double> yc(response_);
  for (double& v : yc) v -= ymean;

  const std::vector<double> g = Gram(x, m, p);
  auto xt_times = [&](const std::vector<double>& v) {
    std::vector<double> out(static_cast<size_t>(p), 0.0);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < p; ++j) out[j] += x[i * p + j] * v[i];
    }
    return out;
  };
  auto residual = [&](const std::vector<double>& beta) {
    std::vector<double> r(yc);
    for (int64_t i = 0; i < m; ++i) {
      double fit = 0.0;
      for (int64_t j = 0; j < p; ++j) fit += x[i * p + j] * beta[j];
      r[i] -= fit;
    }
    return r;
  };
  std::vector<double> beta;
  if (!CholeskySolve(g, p, xt_times(yc), &beta)) {
    e.r_squared = -1.0;  // Rank-deficient design: no answer can pass.
    return e;
  }
  // One step of iterative refinement.
  std::vector<double> delta;
  if (CholeskySolve(g, p, xt_times(residual(beta)), &delta)) {
    for (int64_t j = 0; j < p; ++j) beta[j] += delta[j];
  }
  const std::vector<double> r = residual(beta);
  double rss = 0.0, tss = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    rss += r[i] * r[i];
    tss += yc[i] * yc[i];
  }
  e.r_squared = tss > 0.0 ? 1.0 - rss / tss : 0.0;
  double intercept = ymean;
  for (int64_t j = 0; j < p; ++j) intercept -= mean[j] * beta[j];
  std::vector<double> coef;
  coef.push_back(intercept);
  coef.insert(coef.end(), beta.begin(), beta.end());
  double l2 = 0.0;
  for (double c : coef) l2 += c * c;
  e.coef_l2 = std::sqrt(l2);
  e.coef_head.assign(coef.begin(),
                     coef.begin() + std::min<size_t>(8, coef.size()));
  return e;
}

std::vector<Expected> DatasetOracle::ExpectCovariance(
    const std::vector<Key>& keys) const {
  const int64_t disease = keys.front().params.disease_id;
  std::vector<int64_t> rows;
  for (int64_t i = 0; i < patients_; ++i) {
    if (disease_[static_cast<size_t>(i)] == disease) rows.push_back(i);
  }
  const int64_t m = static_cast<int64_t>(rows.size());
  const int64_t n = genes_;
  std::vector<double> x = Gather(rows, AllGenes());
  // Two-pass covariance: column means first, then centred products.
  std::vector<double> mean(static_cast<size_t>(n), 0.0);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) mean[j] += x[i * n + j];
  }
  for (double& v : mean) v /= static_cast<double>(m);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) x[i * n + j] -= mean[j];
  }
  std::vector<double> cov = Gram(x, m, n);
  const double inv = m > 1 ? 1.0 / static_cast<double>(m - 1) : 0.0;

  struct Pair {
    double cov;
    double meta;
  };
  std::vector<Pair> pairs;
  pairs.reserve(static_cast<size_t>(n * (n - 1) / 2));
  double abs_sum = 0.0, scale = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      const double c = cov[i * n + j] * inv;
      const double meta =
          static_cast<double>(function_[i] + function_[j]) +
          1e-3 * static_cast<double>(length_[i] + length_[j]);
      pairs.push_back({c, meta});
      abs_sum += std::fabs(c);
      scale = std::max(scale, std::fabs(c));
    }
  }
  cov.clear();
  cov.shrink_to_fit();
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& a, const Pair& b) { return a.cov < b.cov; });
  const int64_t num = static_cast<int64_t>(pairs.size());
  // Suffix sums: suffix[k] = sum over positions >= k.
  std::vector<double> cov_suffix(static_cast<size_t>(num + 1), 0.0);
  std::vector<double> meta_suffix(static_cast<size_t>(num + 1), 0.0);
  for (int64_t k = num - 1; k >= 0; --k) {
    cov_suffix[k] = cov_suffix[k + 1] + pairs[k].cov;
    meta_suffix[k] = meta_suffix[k + 1] + pairs[k].meta;
  }

  std::vector<Expected> out;
  for (const Key& key : keys) {
    Expected e;
    e.query = key.query;
    e.rows = m;
    e.cols = n;
    e.quantile = key.params.covariance_quantile;
    e.num_pairs = num;
    e.cov_abs_sum = abs_sum;
    e.cov_scale = scale;
    if (num > 0) {
      const int64_t centre = std::clamp<int64_t>(
          static_cast<int64_t>(e.quantile * static_cast<double>(num)), 0,
          num - 1);
      for (int64_t k = std::max<int64_t>(0, centre - kWindow);
           k <= std::min<int64_t>(num - 1, centre + kWindow); ++k) {
        const double v = pairs[k].cov;
        // First position strictly above v.
        const int64_t up = static_cast<int64_t>(
            std::upper_bound(pairs.begin(), pairs.end(), v,
                             [](double t, const Pair& p) { return t < p.cov; }) -
            pairs.begin());
        e.window.push_back(v);
        e.above_count.push_back(num - up);
        e.above_cov_sum.push_back(cov_suffix[up]);
        e.above_meta_sum.push_back(meta_suffix[up]);
      }
    }
    out.push_back(std::move(e));
  }
  return out;
}

Expected DatasetOracle::ExpectBicluster(const Key& key) const {
  Expected e;
  e.query = key.query;
  std::vector<int64_t> rows;
  for (int64_t i = 0; i < patients_; ++i) {
    if (gender_[i] == key.params.gender && age_[i] < key.params.max_age) {
      rows.push_back(i);
    }
  }
  const int64_t m = static_cast<int64_t>(rows.size());
  const int64_t n = genes_;
  e.rows = m;
  e.cols = n;
  e.bicluster_count = key.params.bicluster_count;
  if (m == 0) return e;
  const std::vector<double> x = Gather(rows, AllGenes());
  std::vector<double> row_mean(static_cast<size_t>(m), 0.0);
  std::vector<double> col_mean(static_cast<size_t>(n), 0.0);
  double all = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      row_mean[i] += x[i * n + j];
      col_mean[j] += x[i * n + j];
    }
  }
  for (int64_t i = 0; i < m; ++i) {
    all += row_mean[i];
    row_mean[i] /= static_cast<double>(n);
  }
  for (double& v : col_mean) v /= static_cast<double>(m);
  all /= static_cast<double>(m * n);
  double h = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const double r = x[i * n + j] - row_mean[i] - col_mean[j] + all;
      h += r * r;
    }
  }
  h /= static_cast<double>(m * n);
  e.delta = key.params.bicluster_delta_fraction * h;
  return e;
}

std::vector<Expected> DatasetOracle::ExpectSvd(
    const std::vector<Key>& keys) const {
  const std::vector<int64_t> cols =
      GenesBelow(keys.front().params.function_threshold);
  std::vector<int64_t> rows(static_cast<size_t>(patients_));
  std::iota(rows.begin(), rows.end(), 0);
  const int64_t n = static_cast<int64_t>(cols.size());
  std::vector<double> eig;
  if (n > 0 && !SymmetricEigenvalues(Gram(Gather(rows, cols), patients_, n),
                                     n, &eig)) {
    eig.clear();
  }
  std::vector<Expected> out;
  for (const Key& key : keys) {
    Expected e;
    e.query = key.query;
    e.rows = patients_;
    e.cols = n;
    const int64_t rank = std::min<int64_t>(key.params.svd_rank, n);
    for (int64_t i = 0; i < rank && i < static_cast<int64_t>(eig.size());
         ++i) {
      e.singular_values.push_back(std::sqrt(std::max(0.0, eig[i])));
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<Expected> DatasetOracle::ExpectStats(
    const std::vector<Key>& keys) const {
  const int64_t k = std::max<int64_t>(
      2, static_cast<int64_t>(std::ceil(static_cast<double>(patients_) *
                                        keys.front().params.sample_fraction)));
  // Mean expression per gene over patients with id < k, summed in patient
  // order and scaled by 1/count.
  std::vector<double> scores(static_cast<size_t>(genes_), 0.0);
  int64_t count = 0;
  for (int64_t i = 0; i < patients_; ++i) {
    if (patient_ids_[i] >= k) continue;
    ++count;
    for (int64_t g = 0; g < genes_; ++g) scores[g] += expr_[i * genes_ + g];
  }
  const double inv = count > 0 ? 1.0 / static_cast<double>(count) : 0.0;
  for (double& s : scores) s *= inv;

  // Mid-ranks (1-based) and tie-group sizes.
  const int64_t n = genes_;
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return scores[a] < scores[b] || (scores[a] == scores[b] && a < b);
  });
  std::vector<double> rank(static_cast<size_t>(n), 0.0);
  double tie_term = 0.0;
  for (int64_t i = 0; i < n;) {
    int64_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double mid = 0.5 * static_cast<double>(i + j + 2);
    for (int64_t t = i; t <= j; ++t) rank[order[t]] = mid;
    const double size = static_cast<double>(j - i + 1);
    tie_term += size * size * size - size;
    i = j + 1;
  }

  std::vector<double> pvalues;
  double z_abs_sum = 0.0;
  const double nn = static_cast<double>(n);
  for (const auto& members : term_genes_) {
    const int64_t n1 = static_cast<int64_t>(members.size());
    if (n1 == 0 || n1 == n) continue;
    const double d1 = static_cast<double>(n1);
    const double d2 = nn - d1;
    double w = 0.0;
    for (int64_t g : members) w += rank[g];
    const double u = w - d1 * (d1 + 1.0) / 2.0;
    const double var = d1 * d2 / 12.0 * ((nn + 1.0) - tie_term / (nn * (nn - 1.0)));
    double z = 0.0;
    if (var > 0.0) {
      double diff = u - d1 * d2 / 2.0;
      diff = diff > 0.5 ? diff - 0.5 : diff < -0.5 ? diff + 0.5 : 0.0;
      z = diff / std::sqrt(var);
    }
    pvalues.push_back(var > 0.0 ? std::erfc(std::fabs(z) / std::sqrt(2.0))
                                : 1.0);
    z_abs_sum += std::fabs(z);
  }

  std::vector<Expected> out;
  for (const Key& key : keys) {
    Expected e;
    e.query = key.query;
    e.rows = count;
    e.cols = n;
    e.terms_tested = static_cast<int64_t>(pvalues.size());
    e.z_abs_sum = z_abs_sum;
    const double s = key.params.significance;
    for (double p : pvalues) {
      e.significant_lo += p < s * (1.0 - 1e-9) ? 1 : 0;
      e.significant_hi += p < s * (1.0 + 1e-9) ? 1 : 0;
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::string Check(const Key& key, const Expected& e, const QueryResult& r) {
  if (r.query != key.query) return "query: answer is for another query";
  switch (key.query) {
    case QueryId::kRegression: {
      const auto& s = r.regression;
      if (s.rows != e.rows) return Fail("q1.rows", "got %.0f want %.0f", s.rows, e.rows);
      if (s.predictors != e.cols) {
        return Fail("q1.predictors", "got %.0f want %.0f", s.predictors, e.cols);
      }
      if (!(s.r_squared >= -1e-12 && s.r_squared <= 1.0 + 1e-12)) {
        return Fail("q1.r_squared_range", "got %.6g (want in [0,1]; own %.6g)",
                    s.r_squared, e.r_squared);
      }
      if (!Near(s.r_squared, e.r_squared, 1e-8)) {
        return Fail("q1.r_squared", "got %.12g want %.12g", s.r_squared,
                    e.r_squared);
      }
      if (!Near(s.coef_l2, e.coef_l2, 1e-7 * e.coef_l2 + 1e-12)) {
        return Fail("q1.coef_l2", "got %.12g want %.12g", s.coef_l2, e.coef_l2);
      }
      if (s.coef_head.size() != e.coef_head.size()) {
        return Fail("q1.coef_head_size", "got %.0f want %.0f",
                    static_cast<double>(s.coef_head.size()),
                    static_cast<double>(e.coef_head.size()));
      }
      for (size_t i = 0; i < e.coef_head.size(); ++i) {
        if (!Near(s.coef_head[i], e.coef_head[i],
                  1e-7 * (e.coef_l2 + std::fabs(e.coef_head[i])))) {
          return Fail("q1.coef_head", "got %.12g want %.12g", s.coef_head[i],
                      e.coef_head[i]);
        }
      }
      return "";
    }
    case QueryId::kCovariance: {
      const auto& s = r.covariance;
      if (s.samples != e.rows) {
        return Fail("q2.samples", "got %.0f want %.0f", s.samples, e.rows);
      }
      if (s.genes != e.cols) return Fail("q2.genes", "got %.0f want %.0f", s.genes, e.cols);
      if (e.window.empty()) return "q2.pairs: no pairs to threshold";
      const double tol = 1e-9 * e.cov_scale;
      const double t = s.threshold;
      if (!(t >= e.window.front() - tol && t <= e.window.back() + tol)) {
        return Fail("q2.threshold",
                    "%.12g is not among the own covariances near the "
                    "quantile (nearest %.12g)",
                    t, e.window[e.window.size() / 2]);
      }
      // Own count of pairs above the reported threshold. An own value
      // within rounding of it is the threshold pair itself, which is not
      // above it; more than one such value makes the count a range.
      size_t first_above = 0;
      int64_t band = 0;
      while (first_above < e.window.size() &&
             e.window[first_above] <= t + tol) {
        band += std::fabs(e.window[first_above] - t) <= tol ? 1 : 0;
        ++first_above;
      }
      // The range check above guarantees first_above >= 1.
      const int64_t lo = e.above_count[first_above - 1];
      const double cov_sum = e.above_cov_sum[first_above - 1];
      const double meta_sum = e.above_meta_sum[first_above - 1];
      const int64_t hi = lo + std::max<int64_t>(0, band - 1);
      if (s.pairs_above < lo || s.pairs_above > hi) {
        return Fail("q2.pairs_above", "got %.0f want own count %.0f",
                    s.pairs_above, lo);
      }
      const double expect_pairs =
          (1.0 - e.quantile) * static_cast<double>(e.num_pairs);
      if (std::fabs(static_cast<double>(s.pairs_above) - expect_pairs) > 2.0) {
        return Fail("q2.pairs_vs_quantile", "got %.0f want ~%.1f",
                    s.pairs_above, expect_pairs);
      }
      if (s.pairs_above == lo) {
        if (!Near(s.cov_checksum, cov_sum, 1e-10 * e.cov_abs_sum + 1e-12)) {
          return Fail("q2.cov_checksum", "got %.12g want %.12g", s.cov_checksum,
                      cov_sum);
        }
        if (!Near(s.meta_checksum, meta_sum, 1e-9 * std::fabs(meta_sum) + 1e-6)) {
          return Fail("q2.meta_checksum", "got %.12g want %.12g",
                      s.meta_checksum, meta_sum);
        }
      }
      return "";
    }
    case QueryId::kBiclustering: {
      const auto& s = r.bicluster;
      if (s.matrix_rows != e.rows) {
        return Fail("q3.matrix_rows", "got %.0f want %.0f", s.matrix_rows, e.rows);
      }
      if (s.matrix_cols != e.cols) {
        return Fail("q3.matrix_cols", "got %.0f want %.0f", s.matrix_cols, e.cols);
      }
      if (!Near(s.delta, e.delta, 1e-9 * e.delta)) {
        return Fail("q3.delta", "got %.12g want %.12g", s.delta, e.delta);
      }
      const double found = static_cast<double>(s.biclusters.size());
      if (found < 1 || found > e.bicluster_count) {
        return Fail("q3.count", "got %.0f want 1..%.0f", found, e.bicluster_count);
      }
      for (const auto& b : s.biclusters) {
        if (b.rows < 4 || b.rows > e.rows) {
          return Fail("q3.bicluster_rows", "got %.0f want 4..%.0f", b.rows, e.rows);
        }
        if (b.cols < 4 || b.cols > e.cols) {
          return Fail("q3.bicluster_cols", "got %.0f want 4..%.0f", b.cols, e.cols);
        }
        if (!(b.msr >= 0.0 && b.msr <= e.delta * (1.0 + 1e-9))) {
          return Fail("q3.bicluster_msr", "MSR %.12g above delta %.12g", b.msr,
                      e.delta);
        }
      }
      return "";
    }
    case QueryId::kSvd: {
      const auto& s = r.svd;
      if (s.rows != e.rows) return Fail("q4.rows", "got %.0f want %.0f", s.rows, e.rows);
      if (s.cols != e.cols) return Fail("q4.cols", "got %.0f want %.0f", s.cols, e.cols);
      const double want_rank = static_cast<double>(e.singular_values.size());
      if (s.rank != want_rank) return Fail("q4.rank", "got %.0f want %.0f", s.rank, want_rank);
      if (s.singular_values.size() != e.singular_values.size()) {
        return Fail("q4.values", "got %.0f values want %.0f",
                    static_cast<double>(s.singular_values.size()), want_rank);
      }
      const double top = e.singular_values.empty() ? 0.0 : e.singular_values[0];
      for (size_t i = 0; i < e.singular_values.size(); ++i) {
        if (i > 0 && s.singular_values[i] > s.singular_values[i - 1]) {
          return Fail("q4.order", "value %.12g above its predecessor %.12g",
                      s.singular_values[i], s.singular_values[i - 1]);
        }
        if (!Near(s.singular_values[i], e.singular_values[i],
                  1e-6 * e.singular_values[i] + 1e-9 * top)) {
          return Fail("q4.singular_value", "got %.12g want %.12g",
                      s.singular_values[i], e.singular_values[i]);
        }
      }
      return "";
    }
    case QueryId::kStatistics: {
      const auto& s = r.stats;
      if (s.samples != e.rows) return Fail("q5.samples", "got %.0f want %.0f", s.samples, e.rows);
      if (s.genes_ranked != e.cols) {
        return Fail("q5.genes_ranked", "got %.0f want %.0f", s.genes_ranked, e.cols);
      }
      if (s.terms_tested != e.terms_tested) {
        return Fail("q5.terms_tested", "got %.0f want %.0f", s.terms_tested,
                    e.terms_tested);
      }
      if (s.significant_terms < e.significant_lo ||
          s.significant_terms > e.significant_hi) {
        return Fail("q5.significant_terms", "got %.0f want %.0f",
                    s.significant_terms, e.significant_lo);
      }
      if (!Near(s.z_abs_sum, e.z_abs_sum, 1e-9 * e.z_abs_sum + 1e-9)) {
        return Fail("q5.z_abs_sum", "got %.12g want %.12g", s.z_abs_sum,
                    e.z_abs_sum);
      }
      return "";
    }
  }
  return "query: unknown";
}

std::string CheckServed(const Key& key, const Expected& current,
                        const Expected* other, bool overlapped,
                        const QueryResult& result) {
  const std::string verdict = Check(key, current, result);
  if (verdict.empty() || other == nullptr ||
      !Check(key, *other, result).empty()) {
    return verdict;
  }
  if (overlapped) return "";
  return "stale: answer is from the dataset replaced before the op started "
         "(" + verdict + ")";
}

}  // namespace perfbench
