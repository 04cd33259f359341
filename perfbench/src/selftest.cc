// Self-test of the benchmark's answer checks: real answers from the
// program pass, and each perturbed or stale answer is rejected.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/generator.h"
#include "engine/engines.h"
#include "keys.h"
#include "oracle.h"

namespace {

using genbase::core::DatasetSize;
using genbase::core::GenBaseData;
using genbase::core::QueryId;
using genbase::core::QueryResult;
using perfbench::Check;
using perfbench::CheckServed;
using perfbench::Expected;
using perfbench::Key;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

GenBaseData Generate(uint64_t seed) {
  genbase::core::GeneratorOptions gen;
  gen.seed = seed;
  auto data = genbase::core::GenerateDataset(DatasetSize::kSmall, 0.08, gen);
  if (!data.ok()) {
    std::fprintf(stderr, "generation failed\n");
    std::exit(2);
  }
  return std::move(data).ValueOrDie();
}

std::vector<QueryResult> Answers(const GenBaseData& data,
                                 const std::vector<Key>& keys) {
  auto engine = genbase::engine::CreateColumnStoreUdf();
  if (!engine->LoadDataset(data).ok()) std::exit(2);
  std::vector<QueryResult> out;
  for (const Key& key : keys) {
    genbase::core::DriverOptions driver;
    driver.timeout_seconds = 60;
    driver.params = key.params;
    const auto cell =
        genbase::core::RunCell(engine.get(), key.query, DatasetSize::kSmall,
                               driver);
    if (!cell.status.ok()) {
      std::fprintf(stderr, "%s failed: %s\n",
                   perfbench::DescribeKey(key).c_str(),
                   cell.status.ToString().c_str());
      std::exit(2);
    }
    out.push_back(cell.result);
  }
  return out;
}

/// The check rejects `result` after `perturb`, naming `check`.
void Rejects(const Key& key, const Expected& e, QueryResult result,
             const std::function<void(QueryResult*)>& perturb,
             const std::string& check, const std::string& what) {
  perturb(&result);
  const std::string verdict = Check(key, e, result);
  Expect(verdict.rfind(check, 0) == 0,
         what + " -> " + (verdict.empty() ? "accepted" : verdict));
}

}  // namespace

int main() {
  const GenBaseData a = Generate(2013);
  const GenBaseData b = Generate(2014);
  std::vector<Key> keys;
  for (QueryId q : genbase::core::kAllQueries) keys.push_back({q, {}});
  // Non-default parameters of every query, as the serving pools use them.
  Key q2{QueryId::kCovariance, {}};
  q2.params.disease_id = 3;
  q2.params.covariance_quantile = 0.83;
  Key q4{QueryId::kSvd, {}};
  q4.params.function_threshold = 300;
  q4.params.svd_rank = 24;
  Key q5{QueryId::kStatistics, {}};
  q5.params.sample_fraction = 0.05;
  q5.params.significance = 0.03;
  keys.insert(keys.end(), {q2, q4, q5});

  const auto expect_a = perfbench::DatasetOracle(a).ExpectAll(keys);
  const auto expect_b = perfbench::DatasetOracle(b).ExpectAll(keys);
  const auto answers_a = Answers(a, keys);
  const auto answers_b = Answers(b, keys);

  for (size_t i = 0; i < keys.size(); ++i) {
    const std::string name = perfbench::DescribeKey(keys[i]);
    const std::string va = Check(keys[i], expect_a[i], answers_a[i]);
    Expect(va.empty(), "program answer passes on A: " + name + " " + va);
    const std::string vb = Check(keys[i], expect_b[i], answers_b[i]);
    Expect(vb.empty(), "program answer passes on B: " + name + " " + vb);
    Expect(!Check(keys[i], expect_b[i], answers_a[i]).empty(),
           "answer from the other dataset rejected: " + name);
    // serve_churn: stale unless a reload overlapped the op.
    const std::string stale =
        CheckServed(keys[i], expect_b[i], &expect_a[i], false, answers_a[i]);
    Expect(stale.rfind("stale", 0) == 0,
           "stale answer rejected: " + name + " -> " + stale);
    Expect(CheckServed(keys[i], expect_b[i], &expect_a[i], true, answers_a[i])
               .empty(),
           "answer from either dataset accepted across a reload: " + name);
  }

  // Perturbations named by the checks' contract.
  Rejects(keys[3], expect_a[3], answers_a[3],
          [](QueryResult* r) { r->svd.singular_values[7] *= 1.0 + 1e-4; },
          "q4.singular_value", "Q4 singular value off by 1e-4 relative");
  Rejects(keys[3], expect_a[3], answers_a[3],
          [](QueryResult* r) { r->svd.singular_values.back() *= 1.0 - 1e-4; },
          "q4.singular_value", "Q4 last singular value off by 1e-4 relative");
  Rejects(keys[1], expect_a[1], answers_a[1],
          [](QueryResult* r) { r->covariance.pairs_above += 1; },
          "q2.pairs_above", "Q2 pairs_above + 1");
  Rejects(keys[5], expect_a[5], answers_a[5],
          [](QueryResult* r) { r->covariance.pairs_above -= 1; },
          "q2.pairs_above", "Q2 pairs_above - 1 (non-default key)");
  Rejects(keys[2], expect_a[2], answers_a[2],
          [&](QueryResult* r) {
            r->bicluster.biclusters[0].msr = expect_a[2].delta * 1.001;
          },
          "q3.bicluster_msr", "Q3 bicluster MSR above delta");
  Rejects(keys[4], expect_a[4], answers_a[4],
          [](QueryResult* r) { r->stats.significant_terms += 1; },
          "q5.significant_terms", "Q5 significant_terms + 1");
  Rejects(keys[7], expect_a[7], answers_a[7],
          [](QueryResult* r) { r->stats.significant_terms += 1; },
          "q5.significant_terms", "Q5 significant_terms + 1 (non-default key)");
  Rejects(keys[0], expect_a[0], answers_a[0],
          [](QueryResult* r) { r->regression.r_squared += 1e-6; },
          "q1.r_squared", "Q1 r^2 + 1e-6");
  Rejects(keys[0], expect_a[0], answers_a[0],
          [](QueryResult* r) {
            r->regression.coef_head[3] += 1e-5 * r->regression.coef_l2;
          },
          "q1.coef_head", "Q1 coefficient off by 1e-5 of ||coef||");

  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
