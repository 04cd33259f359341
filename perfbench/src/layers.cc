// Traced-run layer replay: one engine op per query, then the same op's
// layers called one by one through their public entry points.
#include <cstdio>
#include <memory>

#include "bicluster/cheng_church.h"
#include "core/driver.h"
#include "engine/engine_util.h"
#include "engine/engines.h"
#include "linalg/covariance.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
#include "stats/quantile.h"
#include "stats/wilcoxon.h"
#include "workloads.h"

namespace perfbench {

using genbase::ExecContext;
using genbase::core::QueryId;

namespace {

/// Layer sums may exceed the directly timed op by at most this share
/// (timer and cache effects of calling the layers separately).
constexpr double kReplayBound = 0.10;

template <typename T>
T Must(genbase::Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "perfbench: replay %s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(r).ValueOrDie();
}

/// Times fn() on the span log as a child of `parent`; returns ms.
template <typename Fn>
double Timed(SpanLog* spans, int thread, const char* name, int64_t parent,
             Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  spans->Add(thread, name, parent, -1, t0, t1);
  return Seconds(t0, t1) * 1e3;
}

}  // namespace

void ReplayLayers(const genbase::core::GenBaseData& data,
                  genbase::core::DatasetSize size, double timeout_s, int reps,
                  SpanLog* spans, int thread, std::vector<Metric>* metrics) {
  namespace linalg = genbase::linalg;
  std::unique_ptr<genbase::core::Engine> engine =
      genbase::engine::CreateColumnStoreUdf();
  std::vector<double> load_ms;
  for (int r = 0; r < reps; ++r) {
    load_ms.push_back(Timed(spans, thread, "load_dataset", -1, [&] {
      const auto st = engine->LoadDataset(data);
      if (!st.ok()) std::exit(2);
    }));
  }
  metrics->push_back({"engine.load_ms", Median(load_ms), "ms"});

  genbase::engine::ColumnarTables tables;
  if (!genbase::engine::LoadColumnarTables(data, nullptr, &tables).ok()) {
    std::exit(2);
  }
  const genbase::core::QueryParams params;
  std::vector<Metric> prepare, transfer, unattributed;
  std::vector<double> qr_ms, cov_ms, quantile_ms, cc_ms, svd_ms, rank_ms,
      lanczos;
  for (QueryId q : genbase::core::kAllQueries) {
    const int qi = static_cast<int>(q);
    std::vector<double> op_ms, prep_ms, xfer_ms, rest_ms;
    for (int r = 0; r < reps; ++r) {
      const auto replay_start = Clock::now();
      const int64_t parent =
          spans->Add(thread, "replay", -1, qi, replay_start, replay_start);
      genbase::core::DriverOptions driver;
      driver.timeout_seconds = timeout_s;
      ExecContext op_ctx;
      const double op = Timed(spans, thread, "run_cell", parent, [&] {
        const auto cell = genbase::core::RunCellWithContext(
            engine.get(), q, size, driver, &op_ctx);
        if (!cell.status.ok()) std::exit(2);
      });

      ExecContext ctx;
      genbase::engine::QueryInputs in;
      const double prep = Timed(spans, thread, "prepare_inputs", parent, [&] {
        in = Must(genbase::engine::PrepareInputsColumnar(tables, q, params,
                                                         &ctx),
                  "prepare");
      });
      double xfer = 0.0;
      if (q != QueryId::kStatistics) {
        xfer = Timed(spans, thread, "udf_transfer", parent, [&] {
          in.x = Must(genbase::engine::UdfTransferMatrix(
                          linalg::MatrixView(in.x), &ctx, 512),
                      "transfer");
        });
      }
      double kernel = 0.0;
      switch (q) {
        case QueryId::kRegression: {
          linalg::Matrix design(in.x.rows(), in.x.cols() + 1);
          for (int64_t i = 0; i < in.x.rows(); ++i) {
            design(i, 0) = 1.0;
            std::copy(in.x.Row(i), in.x.Row(i) + in.x.cols(),
                      design.Row(i) + 1);
          }
          kernel = Timed(spans, thread, "linalg.lstsq_qr", parent, [&] {
            Must(linalg::LeastSquaresQr(std::move(design), in.y, &ctx), "qr");
          });
          qr_ms.push_back(kernel);
          break;
        }
        case QueryId::kCovariance: {
          linalg::Matrix cov;
          const double c = Timed(spans, thread, "linalg.covariance", parent, [&] {
            cov = Must(linalg::CovarianceMatrix(linalg::MatrixView(in.x),
                                                linalg::KernelQuality::kTuned,
                                                &ctx),
                       "covariance");
          });
          std::vector<double> upper;
          for (int64_t i = 0; i < cov.rows(); ++i) {
            for (int64_t j = i + 1; j < cov.cols(); ++j) {
              upper.push_back(cov(i, j));
            }
          }
          const double qt = Timed(spans, thread, "stats.quantile", parent, [&] {
            Must(genbase::stats::Quantile(upper, params.covariance_quantile),
                 "quantile");
          });
          cov_ms.push_back(c);
          quantile_ms.push_back(qt);
          kernel = c + qt;
          break;
        }
        case QueryId::kBiclustering: {
          std::vector<int64_t> rows(static_cast<size_t>(in.x.rows()));
          std::vector<int64_t> cols(static_cast<size_t>(in.x.cols()));
          for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int64_t>(i);
          for (size_t j = 0; j < cols.size(); ++j) cols[j] = static_cast<int64_t>(j);
          genbase::bicluster::ChengChurchOptions opt;
          opt.delta = params.bicluster_delta_fraction *
                      genbase::bicluster::MeanSquaredResidue(
                          linalg::MatrixView(in.x), rows, cols);
          opt.max_biclusters = params.bicluster_count;
          opt.min_rows = 4;
          opt.min_cols = 4;
          kernel = Timed(spans, thread, "bicluster.cheng_church", parent, [&] {
            Must(genbase::bicluster::ChengChurch(linalg::MatrixView(in.x), opt,
                                                 &ctx),
                 "cheng-church");
          });
          cc_ms.push_back(kernel);
          break;
        }
        case QueryId::kSvd: {
          linalg::SvdOptions opt;
          opt.rank = static_cast<int>(
              std::min<int64_t>(params.svd_rank, in.x.cols()));
          opt.quality = linalg::KernelQuality::kTuned;
          int iterations = 0;
          kernel = Timed(spans, thread, "linalg.truncated_svd", parent, [&] {
            iterations = Must(linalg::TruncatedSvd(linalg::MatrixView(in.x),
                                                   opt, &ctx),
                              "svd")
                             .lanczos_iterations;
          });
          svd_ms.push_back(kernel);
          lanczos.push_back(iterations);
          break;
        }
        case QueryId::kStatistics: {
          const int64_t n = static_cast<int64_t>(in.scores.size());
          std::vector<bool> mask(static_cast<size_t>(n), false);
          const auto loop_start = Clock::now();
          for (const auto& members : in.memberships) {
            if (members.empty() || static_cast<int64_t>(members.size()) == n) {
              continue;
            }
            std::fill(mask.begin(), mask.end(), false);
            for (int64_t g : members) mask[static_cast<size_t>(g)] = true;
            const auto t0 = Clock::now();
            Must(genbase::stats::WilcoxonRankSum(in.scores, mask), "rank-sum");
            kernel += Seconds(t0, Clock::now()) * 1e3;
          }
          spans->Add(thread, "stats.rank_sum_loop", parent, -1, loop_start,
                     Clock::now());
          rank_ms.push_back(kernel);
          break;
        }
      }
      spans->Finish(thread, parent, Clock::now());
      op_ms.push_back(op);
      prep_ms.push_back(prep);
      xfer_ms.push_back(xfer);
      rest_ms.push_back(op - (prep + xfer + kernel));
    }
    char name[64];
    std::snprintf(name, sizeof(name), "engine.prepare_inputs_ms.q%d", qi);
    prepare.push_back({name, Median(prep_ms), "ms"});
    if (q != QueryId::kStatistics) {
      std::snprintf(name, sizeof(name), "engine.transfer_ms.q%d", qi);
      transfer.push_back({name, Median(xfer_ms), "ms"});
    }
    std::snprintf(name, sizeof(name), "engine.unattributed_ms.q%d", qi);
    const double rest = Median(rest_ms);
    unattributed.push_back({name, rest, "ms"});
    const double op = Median(op_ms);
    std::fprintf(stderr,
                 "perfbench: replay q%d op %.3f ms, layers %.3f ms (%s bound "
                 "%.0f%%)\n",
                 qi, op, op - rest,
                 op - rest <= op * (1.0 + kReplayBound) ? "within" : "OVER",
                 kReplayBound * 100);
  }
  metrics->insert(metrics->end(), prepare.begin(), prepare.end());
  metrics->insert(metrics->end(), transfer.begin(), transfer.end());
  metrics->insert(metrics->end(), unattributed.begin(), unattributed.end());
  metrics->push_back({"linalg.lstsq_qr_ms", Median(qr_ms), "ms"});
  metrics->push_back({"linalg.covariance_ms", Median(cov_ms), "ms"});
  metrics->push_back({"linalg.truncated_svd_ms", Median(svd_ms), "ms"});
  metrics->push_back({"linalg.lanczos_iterations", Median(lanczos), "count"});
  metrics->push_back({"stats.quantile_ms", Median(quantile_ms), "ms"});
  metrics->push_back({"stats.rank_sum_ms", Median(rank_ms), "ms"});
  metrics->push_back({"bicluster.cheng_church_ms", Median(cc_ms), "ms"});
}

}  // namespace perfbench
