#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "core/driver.h"
#include "core/generator.h"
#include "engine/engines.h"
#include "keys.h"
#include "oracle.h"
#include "serving/serving_stack.h"

namespace perfbench {

using genbase::ExecContext;
using genbase::core::CellResult;
using genbase::core::DatasetSize;
using genbase::core::DriverOptions;
using genbase::core::GenBaseData;
using genbase::core::QueryId;

namespace {

// Generator seeds of the datasets. Fixed, so every seed of a workload runs
// on the same data and the answer checks are computed for it once per run;
// serve_churn alternates between the two.
constexpr uint64_t kDatasetSeedA = 2013;
constexpr uint64_t kDatasetSeedB = 2014;

// serve_zipf / serve_churn shape (see README "Inputs").
constexpr int kServeClients = 4;
constexpr int kServeShards = 2;
constexpr double kZipfExponent = 1.2;
constexpr double kChurnExponent = 1.0;
constexpr size_t kWarmupOps = 4000;
constexpr size_t kScheduleLength = 1 << 19;
/// serve_churn reloads before every measured op whose schedule position is
/// a multiple of this; the warm-up fills the cache without reloads.
constexpr uint64_t kReloadEvery = 1000;

const char* const kQueryMetric[5] = {"q1_ms", "q2_ms", "q3_ms", "q4_ms",
                                     "q5_ms"};

GenBaseData Generate(DatasetSize size, double scale, uint64_t seed) {
  genbase::core::GeneratorOptions gen;
  gen.seed = seed;
  auto data = genbase::core::GenerateDataset(size, scale, gen);
  if (!data.ok()) {
    std::fprintf(stderr, "perfbench: dataset generation failed: %s\n",
                 data.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(data).ValueOrDie();
}

/// One timed call into the program and what it returned.
struct OpRecord {
  int query = 0;           ///< 0..4
  double wall_s = 0.0;     ///< Own clock around the call.
  bool ok = false;
  bool engine = false;     ///< Executed on an engine (not a tier answer).
  bool hit = false;        ///< Plain cache hit.
  double wait_s = 0.0;     ///< admission_wait_s.
  double modeled_s = 0.0;  ///< CellResult::modeled_s.
};

/// The end-to-end metrics of an untraced run. Latency percentiles cover
/// every timed call; qN_ms is the median of engine-executed ops of query N.
std::vector<Metric> EndToEnd(double setup_s, double throughput_qps,
                             const std::vector<OpRecord>& ops) {
  std::vector<double> lat;
  lat.reserve(ops.size());
  for (const OpRecord& r : ops) lat.push_back(r.wall_s);
  std::vector<Metric> m = {
      {"setup_s", setup_s, "s"},
      {"throughput_qps", throughput_qps, "ops/s"},
      {"latency_p50_us", Quantile(&lat, 0.50) * 1e6, "us"},
      {"latency_p99_ms", Quantile(&lat, 0.99) * 1e3, "ms"}};
  for (int q = 0; q < 5; ++q) {
    std::vector<double> ms;
    for (const OpRecord& r : ops) {
      if (r.ok && r.engine && r.query == q) ms.push_back(r.wall_s * 1e3);
    }
    m.push_back({kQueryMetric[q], Median(ms), "ms"});
  }
  m.push_back({"peak_rss_mb", PeakRssMiB(), "MiB"});
  return m;
}

/// paper_cells' end-to-end metrics. Interference from other tenants of a
/// shared host only ever adds time, and one 30 s run holds about 25 rounds,
/// so a median over them follows the neighbours as much as the program. The
/// lower quartile of each query's op times follows the program, as does
/// `throughput_qps`, the upper quartile of the per-round rate (verified ops
/// per second of a round, reload included). With one op per query per
/// round, the latency percentiles are those of a round's five ops, each at
/// its query's lower quartile.
std::vector<Metric> PaperEndToEnd(double setup_s, double throughput_qps,
                                  const std::vector<OpRecord>& ops) {
  std::vector<double> per_query;
  for (int q = 0; q < 5; ++q) {
    std::vector<double> s;
    for (const OpRecord& r : ops) {
      if (r.ok && r.query == q) s.push_back(r.wall_s);
    }
    per_query.push_back(Quantile(&s, 0.25));
  }
  std::vector<double> lat = per_query;
  std::vector<Metric> m = {
      {"setup_s", setup_s, "s"},
      {"throughput_qps", throughput_qps, "ops/s"},
      {"latency_p50_us", Quantile(&lat, 0.50) * 1e6, "us"},
      {"latency_p99_ms", Quantile(&lat, 0.99) * 1e3, "ms"}};
  for (int q = 0; q < 5; ++q) {
    m.push_back({kQueryMetric[q], per_query[static_cast<size_t>(q)] * 1e3,
                 "ms"});
  }
  m.push_back({"peak_rss_mb", PeakRssMiB(), "MiB"});
  return m;
}

double MeanModeledMs(const std::vector<OpRecord>& ops) {
  double sum = 0.0;
  for (const OpRecord& r : ops) sum += r.modeled_s;
  return ops.empty() ? 0.0 : sum * 1e3 / static_cast<double>(ops.size());
}

std::string WrongAnswer(int64_t op, const Key& key, const std::string& check,
                        const char* dataset) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "op %lld query Q%d dataset %s",
                static_cast<long long>(op), QueryIndex(key.query) + 1,
                dataset);
  return std::string(buf) + " key " + DescribeKey(key) + " failed check " +
         check;
}

void WriteSpans(const RunOptions& options, const SpanLog& spans,
                Clock::time_point origin) {
  if (!spans.enabled()) return;
  if (!spans.Write(options.trace_path, origin)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 options.trace_path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans.size(),
                 options.trace_path.c_str());
  }
}

// --- paper_cells -------------------------------------------------------------

Outcome RunPaperCells(const RunOptions& options) {
  Outcome out;
  const DatasetSize size = DatasetSize::kMedium;
  const GenBaseData data = Generate(size, options.scale, kDatasetSeedA);

  std::vector<Key> keys;
  for (QueryId q : genbase::core::kAllQueries) keys.push_back({q, {}});
  const auto oracle_start = Clock::now();
  std::vector<Expected> expected;
  {
    const DatasetOracle oracle(data);
    expected = oracle.ExpectAll(keys);
  }
  const double oracle_s = Seconds(oracle_start, Clock::now());

  std::unique_ptr<genbase::core::Engine> engine =
      genbase::engine::CreateColumnStoreUdf();
  const auto load_status = engine->LoadDataset(data);
  if (!load_status.ok()) {
    std::fprintf(stderr, "perfbench: load failed: %s\n",
                 load_status.ToString().c_str());
    std::exit(2);
  }

  SpanLog spans(options.trace, 2);
  Rng order_rng(options.seed);
  ExecContext ctx;
  std::vector<OpRecord> ops;
  std::vector<double> round_rates;  ///< Verified ops per second of a round.
  int64_t op_index = 0;
  // One round: reload the engine's dataset (so nothing keyed by the dataset
  // epoch carries over), then Q1..Q5 in a seeded order, every answer
  // checked. Rounds are whole: the one running when time is up finishes.
  auto round = [&](bool measure) {
    const auto round_start = Clock::now();
    const int64_t round_span =
        spans.Add(0, "round", -1, op_index, round_start, round_start);
    const auto st = engine->LoadDataset(data);
    spans.Add(0, "load_dataset", round_span, op_index, round_start,
              Clock::now());
    int order[5] = {0, 1, 2, 3, 4};
    for (int i = 4; i > 0; --i) {
      std::swap(order[i], order[order_rng.Below(static_cast<uint64_t>(i + 1))]);
    }
    int round_ok = 0;
    for (int i = 0; i < 5 && out.wrong.empty(); ++i) {
      const Key& key = keys[static_cast<size_t>(order[i])];
      DriverOptions driver;
      driver.timeout_seconds = options.timeout_s;
      driver.params = key.params;
      const auto t0 = Clock::now();
      const CellResult cell = genbase::core::RunCellWithContext(
          engine.get(), key.query, size, driver, &ctx);
      const auto t1 = Clock::now();
      spans.Add(0, "run_cell", round_span, op_index, t0, t1);
      OpRecord rec;
      rec.query = order[i];
      rec.wall_s = Seconds(t0, t1);
      rec.ok = st.ok() && cell.status.ok() && !cell.infinite;
      rec.engine = true;
      rec.modeled_s = cell.modeled_s;
      if (rec.ok) {
        const std::string check =
            Check(key, expected[static_cast<size_t>(order[i])], cell.result);
        if (!check.empty()) {
          out.wrong = WrongAnswer(op_index, key, check, "A");
          rec.ok = false;
        }
      } else {
        std::fprintf(stderr, "perfbench: op %lld %s failed: %s\n",
                     static_cast<long long>(op_index),
                     DescribeKey(key).c_str(), cell.status.ToString().c_str());
      }
      if (measure) ops.push_back(rec);
      round_ok += rec.ok ? 1 : 0;
      ++op_index;
    }
    const auto round_end = Clock::now();
    spans.Finish(0, round_span, round_end);
    if (measure) {
      round_rates.push_back(round_ok / Seconds(round_start, round_end));
    }
  };

  // Warm-up: one unmeasured round, so the measured rounds start with code
  // and allocator warm. It is part of the set-up.
  round(false);
  const double setup_s =
      Seconds(options.process_start, Clock::now()) - oracle_s;
  std::fprintf(stderr, "perfbench: setup %.3f s, answer checks %.3f s\n",
               setup_s, oracle_s);

  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(options.seconds));
  while (Clock::now() < stop && out.wrong.empty()) round(true);

  out.attempted = static_cast<int64_t>(ops.size());
  int64_t ok = 0;
  for (const OpRecord& r : ops) ok += r.ok ? 1 : 0;
  out.failed = out.attempted - ok;
  out.throughput_qps = Quantile(&round_rates, 0.75);
  if (!options.trace) {
    out.end_to_end = PaperEndToEnd(setup_s, out.throughput_qps, ops);
    return out;
  }
  // No serving tier in this workload: its serving.* metrics read 0 except
  // the engine execution count and the modeled time per op.
  auto& pl = out.per_layer;
  pl.push_back({"serving.hit_ratio", 0.0, "ratio"});
  pl.push_back({"serving.engine_executions", static_cast<double>(ops.size()),
                "count"});
  pl.push_back({"serving.coalesced", 0.0, "count"});
  pl.push_back({"serving.evictions", 0.0, "count"});
  pl.push_back({"serving.hit_us_p50", 0.0, "us"});
  pl.push_back({"serving.wait_ms_sum", 0.0, "ms"});
  pl.push_back({"serving.reload_ms_p50", 0.0, "ms"});
  pl.push_back({"serving.modeled_ms_per_op", MeanModeledMs(ops), "ms"});
  engine.reset();
  ReplayLayers(data, size, options.timeout_s, 3, &spans, 1, &pl);
  WriteSpans(options, spans, start);
  return out;
}

// --- serve_zipf / serve_churn ------------------------------------------------

/// Reload bookkeeping for the staleness check. `state` is even while
/// dataset (state / 2) % 2 is current and odd while a reload is rolling
/// between the two, when either dataset may answer.
struct ReloadState {
  std::atomic<uint64_t> state{0};
  std::mutex mu;  ///< Serialises reloads (one transition at a time).
};

Outcome RunServing(const RunOptions& options, bool churn) {
  Outcome out;
  const DatasetSize size = DatasetSize::kSmall;
  std::vector<GenBaseData> datasets;
  datasets.push_back(Generate(size, options.scale, kDatasetSeedA));
  if (churn) datasets.push_back(Generate(size, options.scale, kDatasetSeedB));

  std::vector<DataFacts> facts;
  for (const GenBaseData& d : datasets) facts.push_back(ComputeFacts(d));
  const std::vector<Key> pool = churn ? ChurnPool(facts) : ZipfPool(facts);
  const std::vector<uint32_t> schedule =
      BuildSchedule(pool, churn ? kChurnMix : kZipfMix,
                    churn ? kChurnExponent : kZipfExponent, kScheduleLength,
                    options.seed);
  int per_query[5] = {0, 0, 0, 0, 0};
  for (const Key& k : pool) ++per_query[QueryIndex(k.query)];
  std::fprintf(stderr, "perfbench: key pool %zu (Q1..Q5: %d %d %d %d %d)\n",
               pool.size(), per_query[0], per_query[1], per_query[2],
               per_query[3], per_query[4]);

  const auto oracle_start = Clock::now();
  std::vector<std::vector<Expected>> expected;
  for (const GenBaseData& d : datasets) {
    const DatasetOracle oracle(d);
    expected.push_back(oracle.ExpectAll(pool));
  }
  const double oracle_s = Seconds(oracle_start, Clock::now());

  genbase::serving::ServingOptions serving;
  serving.shards = kServeShards;
  auto created = genbase::serving::ServingStack::Create(
      serving, [] { return genbase::engine::CreateColumnStoreUdf(); },
      datasets[0]);
  if (!created.ok()) {
    std::fprintf(stderr, "perfbench: serving stack: %s\n",
                 created.status().ToString().c_str());
    std::exit(2);
  }
  std::unique_ptr<genbase::serving::ServingStack> stack =
      std::move(created).ValueOrDie();

  SpanLog spans(options.trace, kServeClients + 1);
  ReloadState reload;
  std::atomic<uint64_t> next{0};
  std::atomic<bool> stop_all{false};
  std::mutex wrong_mu;
  std::string wrong;
  std::vector<std::vector<OpRecord>> records(kServeClients);
  std::vector<std::vector<double>> reload_ms(kServeClients);
  std::vector<int64_t> reload_failed(kServeClients, 0);

  auto record_wrong = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(wrong_mu);
    if (wrong.empty()) wrong = what;
    stop_all.store(true);
  };

  // Serves pool key `k` as op `pos` on client `id` and checks the answer.
  auto serve_one = [&](int id, uint64_t pos, uint32_t k, bool measure,
                       ExecContext* ctx) {
    const Key& key = pool[k];
    DriverOptions driver;
    driver.timeout_seconds = options.timeout_s;
    driver.params = key.params;
    const uint64_t s0 = reload.state.load();
    const auto t0 = Clock::now();
    genbase::serving::ServeResult served =
        stack->Serve(key.query, size, driver, ctx);
    const auto t1 = Clock::now();
    const uint64_t s1 = reload.state.load();
    spans.Add(id, "serve", -1, static_cast<int64_t>(pos), t0, t1);

    OpRecord rec;
    rec.query = QueryIndex(key.query);
    rec.wall_s = Seconds(t0, t1);
    rec.ok = !served.shed && served.cell.status.ok() && !served.cell.infinite;
    rec.engine = served.shard >= 0;
    rec.hit = served.cache_hit && !served.coalesced;
    rec.wait_s = served.admission_wait_s;
    rec.modeled_s = served.cell.modeled_s;
    if (rec.ok) {
      // Datasets current at some point of the call: one while no reload
      // overlapped it, both otherwise.
      const int current = static_cast<int>((s0 / 2) % 2);
      const std::string verdict = CheckServed(
          key, expected[static_cast<size_t>(current)][k],
          churn ? &expected[static_cast<size_t>(1 - current)][k] : nullptr,
          s0 != s1 || (s0 % 2) == 1, served.cell.result);
      if (!verdict.empty()) {
        record_wrong(WrongAnswer(static_cast<int64_t>(pos), key, verdict,
                                 current == 0 ? "A" : "B"));
        rec.ok = false;
      }
    } else {
      std::fprintf(stderr, "perfbench: op %llu %s failed: %s\n",
                   static_cast<unsigned long long>(pos),
                   DescribeKey(key).c_str(),
                   served.cell.status.ToString().c_str());
    }
    if (measure) records[id].push_back(rec);
  };

  // One closed-loop client: claims the next schedule position, serves it,
  // repeats until `stop` (measured phase) or position `limit` (warm-up).
  auto client = [&](int id, bool measure, Clock::time_point stop,
                    uint64_t limit) {
    ExecContext ctx;
    while (!stop_all.load(std::memory_order_relaxed)) {
      if (measure && Clock::now() >= stop) break;
      const uint64_t pos = next.fetch_add(1);
      if (!measure && pos >= limit) break;
      if (churn && measure && pos % kReloadEvery == 0) {
        std::lock_guard<std::mutex> lock(reload.mu);
        const uint64_t s = reload.state.fetch_add(1) + 1;  // odd: rolling
        const auto t0 = Clock::now();
        const auto st = stack->ReloadDataset(datasets[((s + 1) / 2) % 2]);
        const auto t1 = Clock::now();
        reload.state.fetch_add(1);
        spans.Add(id, "reload_dataset", -1, static_cast<int64_t>(pos), t0, t1);
        reload_ms[id].push_back(Seconds(t0, t1) * 1e3);
        reload_failed[id] += st.ok() ? 0 : 1;
        if (!st.ok()) {
          std::fprintf(stderr, "perfbench: reload at op %llu failed: %s\n",
                       static_cast<unsigned long long>(pos),
                       st.ToString().c_str());
        }
      }
      serve_one(id, pos, schedule[pos % schedule.size()], measure, &ctx);
    }
  };

  auto run_phase = [&](bool measure, Clock::time_point stop, uint64_t limit) {
    std::vector<std::thread> threads;
    for (int c = 0; c < kServeClients; ++c) {
      threads.emplace_back(client, c, measure, stop, limit);
    }
    for (auto& t : threads) t.join();
  };

  // Warm-up, part of the set-up. serve_zipf runs schedule positions
  // 0..kWarmupOps-1, which fills the cache. serve_churn's first measured op
  // reloads, so its warm-up only has to touch every code path: one client
  // serves each pool key once, the same work in every run.
  if (churn) {
    ExecContext ctx;
    for (uint32_t k = 0; k < pool.size(); ++k) serve_one(0, k, k, false, &ctx);
  } else {
    run_phase(false, Clock::now(), kWarmupOps);
  }
  next.store(kWarmupOps);
  const double setup_s =
      Seconds(options.process_start, Clock::now()) - oracle_s;
  std::fprintf(stderr, "perfbench: setup %.3f s, answer checks %.3f s\n",
               setup_s, oracle_s);
  const auto before = stack->counters();
  const auto start = Clock::now();
  run_phase(true,
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(options.seconds)),
            0);
  const auto end = Clock::now();
  const auto delta =
      genbase::serving::CountersDelta(stack->counters(), before);
  const double wall = Seconds(start, end);
  out.wrong = wrong;

  std::vector<OpRecord> ops;
  std::vector<double> reloads;
  int64_t failed_reloads = 0;
  for (int c = 0; c < kServeClients; ++c) {
    ops.insert(ops.end(), records[c].begin(), records[c].end());
    reloads.insert(reloads.end(), reload_ms[c].begin(), reload_ms[c].end());
    failed_reloads += reload_failed[c];
  }
  int64_t ok = 0;
  for (const OpRecord& r : ops) ok += r.ok ? 1 : 0;
  out.attempted = static_cast<int64_t>(ops.size() + reloads.size());
  out.failed = static_cast<int64_t>(ops.size()) - ok + failed_reloads;
  out.throughput_qps = wall > 0 ? static_cast<double>(ok) / wall : 0.0;

  if (!options.trace) {
    out.end_to_end = EndToEnd(setup_s, out.throughput_qps, ops);
    return out;
  }

  std::vector<double> hit_us;
  double wait_s = 0.0;
  int64_t executions = 0;
  for (const OpRecord& r : ops) {
    if (r.hit) hit_us.push_back(r.wall_s * 1e6);
    wait_s += r.wait_s;
    executions += r.engine ? 1 : 0;
  }
  auto& pl = out.per_layer;
  pl.push_back({"serving.hit_ratio", delta.cache.hit_ratio(), "ratio"});
  pl.push_back(
      {"serving.engine_executions", static_cast<double>(executions), "count"});
  pl.push_back({"serving.coalesced", static_cast<double>(delta.flight.coalesced),
                "count"});
  pl.push_back({"serving.evictions", static_cast<double>(delta.cache.evictions),
                "count"});
  pl.push_back({"serving.hit_us_p50", Median(hit_us), "us"});
  pl.push_back({"serving.wait_ms_sum", wait_s * 1e3, "ms"});
  pl.push_back({"serving.reload_ms_p50", Median(reloads), "ms"});
  pl.push_back({"serving.modeled_ms_per_op", MeanModeledMs(ops), "ms"});
  stack.reset();
  ReplayLayers(datasets[0], size, options.timeout_s, 5, &spans, kServeClients,
               &pl);
  WriteSpans(options, spans, start);
  return out;
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "paper_cells" || name == "serve_zipf" ||
         name == "serve_churn";
}

Outcome RunWorkload(const RunOptions& options) {
  if (options.workload == "paper_cells") return RunPaperCells(options);
  return RunServing(options, options.workload == "serve_churn");
}

}  // namespace perfbench
