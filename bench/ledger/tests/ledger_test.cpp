// Unit tests of the ledger's own arithmetic and of the engine log alignment
// it relies on. No assertion depends on wall-clock time.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "compare.hpp"
#include "data/synthetic.hpp"
#include "loadgen.hpp"
#include "runtime/driver.hpp"
#include "stats.hpp"
#include "tgnn/config.hpp"
#include "tgnn/inference.hpp"

namespace {

using tgnn::runtime::OutcomeRecord;
using tgnn::runtime::RequestOutcome;

TEST(LedgerStats, PercentileInterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0, 5.0};
  EXPECT_DOUBLE_EQ(ledger::percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ledger::percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(ledger::percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(ledger::percentile(v, 0.625), 3.5);
  EXPECT_DOUBLE_EQ(ledger::percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(ledger::median({2.0, 8.0}), 5.0);
}

TEST(LedgerStats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  const ledger::Quartiles q = ledger::quartiles(v);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
  const ledger::Quartiles q3 = ledger::quartiles({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(q3.q1, 1.0);
  EXPECT_DOUBLE_EQ(q3.median, 2.0);
  EXPECT_DOUBLE_EQ(q3.q3, 3.0);
  const ledger::Quartiles one = ledger::quartiles({7.0});
  EXPECT_DOUBLE_EQ(one.q1, 7.0);
  EXPECT_DOUBLE_EQ(one.q3, 7.0);
}

TEST(LedgerStats, HighestPercentileKeepsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(ledger::highest_supported_percentile(10000), 0.999);
  EXPECT_DOUBLE_EQ(ledger::highest_supported_percentile(9999), 0.99);
  EXPECT_DOUBLE_EQ(ledger::highest_supported_percentile(1000), 0.99);
  EXPECT_DOUBLE_EQ(ledger::highest_supported_percentile(999), 0.95);
  EXPECT_DOUBLE_EQ(ledger::highest_supported_percentile(200), 0.95);
  EXPECT_DOUBLE_EQ(ledger::highest_supported_percentile(100), 0.9);
  EXPECT_DOUBLE_EQ(ledger::highest_supported_percentile(20), 0.5);
  EXPECT_DOUBLE_EQ(ledger::highest_supported_percentile(19), 0.0);
}

TEST(LedgerLoadgen, SubmitterStallAddsToEveryLaterRequest) {
  // Four requests due 1 ms apart. The second submit() stalls until t = 6
  // ms, so the third and fourth go out late too; each is charged from its
  // own due time.
  const std::vector<OutcomeRecord> outcomes = {{100, RequestOutcome::kServed},
                                               {101, RequestOutcome::kServed},
                                               {102, RequestOutcome::kServed},
                                               {103, RequestOutcome::kServed}};
  const std::vector<double> engine = {1e-3, 1e-3, 1e-3, 1e-3};
  const std::vector<double> due = {0.0, 1e-3, 2e-3, 3e-3};
  const std::vector<double> submitted = {0.0, 6e-3, 6e-3, 6e-3};
  const auto lat =
      ledger::due_time_latencies(outcomes, engine, 100, due, submitted);
  ASSERT_EQ(lat.size(), 4u);
  EXPECT_NEAR(lat[0], 1e-3, 1e-12);
  EXPECT_NEAR(lat[1], 6e-3, 1e-12);
  EXPECT_NEAR(lat[2], 5e-3, 1e-12);
  EXPECT_NEAR(lat[3], 4e-3, 1e-12);
}

TEST(LedgerLoadgen, ShedRequestsTakeNoLatencySample) {
  const std::vector<OutcomeRecord> outcomes = {{10, RequestOutcome::kServed},
                                               {11, RequestOutcome::kShed},
                                               {12, RequestOutcome::kServed}};
  const std::vector<double> due = {0.0, 1.0, 2.0};
  const std::vector<double> submitted = {0.5, 1.0, 2.25};
  const auto lat =
      ledger::due_time_latencies(outcomes, {1.0, 2.0}, 10, due, submitted);
  ASSERT_EQ(lat.size(), 2u);
  EXPECT_DOUBLE_EQ(lat[0], 1.5);
  EXPECT_DOUBLE_EQ(lat[1], 2.25);
  EXPECT_THROW(
      (void)ledger::due_time_latencies(outcomes, {1.0}, 10, due, submitted),
      std::logic_error);
  EXPECT_THROW((void)ledger::due_time_latencies(outcomes, {1.0, 2.0, 3.0}, 10,
                                                due, submitted),
               std::logic_error);
}

TEST(LedgerLoadgen, UnresolvedCountsMissingDuplicateAndStrayRecords) {
  std::vector<OutcomeRecord> log = {{5, RequestOutcome::kServed},
                                    {6, RequestOutcome::kShed},
                                    {7, RequestOutcome::kExpired}};
  EXPECT_EQ(ledger::unresolved_count(log, 5, 8), 0u);
  EXPECT_EQ(ledger::unresolved_count(log, 5, 9), 1u);  // 8 missing
  log.push_back({6, RequestOutcome::kServed});
  EXPECT_EQ(ledger::unresolved_count(log, 5, 8), 1u);  // 6 twice
  log.push_back({42, RequestOutcome::kServed});
  EXPECT_EQ(ledger::unresolved_count(log, 5, 8), 2u);  // 42 outside
}

ledger::MetricSpec spec(bool lower, double bound) {
  return {"m", lower, bound};
}

TEST(LedgerCompare, VerdictsAgainstARelativeBound) {
  const std::vector<double> base = {10.0, 10.0, 10.0};
  EXPECT_EQ(ledger::compare_metric(spec(true, 0.1), base, {12.0}).verdict,
            ledger::Verdict::kWorse);
  EXPECT_EQ(ledger::compare_metric(spec(true, 0.1), base, {10.5}).verdict,
            ledger::Verdict::kWithinBound);
  EXPECT_EQ(ledger::compare_metric(spec(true, 0.1), base, {8.0}).verdict,
            ledger::Verdict::kBetter);
  // Higher is better: the same numbers flip.
  EXPECT_EQ(ledger::compare_metric(spec(false, 0.1), base, {12.0}).verdict,
            ledger::Verdict::kBetter);
  EXPECT_EQ(ledger::compare_metric(spec(false, 0.1), base, {8.0}).verdict,
            ledger::Verdict::kWorse);
}

TEST(LedgerCompare, ShareMetricsUseAnAbsoluteBound) {
  // 0.50 -> 0.47 is 6% of the median but 0.03 absolute: a 0.05 share bound
  // holds it within bound, where the same bound taken relative would not.
  const ledger::MetricSpec share{"slo_ok_share", false, 0.05, true};
  const std::vector<double> base = {0.5, 0.5, 0.5};
  EXPECT_EQ(ledger::compare_metric(share, base, {0.47}).verdict,
            ledger::Verdict::kWithinBound);
  EXPECT_EQ(ledger::compare_metric(spec(false, 0.05), base, {0.47}).verdict,
            ledger::Verdict::kWorse);
  EXPECT_EQ(ledger::compare_metric(share, base, {0.44}).verdict,
            ledger::Verdict::kWorse);
}

TEST(LedgerCompare, SpreadWiderThanTheBoundIsUnresolved) {
  const std::vector<double> noisy = {5.0, 10.0, 15.0, 20.0, 25.0};
  const auto c = ledger::compare_metric(spec(true, 0.1), noisy, {40.0});
  EXPECT_EQ(c.verdict, ledger::Verdict::kUnresolved);
  // ... unless every new run beats every base run.
  EXPECT_EQ(ledger::compare_metric(spec(true, 0.1), noisy, {1.0, 2.0}).verdict,
            ledger::Verdict::kBetter);
}

// ---- the outcome_log / request_latency_s alignment the ledger relies on --

struct EngineCase {
  const char* key;
  std::size_t workers;
  bool pipelined;
};

class OutcomeAlignment : public ::testing::TestWithParam<EngineCase> {};

TEST_P(OutcomeAlignment, ServedRecordsPairWithLatenciesOneToOne) {
  tgnn::data::SyntheticConfig dcfg;
  dcfg.num_users = 400;
  dcfg.num_items = 200;
  dcfg.num_edges = 3000;
  dcfg.edge_dim = 16;
  dcfg.user_zipf_s = 0.0;
  dcfg.seed = 3;
  const auto ds = tgnn::data::make_synthetic(dcfg);
  tgnn::core::TgnModel model(tgnn::core::np_config('M', ds.edge_dim(), 0), 1);
  model.fit_lut(tgnn::core::collect_dt_samples(ds, ds.train_range()));
  tgnn::runtime::BackendOptions bopts;
  bopts.threads = 2;
  auto backend = tgnn::runtime::make_backend(GetParam().key, model, ds, bopts);
  tgnn::runtime::fast_forward(*backend, 500);

  tgnn::runtime::ServingOptions sopts;
  sopts.max_batch = 16;
  sopts.max_wait_s = 1e-4;
  sopts.workers = GetParam().workers;
  sopts.pipelined = GetParam().pipelined;
  // A small shedding queue leaves gaps in the served sequence.
  sopts.queue_capacity = 8;
  sopts.admission = tgnn::runtime::AdmissionPolicy::kShed;
  tgnn::runtime::ServingEngine engine(*backend, sopts);
  for (std::size_t i = 500; i < 2000; ++i) engine.submit(i);
  engine.drain();

  const auto outcomes = engine.outcome_log();
  const auto latency = engine.request_latency_s();
  const auto batches = engine.batch_log();
  EXPECT_EQ(ledger::unresolved_count(outcomes, 500, 2000), 0u);

  // Served records come in runs, one run per completed batch (completion
  // order may differ from dispatch order on lanes). Within a run the engine
  // charges every request the same dispatch and service time, so latency
  // falls with later arrival: a misaligned pairing breaks that or the count.
  std::map<std::size_t, std::size_t> batch_end;  // begin -> end
  for (const auto& b : batches) batch_end[b.begin] = b.end;
  std::vector<std::size_t> served;
  for (const OutcomeRecord& o : outcomes)
    if (o.outcome == RequestOutcome::kServed) served.push_back(o.index);
  ASSERT_EQ(served.size(), latency.size());
  std::size_t runs = 0;
  for (std::size_t k = 0; k < served.size();) {
    const auto it = batch_end.find(served[k]);
    ASSERT_NE(it, batch_end.end()) << "served run starts mid-batch at "
                                   << served[k];
    const std::size_t len = it->second - it->first;
    ASSERT_LE(k + len, served.size());
    for (std::size_t j = 0; j < len; ++j) {
      EXPECT_EQ(served[k + j], it->first + j);
      if (j > 0) EXPECT_LE(latency[k + j], latency[k + j - 1]);
    }
    k += len;
    ++runs;
  }
  EXPECT_EQ(runs, batches.size());
}

INSTANTIATE_TEST_SUITE_P(
    Engines, OutcomeAlignment,
    ::testing::Values(EngineCase{"cpu", 1, false},
                      EngineCase{"sharded-cpu", 2, false},
                      EngineCase{"cpu", 1, true}),
    [](const auto& info) {
      return std::string(info.param.pipelined       ? "pipelined"
                         : info.param.workers > 1 ? "lanes"
                                                  : "serial");
    });

}  // namespace
