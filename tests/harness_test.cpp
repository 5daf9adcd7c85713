#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "channel/engine.h"
#include "channel/rng.h"
#include "harness/fit.h"
#include "harness/measure.h"
#include "harness/stats.h"
#include "harness/table.h"

namespace crp::harness {
namespace {

TEST(Stats, SummarizesKnownSamples) {
  const std::vector<double> samples{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto stats = summarize(samples);
  EXPECT_EQ(stats.count, 5u);
  EXPECT_DOUBLE_EQ(stats.mean, 3.0);
  EXPECT_NEAR(stats.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 5.0);
  EXPECT_DOUBLE_EQ(stats.p50, 3.0);
}

TEST(Stats, EmptyInputYieldsZeros) {
  const auto stats = summarize(std::vector<double>{});
  EXPECT_EQ(stats.count, 0u);
  EXPECT_DOUBLE_EQ(stats.mean, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> samples{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(samples, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 1.0), 10.0);
  EXPECT_THROW(percentile(samples, 1.5), std::invalid_argument);
}

/// Trials alternate by global index: even trials solve in 3 rounds,
/// odd ones never solve.
class AlternatingEngine final : public channel::Engine {
 public:
  void run_many(channel::TrialBlock& block) const override {
    for (std::size_t t = 0; t < block.size(); ++t) {
      const bool solved = (block.first_trial + t) % 2 == 0;
      block.solved[t] = solved ? 1 : 0;
      block.rounds[t] = solved ? 3 : block.max_rounds;
    }
  }
};

TEST(Measure, CountsFailuresAndSuccesses) {
  const AlternatingEngine engine;
  const auto m = measure_blocks(engine, {nullptr, 1}, 100, /*seed=*/1,
                                {.max_rounds = 100});
  EXPECT_DOUBLE_EQ(m.success_rate, 0.5);
  EXPECT_EQ(m.rounds.count, 50u);
  EXPECT_DOUBLE_EQ(m.rounds.mean, 3.0);
  EXPECT_DOUBLE_EQ(m.solved_within(3.0), 0.5);
  EXPECT_DOUBLE_EQ(m.solved_within(2.0), 0.0);
  EXPECT_EQ(m.histogram.solved(), 50u);
}

TEST(Measure, IsReproducibleAcrossCalls) {
  const channel::AdapterEngine engine(
      [](std::size_t, channel::Rng& rng, const channel::SimOptions&) {
        std::uniform_int_distribution<std::size_t> rounds(1, 100);
        return channel::RunResult{true, rounds(rng), std::nullopt};
      });
  const MeasureOptions options;
  const auto a = measure_blocks(engine, {nullptr, 1}, 500, 42, options);
  const auto b = measure_blocks(engine, {nullptr, 1}, 500, 42, options);
  EXPECT_EQ(a.histogram.solved(), 500u);
  EXPECT_TRUE(a.histogram == b.histogram);
}

TEST(RandomParticipantSet, CorrectSizeAndDistinctIds) {
  auto rng = channel::make_rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    const auto set = random_participant_set(50, 20, rng);
    EXPECT_EQ(set.size(), 20u);
    auto sorted = set;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
    EXPECT_LT(sorted.back(), 50u);
  }
  EXPECT_THROW(random_participant_set(5, 6, rng), std::invalid_argument);
}

TEST(RandomParticipantSet, IsApproximatelyUniform) {
  auto rng = channel::make_rng(10);
  std::vector<std::size_t> hits(10, 0);
  constexpr std::size_t kTrials = 20000;
  for (std::size_t t = 0; t < kTrials; ++t) {
    for (std::size_t id : random_participant_set(10, 3, rng)) ++hits[id];
  }
  for (std::size_t id = 0; id < 10; ++id) {
    EXPECT_NEAR(static_cast<double>(hits[id]) / kTrials, 0.3, 0.02);
  }
}

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
  EXPECT_THROW(table.add_row({"too", "many", "cells"}),
               std::invalid_argument);
}

TEST(Fmt, FormatsNumbers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(std::size_t{42}), "42");
}

TEST(Fit, RecoversExactLinearRelation) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{3.0, 5.0, 7.0, 9.0};
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Fit, OriginFitRecoversSlope) {
  const std::vector<double> x{1.0, 2.0, 4.0};
  const std::vector<double> y{2.0, 4.0, 8.0};
  const auto fit = fit_through_origin(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Fit, PearsonAndSpearmanAgreeOnMonotoneLinearData) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> y{2.0, 4.0, 6.0, 8.0, 10.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(Fit, SpearmanSeesThroughNonlinearMonotonicity) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> y;
  for (double v : x) y.push_back(std::exp2(v));
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
  EXPECT_LT(pearson(x, y), 1.0);
}

TEST(Fit, ValidatesInput) {
  const std::vector<double> x{1.0};
  const std::vector<double> y{1.0};
  EXPECT_THROW((void)fit_linear(x, y), std::invalid_argument);
  const std::vector<double> flat{1.0, 1.0};
  const std::vector<double> any{1.0, 2.0};
  EXPECT_THROW((void)pearson(flat, any), std::invalid_argument);
}

}  // namespace
}  // namespace crp::harness
