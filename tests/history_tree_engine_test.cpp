// The history-tree CD sampler (channel/history_engine.h) vs the
// per-round simulation adapter it accelerates:
//  * the shared expansion must agree with exact_profile_cd exactly
//    (same enumeration, so bit-equal marginals);
//  * sampled measurements must be thread-count and block-partition
//    invariant, and statistically indistinguishable from the simulated
//    CD path (same distribution, different randomness consumption);
//  * leaf continuation (pruned branches and the depth-cap frontier)
//    and the node-cap simulation fallback must stay deterministic;
//  * golden fixed-seed statistics pin the engine's streams so draw-
//    order changes are caught deliberately.
#include <bit>
#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "baselines/willard.h"
#include "channel/history_engine.h"
#include "channel/rng.h"
#include "harness/exact.h"
#include "harness/history_tree.h"
#include "harness/measure.h"
#include "harness/parallel.h"
#include "harness/sweep.h"
#include "info/distribution.h"
#include "predict/families.h"

namespace crp::harness {
namespace {

using channel::HistoryTreeEngine;

void expect_identical(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.trials, b.trials);
  // Full per-round distribution equality.
  EXPECT_TRUE(a.histogram == b.histogram);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.rounds.mean, b.rounds.mean);
  EXPECT_EQ(a.rounds.max, b.rounds.max);
}

/// The sum of the solved trials' rounds, read exactly off the
/// histogram.
double sample_sum(const Measurement& m) {
  double sum = 0.0;
  const auto counts = m.histogram.counts();
  for (std::size_t r = 0; r < counts.size(); ++r) {
    sum += static_cast<double>(r) * static_cast<double>(counts[r]);
  }
  return sum;
}

info::SizeDistribution table1_sizes(std::size_t n) {
  const auto condensed =
      predict::uniform_over_ranges(info::num_ranges(n), 6);
  return predict::lift(condensed, n,
                       predict::RangePlacement::kHighEndpoint);
}

/// A constant-probability CD policy (ignores the history).
class ConstantPolicy final : public channel::CollisionPolicy {
 public:
  explicit ConstantPolicy(double p) : p_(p) {}
  double probability(const channel::BitString&) const override { return p_; }
  std::string name() const override { return "constant"; }

 private:
  double p_;
};

TEST(HistoryTreeEngine, MarginalsAgreeWithExactProfileExactly) {
  const baselines::WillardPolicy willard(1 << 16);
  const HistoryTreeEngine engine(willard);
  for (std::size_t k : {2ul, 60ul, 2500ul}) {
    const auto [tree, mode] = engine.tree_for(k, 1 << 12);
    ASSERT_NE(tree, nullptr);
    EXPECT_FALSE(tree->truncated);
    // Same enumeration, same options => bit-equal solve marginals.
    const auto profile =
        exact_profile_cd(willard, k, tree->horizon, tree->prune_below);
    ASSERT_EQ(profile.solve_by.size(), tree->horizon + 1);
    for (std::size_t r = 0; r < tree->horizon; ++r) {
      EXPECT_DOUBLE_EQ(profile.solve_by[r + 1], tree->solve_cdf[r])
          << "k=" << k << " r=" << r;
    }
    EXPECT_EQ(mode, HistoryTreeEngine::Mode::kInverseCdf);
  }
}

TEST(HistoryTreeEngine, CrossValidatesAgainstSimulatedPathFixedK) {
  const baselines::WillardPolicy willard(1 << 16);
  const MeasureOptions simulated{.max_rounds = 1 << 12, .threads = 1};
  MeasureOptions tree = simulated;
  tree.cd_engine = CdEngine::kHistoryTree;
  for (std::size_t k : {2ul, 60ul, 2500ul}) {
    const auto m_sim =
        measure_uniform_cd_fixed_k(willard, k, 20000, /*seed=*/7, simulated);
    const auto m_tree =
        measure_uniform_cd_fixed_k(willard, k, 20000, /*seed=*/7, tree);
    EXPECT_EQ(m_sim.trials, m_tree.trials);
    EXPECT_NEAR(m_sim.success_rate, m_tree.success_rate, 0.01) << "k=" << k;
    EXPECT_NEAR(m_sim.rounds.mean, m_tree.rounds.mean,
                4.0 * m_sim.rounds.ci95 + 0.01)
        << "k=" << k;
  }
}

TEST(HistoryTreeEngine, CrossValidatesAgainstSimulatedPathDrawnSizes) {
  const baselines::WillardPolicy willard(1 << 12);
  const auto actual = table1_sizes(1 << 12);
  const MeasureOptions simulated{.max_rounds = 1 << 12, .threads = 1};
  MeasureOptions tree = simulated;
  tree.cd_engine = CdEngine::kHistoryTree;
  const auto m_sim =
      measure_uniform_cd(willard, actual, 20000, /*seed=*/11, simulated);
  const auto m_tree =
      measure_uniform_cd(willard, actual, 20000, /*seed=*/11, tree);
  EXPECT_NEAR(m_sim.success_rate, m_tree.success_rate, 0.01);
  EXPECT_NEAR(m_sim.rounds.mean, m_tree.rounds.mean,
              4.0 * m_sim.rounds.ci95 + 0.01);
}

TEST(HistoryTreeEngine, ThreadCountAndBlockPartitionInvisible) {
  const baselines::WillardPolicy willard(1 << 12);
  const auto actual = table1_sizes(1 << 12);
  MeasureOptions options{.max_rounds = 1 << 12, .threads = 1};
  options.cd_engine = CdEngine::kHistoryTree;
  for (const std::size_t trials :
       {kTrialBlockSize - 1, 3 * kTrialBlockSize + 17}) {
    const auto reference =
        measure_uniform_cd(willard, actual, trials, 99, options);
    for (const std::size_t threads : {2ul, 8ul}) {
      MeasureOptions pooled = options;
      pooled.threads = threads;
      expect_identical(reference, measure_uniform_cd(willard, actual, trials,
                                                     99, pooled));
    }
  }
}

TEST(HistoryTreeEngine, InverseCdfModeForChainTrees) {
  // k = 1: collisions are impossible, so the history tree is a single
  // silence chain. Its solve CDF is Geometric(p) down to the depth
  // where the chain's reach falls below prune_below; that one pruned
  // branch is the tree's only leaf, and trials landing on it continue
  // by simulation — so the sampled solve round is exactly Geometric(p).
  const ConstantPolicy half(0.5);
  const HistoryTreeEngine engine(half);
  const auto [tree, mode] = engine.tree_for(1, 1 << 12);
  EXPECT_EQ(mode, HistoryTreeEngine::Mode::kInverseCdf);
  ASSERT_EQ(tree->leaves.size(), 1u);
  const std::size_t chain =
      std::bit_width(tree->leaves[0].history) - 1;  // the leaf's depth
  ASSERT_GT(chain, 10u);
  ASSERT_LT(chain, tree->horizon);
  EXPECT_LT(tree->leaves[0].reach, HistoryTreeEngine::Options().prune_below);
  for (std::size_t r = 0; r < chain; ++r) {
    EXPECT_NEAR(tree->solve_cdf[r],
                1.0 - std::exp2(-static_cast<double>(r + 1)), 1e-12);
  }
  EXPECT_DOUBLE_EQ(tree->solved_mass() + tree->leaf_cdf.back(), 1.0);
  MeasureOptions options{.max_rounds = 1 << 12, .threads = 1};
  options.cd_engine = CdEngine::kHistoryTree;
  const auto m = measure_uniform_cd_fixed_k(half, 1, 40000, 13, options);
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
  EXPECT_NEAR(m.rounds.mean, 2.0, 4.0 * m.rounds.ci95);
}

TEST(HistoryTreeEngine, NeverSolvingPolicyReportsUnsolved) {
  // p = 1 with k >= 2 collides forever: the tree is a collision chain
  // whose whole mass sits on one frontier leaf. At a budget equal to
  // the expansion horizon that leaf continues for zero rounds, so every
  // trial is unsolved at the budget — matching the simulated path.
  const ConstantPolicy always(1.0);
  const HistoryTreeEngine engine(always);
  const auto [tree, mode] = engine.tree_for(2, 48);
  EXPECT_EQ(mode, HistoryTreeEngine::Mode::kInverseCdf);
  EXPECT_DOUBLE_EQ(tree->solved_mass(), 0.0);
  EXPECT_DOUBLE_EQ(tree->frontier_mass, 1.0);
  ASSERT_EQ(tree->leaves.size(), 1u);
  MeasureOptions options{.max_rounds = 48, .threads = 1};
  options.cd_engine = CdEngine::kHistoryTree;
  const auto m = measure_uniform_cd_fixed_k(always, 2, 500, 17, options);
  EXPECT_DOUBLE_EQ(m.success_rate, 0.0);
}

TEST(HistoryTreeEngine, DepthCapFallbackIsDeterministicAndCorrect) {
  // A cap far below the budget leaves real mass on the frontier: the
  // 4-round expansion answers the early solves by inverse CDF, and
  // every trial alive at the cap lands on a frontier leaf and continues
  // from that leaf's history by per-round simulation. A coarse prune
  // adds pruned leaves on top. Results must stay thread-count invariant
  // and keep the exact distribution.
  const baselines::WillardPolicy willard(1 << 16);
  HistoryTreeEngine::Options capped;
  capped.depth_cap = 4;
  capped.prune_below = 1e-2;
  const HistoryTreeEngine engine(willard, capped);
  const auto [tree, mode] = engine.tree_for(60, 1 << 12);
  EXPECT_EQ(mode, HistoryTreeEngine::Mode::kInverseCdf);
  EXPECT_EQ(tree->horizon, 4u);
  EXPECT_GT(tree->frontier_mass, 0.1);
  EXPECT_GT(tree->pruned_mass, 0.0);
  std::size_t frontier_leaves = 0;
  for (const auto& leaf : tree->leaves) {
    const std::size_t depth = std::bit_width(leaf.history) - 1;
    EXPECT_LE(depth, tree->horizon);
    frontier_leaves += depth == tree->horizon ? 1 : 0;
  }
  EXPECT_GT(frontier_leaves, 0u);
  EXPECT_LT(frontier_leaves, tree->leaves.size());
  EXPECT_NEAR(tree->solved_mass() + tree->leaf_cdf.back(), 1.0, 1e-12);

  const channel::SizeSource sizes{nullptr, 60};
  const MeasureOptions serial{.max_rounds = 1 << 12, .threads = 1};
  const auto reference = measure_blocks(engine, sizes, 20000, 23, serial);
  for (const std::size_t threads : {2ul, 8ul}) {
    MeasureOptions pooled = serial;
    pooled.threads = threads;
    expect_identical(reference,
                     measure_blocks(engine, sizes, 20000, 23, pooled));
  }
  const auto simulated =
      measure_uniform_cd_fixed_k(willard, 60, 20000, 23, serial);
  EXPECT_NEAR(reference.rounds.mean, simulated.rounds.mean,
              4.0 * simulated.rounds.ci95 + 0.01);
  // Solve rounds past the cap can only come from continuation.
  EXPECT_GT(reference.histogram.trials() -
                reference.histogram.solved_by(static_cast<double>(
                    tree->horizon)),
            0u);
}

TEST(HistoryTreeEngine, RejectsADepthCapItCannotEncode) {
  // Leaf histories are packed into one word; a deeper cap must be
  // refused up front, never silently truncated.
  const baselines::WillardPolicy willard(1 << 16);
  HistoryTreeEngine::Options options;
  options.depth_cap = kMaxPackedDepth;
  EXPECT_NO_THROW(HistoryTreeEngine(willard, options));
  options.depth_cap = kMaxPackedDepth + 1;
  EXPECT_THROW(HistoryTreeEngine(willard, options), std::invalid_argument);
  EXPECT_THROW(channel::HistoryTreeCache(options).engine_for(willard),
               std::invalid_argument);
}

TEST(HistoryTreeEngine, NodeCapDelegatesToSimulation) {
  const baselines::WillardPolicy willard(1 << 16);
  HistoryTreeEngine::Options tiny;
  tiny.max_nodes = 100;
  const HistoryTreeEngine engine(willard, tiny);
  const auto [tree, mode] = engine.tree_for(2500, 1 << 12);
  EXPECT_TRUE(tree->truncated);
  EXPECT_EQ(mode, HistoryTreeEngine::Mode::kSimulate);

  const channel::SizeSource sizes{nullptr, 2500};
  const MeasureOptions serial{.max_rounds = 1 << 12, .threads = 1};
  const auto m = measure_blocks(engine, sizes, 20000, 29, serial);
  for (const std::size_t threads : {2ul, 8ul}) {
    MeasureOptions pooled = serial;
    pooled.threads = threads;
    expect_identical(m, measure_blocks(engine, sizes, 20000, 29, pooled));
  }
  const auto simulated =
      measure_uniform_cd_fixed_k(willard, 2500, 20000, 29, serial);
  EXPECT_NEAR(m.rounds.mean, simulated.rounds.mean,
              4.0 * simulated.rounds.ci95 + 0.01);
}

TEST(HistoryTreeEngine, SweepSchedulerUsesTheCdEngine) {
  // The cd_engine knob must reach CD cells through run_sweep: a one-
  // cell sweep equals the direct measurement under the cell's derived
  // seed.
  const baselines::WillardPolicy willard(1 << 12);
  SweepGrid grid;
  grid.add_cell({.algorithm = {.name = "willard", .policy = &willard},
                 .sizes = {.fixed_k = 60},
                 .max_rounds = 1 << 12});
  SweepOptions options;
  options.trials = 4000;
  options.seed = 31;
  options.threads = 1;
  options.cd_engine = CdEngine::kHistoryTree;
  const auto results = run_sweep(grid, options);
  ASSERT_EQ(results.size(), 1u);

  MeasureOptions direct{.max_rounds = 1 << 12, .threads = 1};
  direct.cd_engine = CdEngine::kHistoryTree;
  const auto expected = measure_uniform_cd_fixed_k(
      willard, 60, 4000, channel::derive_stream_seed(31, 0), direct);
  expect_identical(expected, results[0].measurement);
}

TEST(HistoryTreeEngine, SharedTreeCacheMeasuresIdentically) {
  // A HistoryTreeCache hands every caller of the same policy the same
  // engine (one expansion per (policy, k, horizon) for the whole
  // sweep), and cached measurements are bit-identical to per-call
  // engines.
  const baselines::WillardPolicy willard(1 << 12);
  const channel::HistoryTreeCache cache;
  const auto first = cache.engine_for(willard);
  const auto second = cache.engine_for(willard);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);

  MeasureOptions direct{.max_rounds = 1 << 12, .threads = 1};
  direct.cd_engine = CdEngine::kHistoryTree;
  MeasureOptions cached = direct;
  cached.tree_cache = &cache;
  expect_identical(measure_uniform_cd_fixed_k(willard, 60, 4000, 41, direct),
                   measure_uniform_cd_fixed_k(willard, 60, 4000, 41, cached));
  EXPECT_EQ(cache.size(), 1u);

  // Through the sweep scheduler: two cells share the policy, and the
  // sweep (which routes every CD cell through one cache) matches the
  // cache-less direct measurements cell by cell.
  SweepGrid grid;
  grid.add_cell({.algorithm = {.name = "willard", .policy = &willard},
                 .sizes = {.fixed_k = 60},
                 .max_rounds = 1 << 12});
  grid.add_cell({.algorithm = {.name = "willard", .policy = &willard},
                 .sizes = {.fixed_k = 2500},
                 .max_rounds = 1 << 12});
  SweepOptions sweep;
  sweep.trials = 2000;
  sweep.seed = 43;
  sweep.threads = 1;
  sweep.cd_engine = CdEngine::kHistoryTree;
  const auto results = run_sweep(grid, sweep);
  ASSERT_EQ(results.size(), 2u);
  expect_identical(
      results[0].measurement,
      measure_uniform_cd_fixed_k(willard, 60, 2000,
                                 channel::derive_stream_seed(43, 0), direct));
  expect_identical(
      results[1].measurement,
      measure_uniform_cd_fixed_k(willard, 2500, 2000,
                                 channel::derive_stream_seed(43, 1), direct));
}

// ---- golden fixed-seed statistics --------------------------------
//
// Captured from this engine when leaf continuation replaced the tree
// walk (tests/distributional_gate_test.cpp vouches for the new
// streams' distribution). Any change to the per-trial stream
// derivation, the draw order, or the expansion (prune threshold, depth
// cap, leaf order) shows up here deliberately.

TEST(HistoryTreeEngine, GoldenFixedSeedStatistics) {
  const baselines::WillardPolicy willard(1 << 16);
  MeasureOptions options{.max_rounds = 1 << 12, .threads = 1};
  options.cd_engine = CdEngine::kHistoryTree;
  const auto fixed =
      measure_uniform_cd_fixed_k(willard, 60, 2000, 2025, options);
  EXPECT_DOUBLE_EQ(fixed.success_rate, 1.0);
  EXPECT_DOUBLE_EQ(fixed.rounds.mean, 4.7149999999999999);
  EXPECT_DOUBLE_EQ(sample_sum(fixed), 9430.0);

  const auto actual = table1_sizes(1 << 12);
  const baselines::WillardPolicy small(1 << 12);
  const auto drawn = measure_uniform_cd(small, actual, 2000, 2026, options);
  EXPECT_DOUBLE_EQ(drawn.success_rate, 1.0);
  EXPECT_DOUBLE_EQ(drawn.rounds.mean, 4.2560000000000002);
  EXPECT_DOUBLE_EQ(sample_sum(drawn), 8512.0);
}

}  // namespace
}  // namespace crp::harness
