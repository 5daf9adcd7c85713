// The history-tree CD sampler (channel/history_engine.h) vs the
// per-round simulation adapter it accelerates:
//  * the shared expansion must agree with exact_profile_cd exactly
//    (same enumeration, so bit-equal marginals);
//  * sampled measurements must be thread-count and block-partition
//    invariant, and statistically indistinguishable from the simulated
//    CD path (same distribution, different randomness consumption);
//  * leaf continuation (pruned branches and the depth-cap frontier)
//    and the node-cap simulation fallback must stay deterministic;
//  * the tree cache is single-flight: one expansion per (k, horizon)
//    at every thread count, and a throwing expansion is rethrown to
//    every caller of its key;
//  * a cache told each cell's use frees a policy's engine with the
//    policy's last open cell, and measures as a keep-forever one;
//  * golden fixed-seed statistics pin the engine's streams so draw-
//    order changes are caught deliberately.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <tuple>
#include <utility>
#include <vector>
#include <stdexcept>

#include <gtest/gtest.h>

#include "baselines/willard.h"
#include "channel/history_engine.h"
#include "channel/rng.h"
#include "core/coded_search.h"
#include "harness/exact.h"
#include "harness/history_tree.h"
#include "harness/measure.h"
#include "harness/parallel.h"
#include "harness/sweep.h"
#include "info/distribution.h"
#include "predict/families.h"

#include "test_support.h"

namespace crp::harness {
namespace {

using channel::HistoryTreeEngine;

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

/// A constant-probability CD policy: one state, whatever the history.
class ConstantPolicy final : public channel::CollisionPolicy {
 public:
  explicit ConstantPolicy(double p) : p_(p) {}
  State initial_state() const override { return 0; }
  State next_state(State, bool) const override { return 0; }
  double probability_at(State) const override { return p_; }
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
      EXPECT_DOUBLE_EQ(profile.solve_by[r + 1], tree->solve_cdf()[r])
          << "k=" << k << " r=" << r;
    }
    EXPECT_EQ(mode, HistoryTreeEngine::Mode::kInverseCdf);
    expect_leaf_invariants(willard, *tree);
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
  // One leaf: its cumulative mass is its reach.
  EXPECT_LT(tree->leaf_cdf[0], HistoryTreeEngine::Options().prune_below);
  expect_leaf_invariants(half, *tree);
  for (std::size_t r = 0; r < chain; ++r) {
    EXPECT_NEAR(tree->solve_cdf()[r],
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
  expect_leaf_invariants(always, *tree);
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
  expect_leaf_invariants(willard, *tree);

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

TEST(HistoryTreeEngine, LeafSearchIsUpperBound) {
  // leaf_for's branch-free descent must pick exactly the leaf
  // std::upper_bound over leaf_cdf[0, size - 1) picks: at every
  // cumulative mass and its neighbours (ties), below the first, past
  // the last, on NaN, and for trees of one and two leaves.
  const baselines::WillardPolicy willard(1 << 16);
  const auto reference = [](const HistoryTree& tree, double mass) {
    return static_cast<std::size_t>(
        std::upper_bound(tree.leaf_cdf.begin(), tree.leaf_cdf.end() - 1,
                         mass) -
        tree.leaf_cdf.begin());
  };
  const auto check = [&](const HistoryTree& tree) {
    ASSERT_FALSE(tree.leaves.empty());
    std::vector<double> masses = {
        -1.0, -0.0, 0.0, 1.0, 2.0, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    for (const double c : tree.leaf_cdf) {
      masses.insert(masses.end(), {c, std::nextafter(c, 0.0),
                                   std::nextafter(c, 2.0)});
    }
    channel::SplitMix64 rng(5);
    std::uniform_real_distribution<double> unit(0.0, tree.leaf_cdf.back());
    for (int i = 0; i < 2000; ++i) masses.push_back(unit(rng));
    for (const double mass : masses) {
      EXPECT_EQ(&tree.leaf_for(mass), &tree.leaves[reference(tree, mass)])
          << "mass " << mass << " leaves " << tree.leaves.size();
    }
  };
  std::size_t one = 0;
  std::size_t two = 0;
  for (const std::size_t horizon : {1ul, 2ul, 3ul, 16ul}) {
    for (const double prune : {1e-1, 1e-2, 1e-6}) {
      const auto tree = expand_history_tree(
          willard, 60, {.horizon = horizon, .prune_below = prune});
      one += tree.leaves.size() == 1 ? 1 : 0;
      two += tree.leaves.size() == 2 ? 1 : 0;
      check(tree);
    }
  }
  // One leaf: the silence chain of k = 1, pruned once.
  const ConstantPolicy half(0.5);
  const auto chain = expand_history_tree(half, 1, {.horizon = 48,
                                                   .prune_below = 1e-5});
  one += chain.leaves.size() == 1 ? 1 : 0;
  check(chain);
  EXPECT_GT(one, 0u);
  EXPECT_GT(two, 0u);
  // A tree with many leaves of equal cumulative mass: ties everywhere.
  const ConstantPolicy always(1.0);
  check(expand_history_tree(always, 2, {.horizon = 8}));
}

/// The tree engine's (solved, round) for fixed-k trial `trial` of
/// `seed`, recomputed the way the engine did before leaves carried
/// their state: std::upper_bound picks the leaf, and the policy state
/// is rebuilt by folding the leaf's history from initial_state(). The
/// trial's stream gives the solve draw, then one draw per continued
/// round.
std::pair<std::uint8_t, std::uint64_t> folding_reference(
    const channel::CollisionPolicy& policy, const HistoryTree& tree,
    std::uint64_t seed, std::size_t trial, std::size_t max_rounds,
    std::size_t& leaf_hits) {
  channel::SplitMix64 rng = channel::derive_fast_rng(seed, trial);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double u = unit(rng);
  const double solved_mass = tree.solved_mass();
  std::size_t round = 0;
  if (u < solved_mass) {
    const auto cdf = tree.solve_cdf();
    round = static_cast<std::size_t>(
                std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin()) +
            1;
  } else if (!tree.leaves.empty()) {
    ++leaf_hits;
    const auto it = std::upper_bound(tree.leaf_cdf.begin(),
                                     tree.leaf_cdf.end() - 1, u - solved_mass);
    const PackedHistory history =
        tree.leaves[static_cast<std::size_t>(it - tree.leaf_cdf.begin())]
            .history;
    channel::CollisionPolicy::State state =
        fold_packed_history(policy, history);
    for (std::size_t r = packed_depth(history); r < max_rounds; ++r) {
      const auto outcome =
          round_outcome_probabilities(tree.k, policy.probability_at(state));
      const double v = unit(rng);
      if (v < outcome.success) {
        round = r + 1;
        break;
      }
      state = policy.next_state(state, v >= outcome.success + outcome.silence);
    }
  }
  return {round != 0 ? 1 : 0, round != 0 ? round : max_rounds};
}

TEST(HistoryTreeEngine, LeafContinuationMatchesAFoldingReference) {
  // A coarse prune under a shallow cap sends most trials through leaf
  // continuation (coded search tuned for small sizes barely solves
  // k = 60 or 2500 in 4 rounds). Every trial's (solved, rounds) must
  // equal the folding reference's at 1, 4 and 16 threads: continuing
  // from leaf.state moves no trial.
  const baselines::WillardPolicy willard(1 << 16);
  const core::CodedSearchPolicy coded(
      predict::geometric_ranges(info::num_ranges(1 << 16), 0.5));
  HistoryTreeEngine::Options coarse;
  coarse.depth_cap = 4;
  coarse.prune_below = 1e-2;
  const HistoryTreeEngine willard_engine(willard, coarse);
  const HistoryTreeEngine coded_engine(coded, coarse);
  struct Case {
    const channel::CollisionPolicy& policy;
    const HistoryTreeEngine& engine;
    std::size_t k;
  };
  const std::array<Case, 4> cases{{{willard, willard_engine, 2},
                                   {willard, willard_engine, 60},
                                   {coded, coded_engine, 60},
                                   {coded, coded_engine, 2500}}};
  constexpr std::size_t kMaxRounds = 1 << 10;
  constexpr std::size_t kTrials = 3 * kTrialBlockSize + 101;
  constexpr std::uint64_t kSeed = 61;
  std::size_t leaf_hits = 0;
  for (const Case& c : cases) {
    const auto [tree, mode] = c.engine.tree_for(c.k, kMaxRounds);
    ASSERT_EQ(mode, HistoryTreeEngine::Mode::kInverseCdf);
    expect_leaf_invariants(c.policy, *tree);
    std::vector<std::uint8_t> solved(kTrials);
    std::vector<std::uint64_t> rounds(kTrials);
    for (std::size_t t = 0; t < kTrials; ++t) {
      std::tie(solved[t], rounds[t]) = folding_reference(
          c.policy, *tree, kSeed, t, kMaxRounds, leaf_hits);
    }
    for (const std::size_t threads : {1ul, 4ul, 16ul}) {
      std::vector<std::uint8_t> got_solved(kTrials);
      std::vector<std::uint64_t> got_rounds(kTrials);
      parallel_blocks(kTrials, threads, [&](std::size_t begin,
                                            std::size_t end) {
        channel::TrialBlock block{
            .seed = kSeed,
            .first_trial = begin,
            .max_rounds = kMaxRounds,
            .sizes = {nullptr, c.k},
            .solved = std::span(got_solved).subspan(begin, end - begin),
            .rounds = std::span(got_rounds).subspan(begin, end - begin)};
        c.engine.run_many(block);
      });
      EXPECT_EQ(got_solved, solved) << "k=" << c.k << " threads " << threads;
      EXPECT_EQ(got_rounds, rounds) << "k=" << c.k << " threads " << threads;
    }
  }
  EXPECT_GT(2 * leaf_hits, cases.size() * kTrials);
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
  // The leaves recorded before the cap stopped the expansion still
  // hold their invariants.
  expect_leaf_invariants(willard, *tree);

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
  const auto results = run_sweep(grid.cells(), options);
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
  const auto results = run_sweep(grid.cells(), sweep);
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

TEST(HistoryTreeEngine, ExpandsEachKeyOnceAtEveryThreadCount) {
  // Many cells share one policy and one support table under two
  // budgets above the depth cap, so every cell needs the same
  // (k, horizon) keys and the first blocks of several open cells race
  // for them. The single-flight cache expands each key exactly once,
  // whatever the pool width, and the measurements do not move.
  const baselines::WillardPolicy willard(1 << 12);
  std::vector<double> probs(4097, 0.0);
  std::size_t support = 0;
  for (std::size_t k = 2; k <= 4096; k += 97, ++support) probs[k] = 1.0;
  for (double& p : probs) p /= static_cast<double>(support);
  const info::SizeDistribution sizes(std::move(probs));
  const std::size_t depth_cap = HistoryTreeEngine::Options().depth_cap;
  const std::array<std::size_t, 2> budgets{4 * depth_cap, 1 << 12};

  std::vector<Measurement> reference;
  for (const std::size_t threads : {1ul, 4ul, 16ul}) {
    const channel::HistoryTreeCache cache;
    MeasureOptions options;
    options.cd_engine = CdEngine::kHistoryTree;
    options.tree_cache = &cache;
    std::vector<MeasureCell> cells;
    for (std::size_t c = 0; c < 32; ++c) {
      cells.push_back(MeasureCell{
          .engine = [&] { return uniform_engine(willard, options); },
          .sizes = {&sizes, 0},
          .trials = kTrialBlockSize + 100 * c,
          .seed = channel::derive_stream_seed(47, c),
          .max_rounds = budgets[c % 2]});
    }
    const auto results = measure_cells(cells, threads);
    EXPECT_EQ(cache.engine_for(willard)->expansions(), support)
        << "threads " << threads;
    if (reference.empty()) reference = results;
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t c = 0; c < results.size(); ++c) {
      expect_identical(reference[c], results[c]);
    }
  }
}

/// A cell's engine that forwards to a shared history-tree engine and,
/// as the cell drops it, records how many keys that engine has
/// expanded: the last record of a policy reads an engine that the
/// cell's close may free.
class ExpansionRecorder final : public channel::Engine {
 public:
  ExpansionRecorder(std::shared_ptr<const HistoryTreeEngine> engine,
                    std::mutex& mutex, std::size_t& expansions)
      : engine_(std::move(engine)), mutex_(mutex), expansions_(expansions) {}
  ~ExpansionRecorder() override {
    const std::lock_guard lock(mutex_);
    expansions_ = std::max(expansions_, engine_->expansions());
  }
  void run_many(channel::TrialBlock& block) const override {
    engine_->run_many(block);
  }

 private:
  std::shared_ptr<const HistoryTreeEngine> engine_;
  std::mutex& mutex_;
  std::size_t& expansions_;
};

TEST(HistoryTreeEngine, APolicysEngineDiesWithItsLastCell) {
  // The cells of policy A, then those of policy B, through a cache
  // that knows each cell's use: A's engine, with its trees, dies with
  // A's last open cell, not with the cache. Keys are still expanded
  // once each, and the measurements equal a keep-forever cache's.
  const baselines::WillardPolicy policy_a(1 << 12);
  const baselines::WillardPolicy policy_b(1 << 10);
  const std::array<const channel::CollisionPolicy*, 2> policies{&policy_a,
                                                                &policy_b};
  const std::array<std::vector<std::size_t>, 2> sizes{
      std::vector<std::size_t>{60, 300, 2500, 60, 300, 2500},
      std::vector<std::size_t>{40, 900, 40, 900}};
  const std::size_t first_b = sizes[0].size();
  const auto cells_through = [&](const auto& engine_of) {
    std::vector<MeasureCell> cells;
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (const std::size_t k : sizes[p]) {
        cells.push_back(MeasureCell{
            .engine = [&engine_of, policy = policies[p]] {
              return engine_of(*policy);
            },
            .sizes = {nullptr, k},
            .trials = 2 * kTrialBlockSize + 100 * cells.size(),
            .seed = channel::derive_stream_seed(53, cells.size()),
            .max_rounds = 1 << 12});
      }
    }
    return cells;
  };

  const channel::HistoryTreeCache forever;
  const auto forever_engine = [&](const channel::CollisionPolicy& policy) {
    return std::static_pointer_cast<const channel::Engine>(
        forever.engine_for(policy));
  };
  const auto reference = measure_cells(cells_through(forever_engine), 1);
  // Every cell's budget shares the depth-cap horizon: one key per k.
  ASSERT_EQ(forever.engine_for(policy_a)->expansions(), 3u);
  ASSERT_EQ(forever.engine_for(policy_b)->expansions(), 2u);

  for (const std::size_t threads : {1ul, 4ul, 16ul}) {
    channel::HistoryTreeCache cache;
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t c = 0; c < sizes[p].size(); ++c) {
        cache.declare_use(*policies[p]);
      }
    }
    std::mutex mutex;
    std::map<const channel::CollisionPolicy*,
             std::weak_ptr<const HistoryTreeEngine>>
        engines;
    std::map<const channel::CollisionPolicy*, std::size_t> expansions;
    const auto declared_engine = [&](const channel::CollisionPolicy& policy) {
      auto engine = cache.engine_for(policy);
      const std::lock_guard lock(mutex);
      const auto [it, first] = engines.try_emplace(&policy, engine);
      // Every cell of a policy gets the one engine: none is rebuilt.
      if (!first) {
        EXPECT_EQ(it->second.lock(), engine);
      }
      return std::static_pointer_cast<const channel::Engine>(
          std::make_shared<const ExpansionRecorder>(std::move(engine), mutex,
                                                    expansions[&policy]));
    };
    std::vector<Measurement> delivered(reference.size());
    const auto results = measure_cells(
        cells_through(declared_engine), threads,
        [&](std::size_t c, const Measurement& measurement) {
          delivered[c] = measurement;
          if (threads != 1 || c != first_b) return;
          const std::lock_guard lock(mutex);
          EXPECT_TRUE(engines.at(&policy_a).expired());
          // B's other cells are still to open: the cache holds B.
          EXPECT_FALSE(engines.at(&policy_b).expired());
        });
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t c = 0; c < results.size(); ++c) {
      expect_identical(reference[c], results[c]);
      expect_identical(reference[c], delivered[c]);
    }
    EXPECT_EQ(expansions.at(&policy_a), 3u) << "threads " << threads;
    EXPECT_EQ(expansions.at(&policy_b), 2u) << "threads " << threads;
    EXPECT_EQ(cache.size(), 0u) << "threads " << threads;
    EXPECT_TRUE(engines.at(&policy_a).expired()) << "threads " << threads;
    EXPECT_TRUE(engines.at(&policy_b).expired()) << "threads " << threads;
  }
}

TEST(HistoryTreeEngine, AThrowingExpansionIsRethrownToEveryCaller) {
  // The expansion meets the NaN and throws; the cache keeps the error,
  // so the key is expanded once and every later lookup and every block
  // that needs it rethrows the same error.
  const ConstantPolicy nan_policy(std::numeric_limits<double>::quiet_NaN());
  for (const std::size_t threads : {1ul, 4ul}) {
    const HistoryTreeEngine engine(nan_policy);
    const channel::SizeSource sizes{nullptr, 100};
    const MeasureOptions options{.max_rounds = 1 << 12, .threads = threads};
    for (int attempt = 0; attempt < 2; ++attempt) {
      EXPECT_THROW(engine.tree_for(100, 1 << 12), std::invalid_argument);
      EXPECT_THROW(measure_blocks(engine, sizes, 8 * kTrialBlockSize, 5,
                                  options),
                   std::invalid_argument);
    }
    EXPECT_EQ(engine.expansions(), 1u) << "threads " << threads;
  }
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
