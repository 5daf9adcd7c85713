// Helpers shared by the harness tests: a fresh scratch directory per
// test, whole-file reads, whole-Measurement equality, the history-tree
// leaf oracle, and the six-cell sweep fixture that the sweep, shard,
// checkpoint and fault-injection tests run.
#pragma once

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/willard.h"
#include "channel/protocol.h"
#include "harness/exact.h"
#include "harness/history_tree.h"
#include "harness/measure.h"
#include "harness/sweep.h"
#include "info/distribution.h"

namespace crp::harness {

/// A fresh per-test scratch directory under the gtest temp root, named
/// prefix + suite + "_" + test and removed up front so reruns never see
/// stale journals.
inline std::filesystem::path test_dir(const std::string& prefix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   (prefix + info->test_suite_name() + "_" + info->name());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

inline std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Bit-identical measurements: the full per-round distribution and
/// every summary field derived from it.
inline void expect_identical(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_TRUE(a.histogram == b.histogram);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.rounds.count, b.rounds.count);
  EXPECT_EQ(a.rounds.mean, b.rounds.mean);
  EXPECT_EQ(a.rounds.stddev, b.rounds.stddev);
  EXPECT_EQ(a.rounds.p50, b.rounds.p50);
  EXPECT_EQ(a.rounds.p90, b.rounds.p90);
  EXPECT_EQ(a.rounds.p99, b.rounds.p99);
  EXPECT_EQ(a.rounds.min, b.rounds.min);
  EXPECT_EQ(a.rounds.max, b.rounds.max);
}

/// The state `policy` reaches after the rounds `packed` encodes: one
/// next_state step per round from initial_state(). The oracle for the
/// state an expansion stores in each HistoryLeaf.
inline channel::CollisionPolicy::State fold_packed_history(
    const channel::CollisionPolicy& policy, PackedHistory packed) {
  channel::CollisionPolicy::State state = policy.initial_state();
  const std::size_t depth = packed_depth(packed);
  for (std::size_t r = 0; r < depth; ++r) {
    state = policy.next_state(state, ((packed >> r) & 1) != 0);
  }
  return state;
}

/// Checks every leaf of `tree` (expanded from `policy`) against a
/// replay of its history from initial_state(): the leaf's state is the
/// state the history folds to, and leaf_cdf is the running sum of the
/// replayed reach masses, bit for bit — the expansion multiplies and
/// sums in the same order. Returns the replayed (pruned, frontier)
/// masses.
inline std::pair<double, double> expect_leaf_invariants(
    const channel::CollisionPolicy& policy, const HistoryTree& tree) {
  EXPECT_EQ(tree.leaf_cdf.size(), tree.leaves.size());
  double cumulative = 0.0;
  double pruned = 0.0;
  double frontier = 0.0;
  for (std::size_t i = 0; i < tree.leaves.size(); ++i) {
    const HistoryLeaf& leaf = tree.leaves[i];
    const std::size_t depth = packed_depth(leaf.history);
    EXPECT_LE(depth, tree.horizon);
    EXPECT_EQ(leaf.state, fold_packed_history(policy, leaf.history))
        << "leaf " << i;
    channel::CollisionPolicy::State state = policy.initial_state();
    double reach = 1.0;
    for (std::size_t r = 0; r < depth; ++r) {
      const bool collided = ((leaf.history >> r) & 1) != 0;
      const auto outcome =
          round_outcome_probabilities(tree.k, policy.probability_at(state));
      reach *= collided ? outcome.collision : outcome.silence;
      state = policy.next_state(state, collided);
    }
    cumulative += reach;
    EXPECT_EQ(cumulative, tree.leaf_cdf[i]) << "leaf " << i;
    (depth == tree.horizon ? frontier : pruned) += reach;
  }
  return {pruned, frontier};
}

/// Two schedules and a CD policy crossed with two workloads: 6 cells,
/// enough for uneven partitions.
struct SixCellFixture {
  SixCellFixture()
      : decay(1 << 10),
        slow_decay(1 << 6),
        willard(1 << 10),
        uniform(info::SizeDistribution::uniform(1 << 10)) {}

  /// Each algorithm against each workload at one budget,
  /// algorithm-major.
  std::vector<SweepCell> cells() const {
    const SweepAlgorithm fast{.name = "decay", .schedule = &decay};
    const SweepAlgorithm slow{.name = "slow-decay", .schedule = &slow_decay};
    const SweepAlgorithm cd{.name = "willard", .policy = &willard};
    const SweepSizes drawn{.name = "uniform", .distribution = &uniform};
    const SweepSizes fixed{.name = "k=100", .fixed_k = 100};
    constexpr std::size_t kBudget = 1 << 12;
    return {{fast, drawn, kBudget}, {fast, fixed, kBudget},
            {slow, drawn, kBudget}, {slow, fixed, kBudget},
            {cd, drawn, kBudget},   {cd, fixed, kBudget}};
  }

  baselines::DecaySchedule decay;
  baselines::DecaySchedule slow_decay;
  baselines::WillardPolicy willard;
  info::SizeDistribution uniform;
};

}  // namespace crp::harness
