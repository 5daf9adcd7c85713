// Helpers shared by the harness tests: a fresh scratch directory per
// test, whole-file reads, whole-Measurement equality, and the six-cell
// sweep fixture that the sweep, shard, checkpoint and fault-injection
// tests run.
#pragma once

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/willard.h"
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
