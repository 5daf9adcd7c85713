// Reference sweep grids of the paper's reproductions, shared by the
// reproduction programs (repro/table1.cpp) and the crp_shard CLI
// (tools/crp_shard.cpp) so both always execute the *same* cells — a
// sharded run of "table1" reproduces exactly the grid the reproduction
// measures, and a change to the grid cannot silently diverge between
// the two.
//
/// Ownership: Table1EntropyPoint owns the distributions and algorithm
/// objects its sweep cells borrow; keep the point vector alive (and
/// at stable addresses — don't grow it after building cells) until
/// the sweep is done.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/coded_search.h"
#include "core/likelihood_schedule.h"
#include "harness/sweep.h"
#include "info/distribution.h"

namespace crp::harness {

/// One Table 1 entropy point: the condensed source uniform over m of
/// |L(n)| geometric ranges, its lifted actual distribution, and the
/// paper's two algorithms configured for it (the Section 2.5
/// likelihood-ordered no-CD schedule, the Section 2.6 coded-search CD
/// policy).
struct Table1EntropyPoint {
  Table1EntropyPoint(std::size_t ranges, std::size_t m, std::size_t n);

  info::CondensedDistribution condensed;
  info::SizeDistribution actual;
  core::LikelihoodOrderedSchedule schedule;
  core::CodedSearchPolicy policy;
  double h;  ///< H(c(X)) in bits
};

/// The entropy sweep for a network of size n: one point per
/// m = 1, 2, 4, ..., |L(n)| ranges of uniform condensed mass.
std::vector<Table1EntropyPoint> table1_entropy_points(std::size_t n);

/// The Table 1 upper-bound grid over `points`: per entropy point, the
/// no-CD likelihood schedule (budget 2^18) and the CD coded-search
/// policy (budget 2^14), each paired with that point's lifted
/// distribution (a diagonal sweep — explicit cells, not a cross
/// product). Cells borrow the points.
SweepGrid table1_upper_bound_grid(std::span<const Table1EntropyPoint> points);

}  // namespace crp::harness
