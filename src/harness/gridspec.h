// Declarative sweep-grid specs: a strict JSON format
// (crp-grid-spec-v1) describing algorithms × size distributions ×
// round budgets × trial counts × seed streams, parsed into the same
// SweepCell vector the compiled-in grids (harness/grids.h) produce —
// so the shard driver (tools/crp_shard.cpp) can sweep arbitrary
// user-submitted grids without a recompile, and an external scheduler
// can `crp_shard plan` a spec's shard → cell-range map before any
// worker starts.
//
// The determinism contract carries over unchanged: a spec-built grid
// hashes into grid_fingerprint (harness/shard.h) exactly as its
// compiled-in equivalent would — the checked-in
// examples/grids/table1.json reproduces the built-in "table1" grid's
// fingerprint, per-cell seeds, and merged sweep CSV byte for byte
// (tests/gridspec_test.cpp pins this across shard counts) — and spec
// cells flow through shard planning, checkpoint journals, and
// manifest-validated merges with no special cases.
//
// The reader is a schema over the shared strict JSON reader
// (harness/strict_json.h), the same one shard manifests use:
// unknown, duplicate, or missing fields, non-finite numerics, bare
// words such as nan/inf, out-of-range values, hex outside the
// lowercase grammar, and nesting deeper than 64 levels are all
// rejected with the offending field named plus its line/column —
// never a crash, a silent default, or a silently different grid. The
// grammar is documented in docs/GRIDSPEC.md; the short of it:
//
//   {
//     "format": "crp-grid-spec-v1",
//     "name": "table1-n1024",              // optional display label
//     "n": 1024,                           // network size bound
//     "sources": {                         // condensed sources over L(n)
//       "u1": {"family": "uniform_ranges", "m": 1},
//       "g":  {"family": "geometric_ranges", "decay": 0.5}
//     },
//     "algorithms": {                      // display name defaults to key
//       "lik": {"type": "likelihood", "source": "u1",
//               "name": "likelihood"},     // optional "cycle"
//       "cod": {"type": "coded", "source": "u1"}  // optional "backend"
//     },
//     "sizes": {
//       "h0":  {"type": "lift", "source": "u1", "placement": "high"},
//       "tab": {"type": "support", "entries": [[4, 0.5], [8, 0.5]]},
//       "csv": {"type": "csv", "path": "dist.csv"},  // spec-relative
//       "k64": {"type": "fixed_k", "k": 64}
//     },
//     "cells": [                           // explicit (paired) cells...
//       {"algorithm": "lik", "sizes": "h0", "budget": 262144}
//     ],
//     "product": {                         // ...then the cross product
//       "algorithms": ["lik", "cod"], "sizes": ["tab", "k64"],
//       "budgets": [16384]
//     }
//   }
//
// Cells may pin "trials" (per-cell override, 0 is rejected — absent
// means the sweep-level default) and "seed_stream" (an "0x..." hex
// string routed through pinned_seed_stream, so the reserved
// kSeedStreamFromIndex sentinel is rejected by name instead of
// silently decaying to index-derived seeds).
//
/// Ownership: GridSpec owns every constructed schedule, policy, and
/// distribution its cells borrow (stable heap addresses), so it is
/// move-only and must outlive any run_sweep/plan_shards call over its
/// cells.
///
/// Thread-safety: parsing is a pure function of its inputs; a parsed
/// GridSpec is immutable and safe to share across threads.
///
/// Determinism: the constructed objects go through the same
/// constructors the compiled-in grids use, so equal specs produce
/// bit-identical grids on every host — the spec is the portable,
/// recompile-free identity of a sweep.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "channel/protocol.h"
#include "harness/sweep.h"
#include "info/distribution.h"

namespace crp::harness {

/// A parsed crp-grid-spec-v1: the sweep cells plus the algorithm and
/// distribution objects they borrow. Move-only (the cells hold
/// pointers into the owned storage).
struct GridSpec {
  /// Optional display label (top-level "name"); empty when absent.
  std::string name;
  /// Network size bound n every distribution in the spec lives under.
  std::size_t n = 0;
  /// The grid, in declaration order: explicit "cells" first, then the
  /// "product" cross product (algorithm-major, then sizes, then
  /// budget) — the same order SweepGrid::cells() uses.
  std::vector<SweepCell> cells;

  /// Owned storage the cells borrow; unique_ptr keeps addresses
  /// stable across moves and makes GridSpec move-only.
  std::vector<std::unique_ptr<const channel::ProbabilitySchedule>> schedules;
  std::vector<std::unique_ptr<const channel::CollisionPolicy>> policies;
  std::vector<std::unique_ptr<const info::SizeDistribution>> distributions;
};

/// Parse knobs for the text-level entry point.
struct GridSpecOptions {
  /// Directory that relative "csv" size-source paths resolve against;
  /// empty = the process working directory. read_grid_spec_file sets
  /// it to the spec file's parent directory.
  std::string base_dir;
};

/// Parses a spec from JSON text. Throws std::invalid_argument on any
/// schema or value violation — always naming the offending field and
/// its line/column — and IoError (harness/checkpoint.h) when a
/// referenced size-distribution CSV cannot be opened.
GridSpec parse_grid_spec(std::string_view text,
                         const GridSpecOptions& options = {});

/// Reads and parses a spec file. Throws IoError when the file cannot
/// be read (exit 4 in crp_shard's taxonomy — retry may help), and
/// std::invalid_argument, prefixed with the path, on any validation
/// failure (exit 3 — retry will not).
GridSpec read_grid_spec_file(const std::string& path);

}  // namespace crp::harness
