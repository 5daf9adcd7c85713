// The grid-spec contract (harness/gridspec.h), pinned from two sides:
//
//  - Differential: the checked-in examples/grids/table1.json must be
//    indistinguishable from the compiled-in table1 grid — same
//    grid_fingerprint, same per-cell seeds under every shard count,
//    and a sharded-merged sweep CSV byte-identical to the compiled
//    grid's monolithic one. This is what makes a spec the portable,
//    recompile-free identity of a sweep.
//
//  - Rejection surface: a property/fuzz pass over a canonical spec —
//    dropped/duplicated/renamed fields, nan/inf/negative/out-of-range
//    injections, truncation at every byte, random byte flips — where
//    every mutation must be rejected with the offending field named
//    (or parse into the byte-identical grid), never a crash or a
//    silent default. CI runs this file under ASan/UBSan too.
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "channel/rng.h"
#include "harness/checkpoint.h"
#include "harness/csv.h"
#include "harness/gridspec.h"
#include "harness/grids.h"
#include "harness/shard.h"
#include "harness/sweep.h"

namespace {

using crp::harness::GridSpec;
using crp::harness::grid_fingerprint;
using crp::harness::parse_grid_spec;
using crp::harness::read_grid_spec_file;
using crp::harness::SweepCell;

std::string table1_spec_path() {
  return std::string(CRP_SOURCE_DIR) + "/examples/grids/table1.json";
}

std::span<const SweepCell> cells_of(const std::vector<SweepCell>& cells) {
  return std::span<const SweepCell>(cells);
}

// ---- differential: spec vs compiled-in table1 ----

struct CompiledTable1 {
  std::vector<crp::harness::Table1EntropyPoint> points;
  std::vector<SweepCell> cells;
};

CompiledTable1 compiled_table1(std::size_t n) {
  CompiledTable1 grid;
  grid.points = crp::harness::table1_entropy_points(n);
  grid.cells = crp::harness::table1_upper_bound_grid(grid.points).cells();
  return grid;
}

TEST(GridSpecTable1, FingerprintAndCellsMatchCompiledGrid) {
  const GridSpec spec = read_grid_spec_file(table1_spec_path());
  const CompiledTable1 compiled = compiled_table1(1024);

  ASSERT_EQ(spec.n, 1024u);
  ASSERT_EQ(spec.cells.size(), compiled.cells.size());
  for (std::size_t i = 0; i < compiled.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(spec.cells[i].algorithm.name, compiled.cells[i].algorithm.name);
    EXPECT_EQ(spec.cells[i].sizes.name, compiled.cells[i].sizes.name);
    EXPECT_EQ(spec.cells[i].max_rounds, compiled.cells[i].max_rounds);
    EXPECT_EQ(spec.cells[i].trials, compiled.cells[i].trials);
    EXPECT_EQ(spec.cells[i].seed_stream, compiled.cells[i].seed_stream);
  }
  EXPECT_EQ(grid_fingerprint(cells_of(spec.cells)),
            grid_fingerprint(cells_of(compiled.cells)));
}

TEST(GridSpecTable1, CellSeedsMatchCompiledGridAcrossShardCounts) {
  const GridSpec spec = read_grid_spec_file(table1_spec_path());
  const CompiledTable1 compiled = compiled_table1(1024);
  const std::uint64_t master_seed = 20210526;

  for (std::size_t shard_count = 1; shard_count <= 4; ++shard_count) {
    for (std::size_t shard = 0; shard < shard_count; ++shard) {
      SCOPED_TRACE("shard " + std::to_string(shard) + "/" +
                   std::to_string(shard_count));
      crp::harness::ShardOptions options;
      options.shard_index = shard;
      options.shard_count = shard_count;
      const auto spec_plan =
          crp::harness::plan_shards(cells_of(spec.cells), options);
      const auto compiled_plan =
          crp::harness::plan_shards(cells_of(compiled.cells), options);
      ASSERT_EQ(spec_plan.cell_begin, compiled_plan.cell_begin);
      ASSERT_EQ(spec_plan.cell_end, compiled_plan.cell_end);
      ASSERT_EQ(spec_plan.cells.size(), compiled_plan.cells.size());
      for (std::size_t j = 0; j < spec_plan.cells.size(); ++j) {
        EXPECT_EQ(spec_plan.cells[j].seed_stream,
                  compiled_plan.cells[j].seed_stream);
        EXPECT_EQ(crp::channel::derive_stream_seed(
                      master_seed, spec_plan.cells[j].seed_stream),
                  crp::channel::derive_stream_seed(
                      master_seed, compiled_plan.cells[j].seed_stream));
      }
    }
  }
}

TEST(GridSpecTable1, ShardedMergedCsvByteIdenticalToCompiledMonolithic) {
  const GridSpec spec = read_grid_spec_file(table1_spec_path());
  const CompiledTable1 compiled = compiled_table1(1024);
  crp::harness::SweepOptions sweep;
  sweep.trials = 24;
  sweep.seed = 99;

  // The reference: the compiled-in grid, one process, no sharding.
  const auto reference = crp::harness::run_sweep(cells_of(compiled.cells),
                                                 sweep);
  std::ostringstream reference_csv;
  crp::harness::write_sweep_csv(reference_csv, reference);

  // The spec grid, as journaled shards merged by the CSV merge.
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "gridspec_table1_shards";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  for (std::size_t shard_count = 1; shard_count <= 4; ++shard_count) {
    SCOPED_TRACE(std::to_string(shard_count) + " shard(s)");
    std::vector<crp::harness::ShardArtifact> shards;
    for (std::size_t shard = 0; shard < shard_count; ++shard) {
      crp::harness::ShardOptions options;
      options.shard_index = shard;
      options.shard_count = shard_count;
      crp::harness::CheckpointRunOptions checkpoint;
      checkpoint.journal_path =
          (dir / ("shard-" + std::to_string(shard) + "-of-" +
                  std::to_string(shard_count) + ".journal"))
              .string();
      const auto run = crp::harness::run_sweep_shard_checkpointed(
          cells_of(spec.cells), options, sweep, checkpoint);
      crp::harness::ShardArtifact artifact;
      artifact.manifest = run.manifest;
      std::istringstream csv(run.csv);
      artifact.csv = crp::harness::read_shard_csv(csv);
      shards.push_back(std::move(artifact));
    }
    std::ostringstream merged_csv;
    crp::harness::merge_shard_csvs(
        merged_csv, std::span<const crp::harness::ShardArtifact>(shards));
    EXPECT_EQ(merged_csv.str(), reference_csv.str());
  }
}

// ---- the canonical fuzzing substrate ----
//
// One field per construct so drop/duplicate/rename mutations are plain
// substring replacements; exercises every source family, both
// algorithm types with their knobs, all three non-CSV size kinds,
// per-cell trials/seed_stream overrides, and a product block.
constexpr const char* kCanonicalSpec = R"({
  "format": "crp-grid-spec-v1",
  "name": "fuzz-canonical",
  "n": 64,
  "sources": {
    "u": {"family": "uniform_ranges", "m": 2},
    "g": {"family": "geometric_ranges", "decay": 0.5},
    "z": {"family": "zipf_ranges", "s": 1.0},
    "b": {"family": "bimodal_ranges", "range_a": 1, "range_b": 6, "eps": 0.25},
    "p": {"family": "spiked_uniform", "spike_mass": 0.5}
  },
  "algorithms": {
    "lik": {"type": "likelihood", "source": "u", "cycle": "proportional"},
    "cod": {"type": "coded", "source": "g", "backend": "shannon-fano"}
  },
  "sizes": {
    "lo": {"type": "lift", "source": "b", "placement": "low"},
    "tab": {"type": "support", "entries": [[4, 0.25], [8, 0.75]]},
    "k16": {"type": "fixed_k", "k": 16}
  },
  "cells": [
    {"algorithm": "lik", "sizes": "tab", "budget": 4096, "trials": 12, "seed_stream": "0x2a"},
    {"algorithm": "cod", "sizes": "lo", "budget": 512}
  ],
  "product": {
    "algorithms": ["lik", "cod"],
    "sizes": ["k16"],
    "budgets": [256, 1024]
  }
})";

/// Replaces the unique occurrence of `from`; fails the test when the
/// mutation anchor has drifted from kCanonicalSpec.
std::string mutate(const std::string& from, const std::string& to) {
  std::string text = kCanonicalSpec;
  const auto at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "mutation anchor not found: " << from;
  EXPECT_EQ(text.find(from, at + 1), std::string::npos)
      << "mutation anchor is ambiguous: " << from;
  if (at == std::string::npos) return text;
  text.replace(at, from.size(), to);
  return text;
}

/// The rejection contract: parsing must throw std::invalid_argument
/// whose message names the offending field (the `needle`).
void expect_rejected(const std::string& text, const std::string& needle) {
  try {
    (void)parse_grid_spec(text);
    FAIL() << "expected a rejection mentioning: " << needle;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "rejection message \"" << error.what()
        << "\" does not mention: " << needle;
  }
}

TEST(GridSpecParser, CanonicalSpecParses) {
  const GridSpec spec = parse_grid_spec(kCanonicalSpec);
  EXPECT_EQ(spec.name, "fuzz-canonical");
  EXPECT_EQ(spec.n, 64u);
  // 2 explicit cells + (2 algorithms × 1 sizes × 2 budgets).
  ASSERT_EQ(spec.cells.size(), 6u);
  EXPECT_EQ(spec.cells[0].trials, 12u);
  EXPECT_EQ(spec.cells[0].seed_stream, 0x2au);
  EXPECT_EQ(spec.cells[1].trials, 0u);
  EXPECT_EQ(spec.cells[1].seed_stream, crp::harness::kSeedStreamFromIndex);
  EXPECT_EQ(spec.cells[2].sizes.fixed_k, 16u);
  EXPECT_EQ(spec.cells[2].max_rounds, 256u);
  EXPECT_EQ(spec.cells[3].max_rounds, 1024u);
  EXPECT_EQ(spec.cells[4].algorithm.name, "cod");
}

TEST(GridSpecParser, ParseIsDeterministic) {
  const GridSpec first = parse_grid_spec(kCanonicalSpec);
  const GridSpec second = parse_grid_spec(kCanonicalSpec);
  EXPECT_EQ(grid_fingerprint(cells_of(first.cells)),
            grid_fingerprint(cells_of(second.cells)));
}

TEST(GridSpecParser, ProductBlockIsAlgorithmMajorThenSizesThenBudget) {
  // The spec's product block must append cells algorithm-major, then
  // sizes, then budget (docs/GRIDSPEC.md): cell indices pick the seeds,
  // so any other order would reseed every product cell.
  const GridSpec spec = parse_grid_spec(kCanonicalSpec);
  const crp::harness::SweepAlgorithm& lik = spec.cells[0].algorithm;
  const crp::harness::SweepAlgorithm& cod = spec.cells[1].algorithm;
  const crp::harness::SweepSizes& k16 = spec.cells[2].sizes;
  const std::vector<SweepCell> expected{
      spec.cells[0],    spec.cells[1],    {lik, k16, 256},
      {lik, k16, 1024}, {cod, k16, 256},  {cod, k16, 1024}};
  EXPECT_EQ(grid_fingerprint(cells_of(spec.cells)),
            grid_fingerprint(cells_of(expected)));
}

// ---- shared support-table validator (csv.h) ----

TEST(GridSpecParser, InlineSupportTableMatchesCsvReader) {
  const GridSpec spec = parse_grid_spec(kCanonicalSpec);
  std::istringstream csv("size,probability\n4,0.25\n8,0.75\n");
  const auto from_csv = crp::harness::read_size_distribution_csv(csv, 64);
  const auto* from_spec = spec.cells[0].sizes.distribution;
  ASSERT_NE(from_spec, nullptr);
  ASSERT_EQ(from_spec->n(), from_csv.n());
  for (std::size_t k = 2; k <= from_csv.n(); ++k) {
    EXPECT_EQ(from_spec->prob(k), from_csv.prob(k)) << "k = " << k;
  }
}

TEST(GridSpecParser, CsvSizesResolveAgainstSpecDirectory) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "gridspec_csv_sizes";
  fs::create_directories(dir);
  {
    std::ofstream csv(dir / "dist.csv");
    csv << "size,probability\n4,0.25\n8,0.75\n";
  }
  {
    std::ofstream spec_file(dir / "spec.json");
    spec_file << mutate("{\"type\": \"support\", "
                        "\"entries\": [[4, 0.25], [8, 0.75]]}",
                        "{\"type\": \"csv\", \"path\": \"dist.csv\"}");
  }
  const GridSpec from_file = read_grid_spec_file((dir / "spec.json").string());
  const GridSpec inline_table = parse_grid_spec(kCanonicalSpec);
  // Same validator behind both entry points: identical fingerprints.
  EXPECT_EQ(grid_fingerprint(cells_of(from_file.cells)),
            grid_fingerprint(cells_of(inline_table.cells)));
}

TEST(GridSpecParser, MissingCsvReferenceIsIoError) {
  EXPECT_THROW(
      (void)parse_grid_spec(
          mutate("{\"type\": \"support\", "
                 "\"entries\": [[4, 0.25], [8, 0.75]]}",
                 "{\"type\": \"csv\", \"path\": \"no-such-dist.csv\"}")),
      crp::harness::IoError);
}

TEST(GridSpecParser, UnreadableSpecFileIsIoError) {
  EXPECT_THROW((void)read_grid_spec_file("/no/such/spec.json"),
               crp::harness::IoError);
}

// ---- targeted rejection surface: every mutation names its field ----

TEST(GridSpecReject, MissingFields) {
  expect_rejected(mutate("\"format\": \"crp-grid-spec-v1\",", ""),
                  "missing field \"format\"");
  expect_rejected(mutate("\"n\": 64,", ""), "missing field \"n\"");
  expect_rejected(mutate("\"family\": \"uniform_ranges\", ", ""),
                  "missing field \"family\" of source \"u\"");
  expect_rejected(mutate("\"source\": \"u\", ", ""),
                  "missing field \"source\" of algorithm \"lik\"");
  expect_rejected(mutate(", \"placement\": \"low\"", ""),
                  "missing field \"placement\" of sizes \"lo\"");
  expect_rejected(mutate("\"budget\": 512", "\"budget\": 512, \"x\": 1"),
                  "unknown field \"x\" of cell [1]");
  expect_rejected(mutate(", \"budget\": 512", ""),
                  "missing field \"budget\" of cell [1]");
}

TEST(GridSpecReject, DuplicateFields) {
  expect_rejected(mutate("\"n\": 64,", "\"n\": 64, \"n\": 64,"),
                  "duplicate field \"n\"");
  expect_rejected(
      mutate("\"budget\": 512", "\"budget\": 512, \"budget\": 512"),
      "duplicate field \"budget\"");
  expect_rejected(mutate("\"m\": 2", "\"m\": 2, \"m\": 2"),
                  "duplicate field \"m\"");
}

TEST(GridSpecReject, RenamedFields) {
  expect_rejected(mutate("\"m\": 2", "\"mm\": 2"),
                  "unknown field \"mm\" of source \"u\"");
  expect_rejected(mutate("\"budget\": 512", "\"budgett\": 512"),
                  "unknown field \"budgett\" of cell [1]");
  expect_rejected(mutate("\"name\": \"fuzz-canonical\",",
                         "\"label\": \"fuzz-canonical\","),
                  "unknown field \"label\" of the spec");
  expect_rejected(mutate("\"decay\": 0.5", "\"rate\": 0.5"),
                  "unknown field \"rate\" of source \"g\"");
}

TEST(GridSpecReject, NonFiniteAndMalformedNumbers) {
  // Bare words never tokenize; the error still names the field path.
  expect_rejected(mutate("\"m\": 2", "\"m\": nan"), "sources.u.m");
  expect_rejected(mutate("\"decay\": 0.5", "\"decay\": inf"),
                  "sources.g.decay");
  // An overflowing exponent parses to inf and must still be rejected.
  expect_rejected(mutate("\"decay\": 0.5", "\"decay\": 1e999"),
                  "field \"decay\" of source \"g\" must be a finite number");
  expect_rejected(mutate("\"trials\": 12", "\"trials\": -3"),
                  "field \"trials\" of cell [0] must be a plain "
                  "non-negative integer");
  expect_rejected(mutate("\"n\": 64", "\"n\": 64.5"),
                  "field \"n\" must be a plain non-negative integer");
  expect_rejected(mutate("[8, 0.75]", "[8, nan]"),
                  "sizes.tab.entries[1][1]");
}

TEST(GridSpecReject, OutOfRangeValues) {
  expect_rejected(mutate("\"m\": 2", "\"m\": 7"),
                  "field \"m\" of source \"u\" must lie in [1, 6]");
  expect_rejected(mutate("\"decay\": 0.5", "\"decay\": 1.5"),
                  "field \"decay\" of source \"g\" must lie in (0, 1]");
  expect_rejected(mutate("\"eps\": 0.25", "\"eps\": 1.5"),
                  "field \"eps\" of source \"b\" must lie in [0, 1]");
  expect_rejected(mutate("\"spike_mass\": 0.5", "\"spike_mass\": 0"),
                  "field \"spike_mass\" of source \"p\" must lie in (0, 1)");
  expect_rejected(mutate("[4, 0.25]", "[4, -0.25]"),
                  "negative probability");
  expect_rejected(mutate("[4, 0.25]", "[4.5, 0.25]"),
                  "size must be an integer in [2, n]");
  expect_rejected(mutate("\"budget\": 512", "\"budget\": 0"),
                  "field \"budget\" of cell [1] must be >= 1");
  expect_rejected(mutate("\"trials\": 12", "\"trials\": 0"),
                  "field \"trials\" of cell [0] must be >= 1");
  expect_rejected(mutate("\"k\": 16", "\"k\": 1"),
                  "field \"k\" of sizes \"k16\" must be >= 2");
}

TEST(GridSpecReject, BadEnumerationsAndReferences) {
  expect_rejected(mutate("\"format\": \"crp-grid-spec-v1\"",
                         "\"format\": \"crp-grid-spec-v2\""),
                  "unsupported spec format \"crp-grid-spec-v2\"");
  expect_rejected(mutate("\"placement\": \"low\"",
                         "\"placement\": \"middle\""),
                  "field \"placement\" of sizes \"lo\"");
  expect_rejected(mutate("\"cycle\": \"proportional\"",
                         "\"cycle\": \"sometimes\""),
                  "field \"cycle\" of algorithm \"lik\"");
  expect_rejected(mutate("\"family\": \"zipf_ranges\"",
                         "\"family\": \"pareto_ranges\""),
                  "no known family \"pareto_ranges\"");
  expect_rejected(mutate("\"algorithm\": \"cod\"", "\"algorithm\": \"xxx\""),
                  "references undefined algorithm \"xxx\"");
  expect_rejected(mutate("\"sizes\": [\"k16\"]", "\"sizes\": [\"k99\"]"),
                  "references undefined sizes \"k99\"");
}

TEST(GridSpecReject, SeedStreamHexAndSentinel) {
  expect_rejected(mutate("\"seed_stream\": \"0x2a\"",
                         "\"seed_stream\": \"0xzz\""),
                  "field \"seed_stream\" of cell [0]");
  expect_rejected(mutate("\"seed_stream\": \"0x2a\"",
                         "\"seed_stream\": \"42\""),
                  "must be an \"0x...\" hex string");
  // The reserved derive-from-index sentinel must be rejected by name,
  // not silently decay to index-derived seeds (harness/sweep.h).
  expect_rejected(mutate("\"seed_stream\": \"0x2a\"",
                         "\"seed_stream\": \"0xffffffffffffffff\""),
                  "reserved");
}

// ---- property/fuzz: no crash, no silent default, no wrong grid ----

TEST(GridSpecFuzz, TruncationAtEveryByteRejectsOrRoundTrips) {
  const std::string canonical = kCanonicalSpec;
  const std::uint64_t reference =
      grid_fingerprint(cells_of(parse_grid_spec(canonical).cells));
  for (std::size_t length = 0; length <= canonical.size(); ++length) {
    SCOPED_TRACE("prefix length " + std::to_string(length));
    try {
      const GridSpec spec = parse_grid_spec(canonical.substr(0, length));
      // Only a prefix that is still a complete spec (the full text,
      // possibly minus trailing whitespace) may parse — and then it
      // must be the *same* grid, never a silently different one.
      EXPECT_EQ(grid_fingerprint(cells_of(spec.cells)), reference);
    } catch (const std::invalid_argument& error) {
      // Every rejection carries position info.
      EXPECT_NE(std::string(error.what()).find("grid spec: line"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(GridSpecFuzz, RandomByteFlipsNeverCrash) {
  const std::string canonical = kCanonicalSpec;
  const std::uint64_t reference =
      grid_fingerprint(cells_of(parse_grid_spec(canonical).cells));
  std::mt19937 rng(0xC0FFEE);  // fixed seed: reproducible corpus
  std::uniform_int_distribution<std::size_t> position(0,
                                                      canonical.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int iteration = 0; iteration < 500; ++iteration) {
    std::string text = canonical;
    const std::size_t at = position(rng);
    text[at] = static_cast<char>(byte(rng));
    SCOPED_TRACE("iteration " + std::to_string(iteration) + ", byte " +
                 std::to_string(at));
    try {
      const GridSpec spec = parse_grid_spec(text);
      // A flip that still parses (e.g. a digit or a name character
      // changed) must yield a *valid* grid: non-empty, fingerprint
      // computable. Identity to the reference is only required when
      // the text is unchanged.
      EXPECT_FALSE(spec.cells.empty());
      (void)grid_fingerprint(cells_of(spec.cells));
      if (text == canonical) {
        EXPECT_EQ(grid_fingerprint(cells_of(spec.cells)), reference);
      }
    } catch (const std::invalid_argument&) {
      // Named rejection: the expected outcome for most flips.
    }
    // Anything else (segfault, ASan report, std::bad_alloc, a foreign
    // exception type) fails the test/job.
  }
}

}  // namespace
