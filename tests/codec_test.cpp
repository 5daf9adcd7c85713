// One fuzz discipline for every on-disk reader. The grid spec
// (harness/gridspec.h), the shard manifest (harness/shard.h), the
// worker checkpoint journal (harness/checkpoint.h), and the supervisor
// journal (harness/supervisor.h) sit on two shared codecs,
// harness/strict_json.h and harness/framed_journal.h. This file pins
// what they share:
//
//  - Bounded nesting: 10^5 '[' characters are a named rejection with a
//    line and column, never a stack overflow.
//  - One hex grammar: uppercase, empty, over-long, and signed "0x"
//    values are rejected by all four readers, and whatever hex_u64
//    writes round-trips through all four.
//  - Pinned journal headers: one golden header line per journal
//    format, so any checksum or field-order drift fails.
//  - Fuzz: truncation at every byte, plus a 0x01 and a 0x20 bit flip
//    at every byte, plus a field-mutation table. A journal is either
//    rejected naming the file and a byte offset, or read as torn with
//    an undamaged valid prefix. A manifest is either rejected naming
//    a position (and, for the mutation table, the field), or parses —
//    never a crash or a foreign exception type.
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/checkpoint.h"
#include "harness/csv.h"
#include "harness/gridspec.h"
#include "harness/shard.h"
#include "harness/supervisor.h"

namespace {

using crp::harness::CheckpointJournal;
using crp::harness::CheckpointRecord;
using crp::harness::format_checkpoint_header;
using crp::harness::format_checkpoint_record;
using crp::harness::format_supervisor_bisect;
using crp::harness::format_supervisor_header;
using crp::harness::format_supervisor_quarantine;
using crp::harness::hex_u64;
using crp::harness::parse_grid_spec;
using crp::harness::read_checkpoint_journal;
using crp::harness::read_shard_manifest;
using crp::harness::read_supervisor_journal;
using crp::harness::ShardManifest;
using crp::harness::SupervisorJournal;

/// The hex values every reader must reject: uppercase (a 0x20 flip of
/// a lowercase digit), empty, 17 digits, and a leading sign.
const std::vector<std::string> kBadHex = {
    "0xAB", "0xaB", "0x", "0x" + std::string(17, '1'), "-0x1", "+0x1"};

/// Values whose hex_u64 form must survive every reader (the maximum
/// is the grid spec's reserved seed-stream sentinel, so stop short).
const std::vector<std::uint64_t> kRoundTrip = {
    0, 1, 0xa, 0xabcdefULL, 0xfedcba9876543210ULL,
    std::numeric_limits<std::uint64_t>::max() - 1};

std::filesystem::path test_dir(const std::string& name) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / ("codec_test_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string write_file(const std::filesystem::path& path,
                       const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  out.close();
  return path.string();
}

/// The std::invalid_argument message `action` throws, or "" when it
/// returns normally. Any other exception escapes and fails the test.
std::string rejection(const std::function<void()>& action) {
  try {
    action();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return {};
}

bool contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

/// Replaces field `index` of the first line of a journal block, or
/// appends one more field when `index` is one past the last.
std::string with_field(const std::string& block, std::size_t index,
                       const std::string& value) {
  const std::size_t line_end = block.find('\n');
  std::vector<std::string> fields;
  std::istringstream line(block.substr(0, line_end));
  for (std::string field; std::getline(line, field, ' ');) {
    fields.push_back(field);
  }
  if (index == fields.size()) {
    fields.push_back(value);
  } else {
    fields.at(index) = value;
  }
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ' ';
    out += fields[i];
  }
  return out + block.substr(line_end);
}

// ---- fixtures ----

ShardManifest sample_manifest() {
  ShardManifest manifest;
  manifest.csv = "shard-1-of-3.csv";
  manifest.engine = "batch";
  manifest.cd_engine = "history-tree";
  manifest.grid_hash = 0xdeadbeefcafef00dULL;
  manifest.master_seed = 0xabcdef0123456789ULL;
  manifest.trials = 600;
  manifest.total_cells = 9;
  manifest.shard_index = 1;
  manifest.shard_count = 3;
  manifest.cell_begin = 3;
  manifest.cell_end = 6;
  manifest.cell_seeds = {0xfedcba9876543210ULL, 0x0, 0xa1b2c3d4e5f60718ULL};
  return manifest;
}

std::string manifest_text(const ShardManifest& manifest) {
  std::ostringstream out;
  crp::harness::write_shard_manifest(out, manifest);
  return out.str();
}

ShardManifest parse_manifest(const std::string& text) {
  std::istringstream in(text);
  return read_shard_manifest(in);
}

bool same_manifest(const ShardManifest& a, const ShardManifest& b) {
  return a.csv == b.csv && a.engine == b.engine &&
         a.cd_engine == b.cd_engine && a.grid_hash == b.grid_hash &&
         a.master_seed == b.master_seed && a.trials == b.trials &&
         a.total_cells == b.total_cells && a.shard_index == b.shard_index &&
         a.shard_count == b.shard_count && a.cell_begin == b.cell_begin &&
         a.cell_end == b.cell_end && a.cell_seeds == b.cell_seeds;
}

/// A journal as its header block plus its record blocks.
struct JournalBytes {
  std::string header;
  std::vector<std::string> records;

  std::string whole() const {
    std::string out = header;
    for (const std::string& record : records) out += record;
    return out;
  }
  /// Byte offsets where each block ends, the header's first.
  std::vector<std::size_t> boundaries() const {
    std::vector<std::size_t> out{header.size()};
    for (const std::string& record : records) {
      out.push_back(out.back() + record.size());
    }
    return out;
  }
  /// Byte offset where record `index` starts.
  std::size_t offset_of(std::size_t index) const {
    return boundaries()[index];
  }
};

ShardManifest checkpoint_identity() {
  ShardManifest identity = sample_manifest();
  identity.cell_seeds.clear();
  return identity;
}

const std::string kCsvHeader =
    "algorithm,sizes,budget,trials,cell_seed,mean,ci95";

JournalBytes checkpoint_journal() {
  const std::vector<CheckpointRecord> records = {
      {.cell_index = 4,
       .cell_seed = 0xa1b2c3d4e5f60718ULL,
       .row = "lik,h0,512,600,11651590505119483672,3.5,0.25"},
      // A quoted field with an embedded newline: the payload is
      // length-framed, so a newline inside it is not a line break.
      {.cell_index = 3,
       .cell_seed = 0xfedcba9876543210ULL,
       .row = "\"cod,\nnewline\",tab,16,600,18364758544493064720,7,1"},
      {.cell_index = 5, .cell_seed = 0x0, .row = "lik,k64,8,600,0,2,0.5"},
  };
  JournalBytes bytes;
  bytes.header = format_checkpoint_header(checkpoint_identity(), kCsvHeader);
  for (const CheckpointRecord& record : records) {
    bytes.records.push_back(format_checkpoint_record(record));
  }
  return bytes;
}

SupervisorJournal supervisor_identity() {
  SupervisorJournal journal;
  journal.grid_hash = 0xdeadbeefcafef00dULL;
  journal.master_seed = 0x1122334455667788ULL;
  journal.trials = 600;
  journal.total_cells = 8;
  journal.workers = 3;
  journal.engine = "batch";
  journal.cd_engine = "simulate";
  return journal;
}

/// Bisections and quarantines interleaved, as a fleet writes them.
JournalBytes supervisor_journal() {
  JournalBytes bytes;
  bytes.header = format_supervisor_header(supervisor_identity());
  bytes.records = {
      format_supervisor_bisect({.cell_begin = 0, .mid = 4, .cell_end = 8}),
      format_supervisor_quarantine({.cell_index = 3,
                                    .attempts = 2,
                                    .reason = "validation error (exit 3)"}),
      format_supervisor_bisect({.cell_begin = 4, .mid = 6, .cell_end = 8}),
      format_supervisor_quarantine({.cell_index = 6,
                                    .attempts = 5,
                                    .reason = "timed out\nafter 5 tries"}),
  };
  return bytes;
}

/// What a journal read recovered: its records re-serialized in file
/// order, so they compare byte for byte with the reference blocks.
struct Recovered {
  std::vector<std::string> records;
  std::size_t valid_bytes = 0;
  std::size_t torn_bytes = 0;
};

Recovered recover_checkpoint(const std::string& path) {
  const CheckpointJournal journal = read_checkpoint_journal(path);
  Recovered out{.records = {},
                .valid_bytes = journal.valid_bytes,
                .torn_bytes = journal.torn_bytes};
  for (const CheckpointRecord& record : journal.records) {
    out.records.push_back(format_checkpoint_record(record));
  }
  return out;
}

Recovered recover_supervisor(const std::string& path) {
  const SupervisorJournal journal = read_supervisor_journal(path);
  Recovered out{.records = {},
                .valid_bytes = journal.valid_bytes,
                .torn_bytes = journal.torn_bytes};
  // The reader splits records by kind; interleave them back in the
  // reference's file order, stopping at the first kind that ran out.
  std::size_t bisect = 0;
  std::size_t quarantine = 0;
  for (const std::string& block : supervisor_journal().records) {
    if (block.starts_with("bisect")) {
      if (bisect == journal.bisections.size()) break;
      out.records.push_back(
          format_supervisor_bisect(journal.bisections[bisect++]));
    } else {
      if (quarantine == journal.quarantined.size()) break;
      out.records.push_back(
          format_supervisor_quarantine(journal.quarantined[quarantine++]));
    }
  }
  EXPECT_EQ(out.records.size(),
            journal.bisections.size() + journal.quarantined.size())
      << "records recovered out of file order";
  return out;
}

using Recover = std::function<Recovered(const std::string&)>;

/// Truncation at every byte: inside the header is damage (the header
/// is written atomically); past it, the valid prefix is the greatest
/// record boundary <= the cut and the rest is torn tail.
void expect_truncation_discipline(const JournalBytes& reference,
                                  const Recover& recover,
                                  const std::filesystem::path& dir) {
  const std::string whole = reference.whole();
  const auto boundaries = reference.boundaries();
  const auto path = (dir / "truncated.journal").string();
  for (std::size_t cut = 0; cut <= whole.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    write_file(path, whole.substr(0, cut));
    if (cut < reference.header.size()) {
      const std::string error = rejection([&] { (void)recover(path); });
      EXPECT_TRUE(contains(error, path + " at byte 0")) << error;
      continue;
    }
    const Recovered got = recover(path);
    std::size_t whole_records = 0;
    while (whole_records + 1 < boundaries.size() &&
           boundaries[whole_records + 1] <= cut) {
      ++whole_records;
    }
    EXPECT_EQ(got.valid_bytes, boundaries[whole_records]);
    EXPECT_EQ(got.torn_bytes, cut - boundaries[whole_records]);
    ASSERT_EQ(got.records.size(), whole_records);
    for (std::size_t i = 0; i < whole_records; ++i) {
      EXPECT_EQ(got.records[i], reference.records[i]);
    }
  }
}

/// A bit flip at every byte: rejected naming the file and an offset,
/// or torn with only undamaged records in the valid prefix — never a
/// damaged record replayed as valid.
void expect_flip_discipline(const JournalBytes& reference,
                            const Recover& recover,
                            const std::filesystem::path& dir,
                            unsigned char mask) {
  const std::string whole = reference.whole();
  const auto path = (dir / "flipped.journal").string();
  for (std::size_t offset = 0; offset < whole.size(); ++offset) {
    SCOPED_TRACE("mask " + std::to_string(mask) + ", flip at byte " +
                 std::to_string(offset));
    std::string flipped = whole;
    flipped[offset] = static_cast<char>(flipped[offset] ^ mask);
    write_file(path, flipped);
    Recovered got;
    const std::string error = rejection([&] { got = recover(path); });
    if (!error.empty()) {
      EXPECT_TRUE(contains(error, path + " at byte ")) << error;
      continue;
    }
    EXPECT_GT(got.torn_bytes, 0u) << "flip silently accepted";
    ASSERT_LE(got.records.size(), reference.records.size());
    for (std::size_t i = 0; i < got.records.size(); ++i) {
      EXPECT_EQ(got.records[i], reference.records[i])
          << "flip corrupted a replayed record";
    }
  }
}

/// One field-mutation row: which block (0 = header, i = record i-1),
/// which field, the new value, and the field name the rejection must
/// carry along with the block's byte offset.
struct JournalMutation {
  std::size_t block;
  std::size_t field;
  std::string value;
  std::string needle;
};

void expect_mutations_rejected(const JournalBytes& reference,
                               const Recover& recover,
                               const std::vector<JournalMutation>& table,
                               const std::filesystem::path& dir) {
  const auto path = (dir / "mutated.journal").string();
  for (const JournalMutation& row : table) {
    SCOPED_TRACE("block " + std::to_string(row.block) + " field " +
                 std::to_string(row.field) + " = \"" + row.value + "\"");
    JournalBytes mutated = reference;
    std::string& block =
        row.block == 0 ? mutated.header : mutated.records[row.block - 1];
    block = with_field(block, row.field, row.value);
    write_file(path, mutated.whole());
    const std::size_t offset =
        row.block == 0 ? 0 : reference.offset_of(row.block - 1);
    const std::string error = rejection([&] { (void)recover(path); });
    EXPECT_TRUE(contains(error, path + " at byte " + std::to_string(offset)))
        << error;
    EXPECT_TRUE(contains(error, row.needle))
        << "needle: " << row.needle << "\nerror: " << error;
  }
}

std::vector<JournalMutation> uint_rows(std::size_t block, std::size_t field,
                                       const std::string& name) {
  std::vector<JournalMutation> rows;
  for (const std::string value :
       {"", "-1", "+1", "1.5", "0x1", "nan", "18446744073709551616"}) {
    rows.push_back({block, field, value, name});
  }
  return rows;
}

std::vector<JournalMutation> hex_rows(std::size_t block, std::size_t field,
                                      const std::string& name) {
  std::vector<JournalMutation> rows;
  for (const std::string& value : kBadHex) {
    rows.push_back({block, field, value, name});
  }
  rows.push_back({block, field, "0xg", name});
  rows.push_back({block, field, "12", name});
  return rows;
}

// ---- bounded nesting ----

TEST(CodecNesting, HundredThousandBracketsAreANamedRejection) {
  const std::string brackets(100000, '[');
  const std::string spec_error =
      rejection([&] { (void)parse_grid_spec(brackets); });
  EXPECT_TRUE(contains(spec_error, "grid spec: line 1, column 65"))
      << spec_error;
  EXPECT_TRUE(contains(spec_error, "nesting deeper than 64")) << spec_error;

  const std::string manifest_error =
      rejection([&] { (void)parse_manifest(brackets); });
  EXPECT_TRUE(contains(manifest_error, "shard manifest: line 1, column 65"))
      << manifest_error;
  EXPECT_TRUE(contains(manifest_error, "nesting deeper than 64"))
      << manifest_error;
}

TEST(CodecNesting, LimitIsExactlySixtyFourLevels) {
  // The root object is level 1, so 63 arrays inside it reach level 64:
  // legal nesting, rejected by the schema (unknown field), not by the
  // depth guard. One more array crosses the limit.
  const auto nested = [](std::size_t arrays) {
    return "{\"x\": " + std::string(arrays, '[') + std::string(arrays, ']') +
           "}";
  };
  const std::string at_limit =
      rejection([&] { (void)parse_grid_spec(nested(63)); });
  EXPECT_TRUE(contains(at_limit, "unknown field \"x\"")) << at_limit;
  const std::string past_limit =
      rejection([&] { (void)parse_grid_spec(nested(64)); });
  EXPECT_TRUE(contains(past_limit, "nesting deeper than 64")) << past_limit;
}

// ---- one hex grammar ----

std::string spec_with_seed_stream(const std::string& value) {
  return R"({
  "format": "crp-grid-spec-v1",
  "n": 64,
  "sources": {"u": {"family": "uniform_ranges", "m": 1}},
  "algorithms": {"lik": {"type": "likelihood", "source": "u"}},
  "sizes": {"k4": {"type": "fixed_k", "k": 4}},
  "cells": [{"algorithm": "lik", "sizes": "k4", "budget": 8,
             "seed_stream": ")" +
         value + R"("}]
})";
}

TEST(CodecHexGrammar, SharedParserAcceptsOnlyLowercaseDigits) {
  for (const std::string& bad : kBadHex) {
    EXPECT_FALSE(crp::harness::parse_hex_u64(bad).has_value()) << bad;
  }
  for (const std::uint64_t value : kRoundTrip) {
    EXPECT_EQ(crp::harness::parse_hex_u64(hex_u64(value)), value);
  }
  EXPECT_EQ(hex_u64(0), "0x0");
  EXPECT_EQ(hex_u64(0xabcdefULL), "0xabcdef");
  EXPECT_EQ(hex_u64(std::numeric_limits<std::uint64_t>::max()),
            "0xffffffffffffffff");
}

TEST(CodecHexGrammar, GridSpecRejectsBadHex) {
  for (const std::string& bad : kBadHex) {
    SCOPED_TRACE(bad);
    const std::string error =
        rejection([&] { (void)parse_grid_spec(spec_with_seed_stream(bad)); });
    EXPECT_TRUE(contains(error, "grid spec: line")) << error;
    EXPECT_TRUE(contains(error, "field \"seed_stream\" of cell [0]")) << error;
  }
}

TEST(CodecHexGrammar, ManifestRejectsBadHex) {
  const std::string good = manifest_text(sample_manifest());
  const std::string grid_hash = "\"" + hex_u64(0xdeadbeefcafef00dULL) + "\"";
  const std::string seed = "\"" + hex_u64(0xa1b2c3d4e5f60718ULL) + "\"";
  for (const std::string& bad : kBadHex) {
    SCOPED_TRACE(bad);
    std::string text = good;
    text.replace(text.find(grid_hash), grid_hash.size(), "\"" + bad + "\"");
    const std::string error = rejection([&] { (void)parse_manifest(text); });
    EXPECT_TRUE(contains(error, "field \"grid_hash\"")) << error;

    text = good;
    text.replace(text.find(seed), seed.size(), "\"" + bad + "\"");
    const std::string seed_error =
        rejection([&] { (void)parse_manifest(text); });
    EXPECT_TRUE(contains(seed_error, "field \"cell_seeds\"[2]")) << seed_error;
  }
}

TEST(CodecHexGrammar, CheckpointJournalRejectsBadHex) {
  const auto dir = test_dir("checkpoint_hex");
  const auto path = (dir / "bad.journal").string();
  const JournalBytes reference = checkpoint_journal();
  for (const std::string& bad : kBadHex) {
    SCOPED_TRACE(bad);
    JournalBytes header = reference;
    header.header = with_field(header.header, 1, bad);
    write_file(path, header.whole());
    const std::string error =
        rejection([&] { (void)read_checkpoint_journal(path); });
    EXPECT_TRUE(contains(error, path + " at byte 0: grid hash")) << error;

    JournalBytes record = reference;
    record.records[1] = with_field(record.records[1], 2, bad);
    write_file(path, record.whole());
    const std::string record_error =
        rejection([&] { (void)read_checkpoint_journal(path); });
    EXPECT_TRUE(contains(record_error,
                         path + " at byte " +
                             std::to_string(reference.offset_of(1)) +
                             ": record cell seed"))
        << record_error;
  }
}

TEST(CodecHexGrammar, SupervisorJournalRejectsBadHex) {
  const auto dir = test_dir("supervisor_hex");
  const auto path = (dir / "bad.journal").string();
  const JournalBytes reference = supervisor_journal();
  for (const std::string& bad : kBadHex) {
    SCOPED_TRACE(bad);
    JournalBytes header = reference;
    header.header = with_field(header.header, 2, bad);
    write_file(path, header.whole());
    const std::string error =
        rejection([&] { (void)read_supervisor_journal(path); });
    EXPECT_TRUE(contains(error, path + " at byte 0: master seed")) << error;

    JournalBytes record = reference;
    record.records[1] = with_field(record.records[1], 4, bad);
    write_file(path, record.whole());
    const std::string record_error =
        rejection([&] { (void)read_supervisor_journal(path); });
    EXPECT_TRUE(contains(record_error,
                         path + " at byte " +
                             std::to_string(reference.offset_of(1)) +
                             ": record checksum"))
        << record_error;
  }
}

TEST(CodecHexGrammar, HexU64RoundTripsThroughEveryReader) {
  const auto dir = test_dir("hex_round_trip");
  for (const std::uint64_t value : kRoundTrip) {
    SCOPED_TRACE(hex_u64(value));
    const auto spec = parse_grid_spec(spec_with_seed_stream(hex_u64(value)));
    EXPECT_EQ(spec.cells.at(0).seed_stream, value);

    ShardManifest manifest = sample_manifest();
    manifest.grid_hash = value;
    manifest.master_seed = value;
    manifest.cell_seeds = {value, value, value};
    EXPECT_TRUE(
        same_manifest(parse_manifest(manifest_text(manifest)), manifest));

    ShardManifest identity = checkpoint_identity();
    identity.grid_hash = value;
    identity.master_seed = value;
    const CheckpointJournal checkpoint = read_checkpoint_journal(write_file(
        dir / "checkpoint.journal",
        format_checkpoint_header(identity, kCsvHeader) +
            format_checkpoint_record(
                {.cell_index = 3, .cell_seed = value, .row = "r"})));
    EXPECT_EQ(checkpoint.grid_hash, value);
    EXPECT_EQ(checkpoint.master_seed, value);
    ASSERT_EQ(checkpoint.records.size(), 1u);
    EXPECT_EQ(checkpoint.records[0].cell_seed, value);

    SupervisorJournal supervisor = supervisor_identity();
    supervisor.grid_hash = value;
    supervisor.master_seed = value;
    const SupervisorJournal read = read_supervisor_journal(write_file(
        dir / "supervisor.journal", format_supervisor_header(supervisor)));
    EXPECT_EQ(read.grid_hash, value);
    EXPECT_EQ(read.master_seed, value);
  }
}

// ---- shard manifest fuzz ----

TEST(CodecManifestFuzz, TruncationAtEveryByteRejectsOrRoundTrips) {
  const ShardManifest reference = sample_manifest();
  const std::string whole = manifest_text(reference);
  for (std::size_t length = 0; length <= whole.size(); ++length) {
    SCOPED_TRACE("prefix length " + std::to_string(length));
    ShardManifest got;
    const std::string error =
        rejection([&] { got = parse_manifest(whole.substr(0, length)); });
    if (!error.empty()) {
      EXPECT_TRUE(contains(error, "shard manifest: line")) << error;
      continue;
    }
    // Only the whole object (trailing newline optional) may parse, and
    // then it must be the same manifest.
    EXPECT_GE(length, whole.size() - 1);
    EXPECT_TRUE(same_manifest(got, reference));
  }
}

TEST(CodecManifestFuzz, BitFlipsAtEveryByteRejectOrParse) {
  const std::string whole = manifest_text(sample_manifest());
  for (const unsigned char mask : {0x01, 0x20}) {
    for (std::size_t offset = 0; offset < whole.size(); ++offset) {
      SCOPED_TRACE("mask " + std::to_string(mask) + ", flip at byte " +
                   std::to_string(offset));
      std::string flipped = whole;
      flipped[offset] = static_cast<char>(flipped[offset] ^ mask);
      // A flip in a decimal field or a name may still parse: a manifest
      // carries no checksum, and the merge cross-checks it against its
      // CSV and its siblings. A rejection must carry a position.
      const std::string error =
          rejection([&] { (void)parse_manifest(flipped); });
      if (!error.empty()) {
        EXPECT_TRUE(contains(error, "shard manifest: line")) << error;
      }
    }
  }
}

TEST(CodecManifestFuzz, FieldMutationsNameTheField) {
  // The writer puts each member on its own line, `  "key": value`,
  // with a comma on all but the last.
  std::vector<std::string> lines;
  std::istringstream in(manifest_text(sample_manifest()));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  const auto join = [](const std::vector<std::string>& parts) {
    std::string out;
    for (const std::string& part : parts) out += part + "\n";
    return out;
  };
  const auto line_of = [&](const std::string& key) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].starts_with("  \"" + key + "\":")) return i;
    }
    ADD_FAILURE() << "no manifest line for " << key;
    return std::size_t{0};
  };
  const auto with_value = [&](const std::string& key,
                              const std::string& value) {
    auto mutated = lines;
    std::string& line = mutated[line_of(key)];
    const bool comma = line.ends_with(",");
    line = "  \"" + key + "\": " + value + (comma ? "," : "");
    return join(mutated);
  };
  const auto expect_named = [](const std::string& text,
                               const std::string& needle) {
    const std::string error = rejection([&] { (void)parse_manifest(text); });
    EXPECT_TRUE(contains(error, "shard manifest: line")) << error;
    EXPECT_TRUE(contains(error, needle))
        << "needle: " << needle << "\nerror: " << error;
  };

  for (const std::string key :
       {"format", "csv", "engine", "cd_engine", "grid_hash", "master_seed",
        "trials", "total_cells", "shard_index", "shard_count", "cell_begin",
        "cell_end", "cell_seeds"}) {
    SCOPED_TRACE(key);
    const std::size_t at = line_of(key);
    const bool last = !lines[at].ends_with(",");

    auto missing = lines;
    missing.erase(missing.begin() + static_cast<std::ptrdiff_t>(at));
    if (last) missing[at - 1].pop_back();  // the new last member's comma
    expect_named(join(missing), "missing manifest field \"" + key + "\"");

    auto duplicate = lines;
    duplicate.insert(duplicate.begin() + static_cast<std::ptrdiff_t>(at),
                     last ? lines[at] + "," : lines[at]);
    expect_named(join(duplicate), "duplicate manifest field \"" + key + "\"");

    auto renamed = lines;
    renamed[at].replace(3, key.size(), key + "_x");
    expect_named(join(renamed), "unknown manifest field \"" + key + "_x\"");
  }

  for (const std::string key : {"engine", "cd_engine", "csv"}) {
    expect_named(with_value(key, "5"), "field \"" + key + "\" must be a string");
  }
  // The CSV is opened next to the manifest, so its name must be a bare
  // file name: a 0x01 flip of '.' to '/' ("shard-1-of-3/csv"), an
  // absolute path, or a walk up the tree would each open some other
  // file.
  for (const std::string value :
       {R"("")", R"(".")", R"("..")", R"("shard-1-of-3/csv")",
        R"("/data/shard.csv")", R"("../shard.csv")", R"("sub/")",
        R"("shard\u0000.csv")"}) {
    SCOPED_TRACE("csv = " + value);
    expect_named(with_value("csv", value),
                 "field \"csv\" must be a bare file name");
  }
  for (const std::string key : {"trials", "total_cells", "shard_index",
                                "shard_count", "cell_begin", "cell_end"}) {
    for (const std::string value :
         {"nan", "inf", "-1", "1.5", "1e3", "\"5\"", "18446744073709551616"}) {
      SCOPED_TRACE(key + " = " + value);
      expect_named(with_value(key, value), "\"" + key + "\"");
    }
  }
  for (const std::string key : {"grid_hash", "master_seed"}) {
    for (const std::string& bad : kBadHex) {
      expect_named(with_value(key, "\"" + bad + "\""),
                   "field \"" + key + "\"");
    }
    expect_named(with_value(key, "12"),
                 "field \"" + key + "\" must be a string");
  }
  expect_named(with_value("cell_seeds", "\"0x1\""),
               "field \"cell_seeds\" must be an array");
  expect_named(with_value("cell_seeds", "[\"0x1\", 2]"),
               "field \"cell_seeds\"[1] must be a string");
  expect_named(with_value("format", "\"crp-shard-manifest-v2\""),
               "unsupported manifest format");
}

// ---- journal fuzz ----

TEST(CodecJournalGolden, HeaderBytesArePinned) {
  // Any drift in field order, separators, or the checksum inputs (the
  // cell range, or the worker count, hashes between total cells and the
  // engines) breaks resume of every journal already on disk.
  EXPECT_EQ(format_checkpoint_header(checkpoint_identity(), kCsvHeader),
            "crp-checkpoint-journal-v1 0xdeadbeefcafef00d 0xabcdef0123456789 "
            "600 9 3 6 batch history-tree 49 0x2608066f486b5fdb\n" +
                kCsvHeader + "\n.\n");
  EXPECT_EQ(format_supervisor_header(supervisor_identity()),
            "crp-supervisor-journal-v1 0xdeadbeefcafef00d 0x1122334455667788 "
            "600 8 3 batch simulate 0x42021d6f7f04dcf8\n");
}

TEST(CodecJournalFuzz, SupervisorTruncationAtEveryByte) {
  expect_truncation_discipline(supervisor_journal(), recover_supervisor,
                               test_dir("supervisor_truncate"));
}

TEST(CodecJournalFuzz, SupervisorBitFlipsAtEveryByte) {
  const auto dir = test_dir("supervisor_flip");
  expect_flip_discipline(supervisor_journal(), recover_supervisor, dir, 0x01);
  expect_flip_discipline(supervisor_journal(), recover_supervisor, dir, 0x20);
}

TEST(CodecJournalFuzz, CheckpointTruncationAtEveryByte) {
  expect_truncation_discipline(checkpoint_journal(), recover_checkpoint,
                               test_dir("checkpoint_truncate"));
}

TEST(CodecJournalFuzz, CheckpointBitFlipsAtEveryByte) {
  // fault_injection_test flips 0x01 over a journal the sweep wrote;
  // this adds the 0x20 flip that turns a lowercase hex digit into an
  // uppercase one.
  const auto dir = test_dir("checkpoint_flip");
  expect_flip_discipline(checkpoint_journal(), recover_checkpoint, dir, 0x01);
  expect_flip_discipline(checkpoint_journal(), recover_checkpoint, dir, 0x20);
}

TEST(CodecJournalFuzz, SupervisorFieldMutationsNameFieldAndOffset) {
  std::vector<JournalMutation> table;
  const auto add = [&](const std::vector<JournalMutation>& rows) {
    table.insert(table.end(), rows.begin(), rows.end());
  };
  // Header: magic, grid hash, master seed, trials, total cells,
  // workers, engine, cd engine, checksum.
  add(hex_rows(0, 1, "grid hash"));
  add(hex_rows(0, 2, "master seed"));
  add(uint_rows(0, 3, "trials"));
  add(uint_rows(0, 4, "total cell count"));
  add(uint_rows(0, 5, "worker count"));
  add(hex_rows(0, 8, "checksum"));
  table.push_back({0, 0, "crp-supervisor-journal-v2", "not a"});
  table.push_back({0, 9, "extra", "not a"});
  // Records 1 and 3 are bisections, 2 and 4 quarantines: tag, three
  // values, checksum.
  add(uint_rows(1, 1, "cell_begin"));
  add(uint_rows(1, 2, "mid"));
  add(uint_rows(1, 3, "cell_end"));
  add(hex_rows(1, 4, "record checksum"));
  add(uint_rows(2, 1, "cell index"));
  add(uint_rows(2, 2, "attempts"));
  add(uint_rows(2, 3, "reason length"));
  add(hex_rows(4, 4, "record checksum"));
  table.push_back({2, 0, "quarantined", "unknown record tag"});
  table.push_back({2, 5, "extra", "malformed quarantine record"});
  table.push_back({3, 5, "extra", "malformed bisect record"});
  expect_mutations_rejected(supervisor_journal(), recover_supervisor, table,
                            test_dir("supervisor_mutate"));
}

TEST(CodecJournalFuzz, CheckpointFieldMutationsNameFieldAndOffset) {
  std::vector<JournalMutation> table;
  const auto add = [&](const std::vector<JournalMutation>& rows) {
    table.insert(table.end(), rows.begin(), rows.end());
  };
  // Header: magic, grid hash, master seed, trials, total cells,
  // cell_begin, cell_end, engine, cd engine, header length, checksum.
  add(hex_rows(0, 1, "grid hash"));
  add(hex_rows(0, 2, "master seed"));
  add(uint_rows(0, 3, "trials"));
  add(uint_rows(0, 4, "total cell count"));
  add(uint_rows(0, 5, "cell_begin"));
  add(uint_rows(0, 6, "cell_end"));
  add(uint_rows(0, 9, "header length"));
  add(hex_rows(0, 10, "checksum"));
  table.push_back({0, 0, "crp-checkpoint-journal-v2", "not a"});
  // Record: tag, cell index, cell seed, length, checksum.
  add(uint_rows(2, 1, "record cell index"));
  add(hex_rows(2, 2, "record cell seed"));
  add(uint_rows(2, 3, "record length"));
  add(hex_rows(2, 4, "record checksum"));
  table.push_back({2, 0, "row", "malformed record header"});
  table.push_back({2, 5, "extra", "malformed record header"});
  expect_mutations_rejected(checkpoint_journal(), recover_checkpoint, table,
                            test_dir("checkpoint_mutate"));
}

}  // namespace
