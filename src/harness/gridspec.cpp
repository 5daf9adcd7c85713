#include "harness/gridspec.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

#include "channel/unit_interval.h"
#include "core/coded_search.h"
#include "core/likelihood_schedule.h"
#include "harness/checkpoint.h"
#include "harness/csv.h"
#include "harness/strict_json.h"
#include "predict/families.h"

namespace crp::harness {

namespace {

// ---- schema layer ----

constexpr const char* kSpecFormat = "crp-grid-spec-v1";

/// The spec schema sits on the shared strict reader; every error
/// starts "grid spec: line L, column C".
constexpr StrictJson kSpec("grid spec");

/// The parse-time state: n, the named condensed sources, and the named
/// algorithm/size-source bindings the cells reference.
struct SpecContext {
  std::size_t n = 0;
  std::size_t ranges = 0;
  std::map<std::string, info::CondensedDistribution> sources;
  std::map<std::string, SweepAlgorithm> algorithms;
  std::map<std::string, SweepSizes> sizes;
};

info::CondensedDistribution parse_source(const Json& body,
                                         const std::string& key,
                                         const SpecContext& ctx) {
  const std::string what = "source \"" + key + "\"";
  kSpec.expect_kind(body, Json::Kind::kObject, what);
  const std::string family = kSpec.get_string(
      kSpec.require(body, "family", what), "field \"family\" of " + what);
  const auto uint_field = [&](const char* name) {
    return kSpec.get_uint(kSpec.require(body, name, what),
                          "field \"" + std::string(name) + "\" of " + what);
  };
  const auto finite_field = [&](const char* name) {
    return kSpec.get_finite(kSpec.require(body, name, what),
                            "field \"" + std::string(name) + "\" of " + what);
  };
  if (family == "uniform_ranges") {
    kSpec.reject_unknown(body, {"family", "m"}, what);
    const std::uint64_t m = uint_field("m");
    if (m < 1 || m > ctx.ranges) {
      kSpec.fail_at(kSpec.require(body, "m", what),
                    "field \"m\" of " + what + " must lie in [1, " +
                        std::to_string(ctx.ranges) +
                        "] (|L(n)| ranges for n = " + std::to_string(ctx.n) +
                        ")");
    }
    return predict::uniform_over_ranges(ctx.ranges, m);
  }
  if (family == "geometric_ranges") {
    kSpec.reject_unknown(body, {"family", "decay"}, what);
    const double decay = finite_field("decay");
    if (decay <= 0.0 || decay > 1.0) {
      kSpec.fail_at(kSpec.require(body, "decay", what),
                    "field \"decay\" of " + what + " must lie in (0, 1]");
    }
    return predict::geometric_ranges(ctx.ranges, decay);
  }
  if (family == "zipf_ranges") {
    kSpec.reject_unknown(body, {"family", "s"}, what);
    const double s = finite_field("s");
    if (s < 0.0) {
      kSpec.fail_at(kSpec.require(body, "s", what),
                    "field \"s\" of " + what + " must be >= 0");
    }
    return predict::zipf_ranges(ctx.ranges, s);
  }
  if (family == "bimodal_ranges") {
    kSpec.reject_unknown(body, {"family", "range_a", "range_b", "eps"}, what);
    const std::uint64_t a = uint_field("range_a");
    const std::uint64_t b = uint_field("range_b");
    if (a < 1 || a > ctx.ranges || b < 1 || b > ctx.ranges) {
      kSpec.fail_at(body, "fields \"range_a\"/\"range_b\" of " + what +
                              " must lie in [1, " + std::to_string(ctx.ranges) +
                              "]");
    }
    const double eps = finite_field("eps");
    if (!channel::in_unit_interval(eps)) {
      kSpec.fail_at(kSpec.require(body, "eps", what),
                    "field \"eps\" of " + what + " must lie in [0, 1]");
    }
    return predict::bimodal_ranges(ctx.ranges, a, b, eps);
  }
  if (family == "spiked_uniform") {
    kSpec.reject_unknown(body, {"family", "spike_mass"}, what);
    if (ctx.ranges < 2) {
      kSpec.fail_at(body, what + ": family \"spiked_uniform\" needs >= 2 "
                                "ranges (n >= 5)");
    }
    const double mass = finite_field("spike_mass");
    if (mass <= 0.0 || mass >= 1.0) {
      kSpec.fail_at(kSpec.require(body, "spike_mass", what),
                    "field \"spike_mass\" of " + what + " must lie in (0, 1)");
    }
    return predict::spiked_uniform(ctx.ranges, mass);
  }
  kSpec.fail_at(kSpec.require(body, "family", what),
                "field \"family\" of " + what + " names no known family \"" +
                    family +
                    "\" (known: uniform_ranges, geometric_ranges, zipf_ranges, "
                    "bimodal_ranges, spiked_uniform)");
}

/// A reference to a binding the spec declared by name; `kind` names
/// the binding ("source", "algorithm", "sizes") in the error.
template <typename Bindings>
const typename Bindings::mapped_type& resolve(const Bindings& bindings,
                                              const Json& ref,
                                              const std::string& desc,
                                              const char* kind) {
  const std::string name = kSpec.get_string(ref, desc);
  const auto it = bindings.find(name);
  if (it == bindings.end()) {
    kSpec.fail_at(ref, desc + " references undefined " + kind + " \"" +
                           name + "\"");
  }
  return it->second;
}

void parse_algorithm(const Json& body, const std::string& key,
                     SpecContext& ctx, GridSpec& spec) {
  const std::string what = "algorithm \"" + key + "\"";
  kSpec.expect_kind(body, Json::Kind::kObject, what);
  const std::string type = kSpec.get_string(
      kSpec.require(body, "type", what), "field \"type\" of " + what);
  std::string display = key;
  if (const Json* name = StrictJson::find(body, "name")) {
    display = kSpec.get_string(*name, "field \"name\" of " + what);
  }
  SweepAlgorithm algorithm{.name = display};
  if (type == "likelihood") {
    kSpec.reject_unknown(body, {"type", "name", "source", "cycle"}, what);
    const auto& source =
        resolve(ctx.sources, kSpec.require(body, "source", what),
                "field \"source\" of " + what, "source");
    core::CycleMode cycle = core::CycleMode::kRepeatPass;
    if (const Json* mode = StrictJson::find(body, "cycle")) {
      const std::string text =
          kSpec.get_string(*mode, "field \"cycle\" of " + what);
      if (text == "repeat") {
        cycle = core::CycleMode::kRepeatPass;
      } else if (text == "proportional") {
        cycle = core::CycleMode::kProportional;
      } else {
        kSpec.fail_at(*mode, "field \"cycle\" of " + what +
                                 " must be \"repeat\" or \"proportional\", "
                                 "got \"" + text + "\"");
      }
    }
    spec.schedules.push_back(
        std::make_unique<core::LikelihoodOrderedSchedule>(source, cycle));
    algorithm.schedule = spec.schedules.back().get();
  } else if (type == "coded") {
    kSpec.reject_unknown(body, {"type", "name", "source", "backend"}, what);
    const auto& source =
        resolve(ctx.sources, kSpec.require(body, "source", what),
                "field \"source\" of " + what, "source");
    core::CodeBackend backend = core::CodeBackend::kHuffman;
    if (const Json* mode = StrictJson::find(body, "backend")) {
      const std::string text =
          kSpec.get_string(*mode, "field \"backend\" of " + what);
      if (text == "huffman") {
        backend = core::CodeBackend::kHuffman;
      } else if (text == "shannon-fano") {
        backend = core::CodeBackend::kShannonFano;
      } else {
        kSpec.fail_at(*mode, "field \"backend\" of " + what +
                                 " must be \"huffman\" or \"shannon-fano\", "
                                 "got \"" + text + "\"");
      }
    }
    spec.policies.push_back(
        std::make_unique<core::CodedSearchPolicy>(source, backend));
    algorithm.policy = spec.policies.back().get();
  } else {
    kSpec.fail_at(kSpec.require(body, "type", what),
                  "field \"type\" of " + what + " names no known type \"" +
                      type + "\" (known: likelihood, coded)");
  }
  ctx.algorithms.emplace(key, std::move(algorithm));
}

void parse_sizes(const Json& body, const std::string& key,
                 const GridSpecOptions& options, SpecContext& ctx,
                 GridSpec& spec) {
  const std::string what = "sizes \"" + key + "\"";
  kSpec.expect_kind(body, Json::Kind::kObject, what);
  const std::string type = kSpec.get_string(
      kSpec.require(body, "type", what), "field \"type\" of " + what);
  std::string display = key;
  if (const Json* name = StrictJson::find(body, "name")) {
    display = kSpec.get_string(*name, "field \"name\" of " + what);
  }
  SweepSizes sizes{.name = display};
  if (type == "lift") {
    kSpec.reject_unknown(body, {"type", "name", "source", "placement"}, what);
    const auto& source =
        resolve(ctx.sources, kSpec.require(body, "source", what),
                "field \"source\" of " + what, "source");
    const Json& placement_field = kSpec.require(body, "placement", what);
    const std::string placement_text =
        kSpec.get_string(placement_field, "field \"placement\" of " + what);
    predict::RangePlacement placement;
    if (placement_text == "low") {
      placement = predict::RangePlacement::kLowEndpoint;
    } else if (placement_text == "high") {
      placement = predict::RangePlacement::kHighEndpoint;
    } else if (placement_text == "uniform") {
      placement = predict::RangePlacement::kUniform;
    } else {
      kSpec.fail_at(placement_field,
                    "field \"placement\" of " + what +
                        " must be \"low\", \"high\", or \"uniform\", got \"" +
                        placement_text + "\"");
    }
    spec.distributions.push_back(std::make_unique<info::SizeDistribution>(
        predict::lift(source, ctx.n, placement)));
    sizes.distribution = spec.distributions.back().get();
  } else if (type == "support") {
    kSpec.reject_unknown(body, {"type", "name", "entries"}, what);
    const Json& entries = kSpec.require(body, "entries", what);
    kSpec.expect_kind(entries, Json::Kind::kArray,
                      "field \"entries\" of " + what);
    if (entries.items.empty()) {
      kSpec.fail_at(entries, "field \"entries\" of " + what + " must be a "
                             "non-empty array of [size, probability] pairs");
    }
    SupportTableBuilder builder(ctx.n);
    for (std::size_t i = 0; i < entries.items.size(); ++i) {
      const Json& entry = entries.items[i];
      const std::string entry_desc =
          "field \"entries\"[" + std::to_string(i) + "] of " + what;
      kSpec.expect_kind(entry, Json::Kind::kArray, entry_desc);
      if (entry.items.size() != 2) {
        kSpec.fail_at(entry,
                      entry_desc + " must be a [size, probability] pair");
      }
      const double size =
          kSpec.get_finite(entry.items[0], entry_desc + " size");
      const double prob =
          kSpec.get_finite(entry.items[1], entry_desc + " probability");
      // The shared validator (harness/csv.h): the same rules the
      // distribution-CSV reader applies, so inline tables and CSV
      // references cannot drift.
      builder.add(size, prob,
                  kSpec.where(entry) + ": " + entry_desc);
    }
    spec.distributions.push_back(std::make_unique<info::SizeDistribution>(
        builder.build(kSpec.where(entries) + ": field \"entries\" of " +
                      what)));
    sizes.distribution = spec.distributions.back().get();
  } else if (type == "csv") {
    kSpec.reject_unknown(body, {"type", "name", "path"}, what);
    const Json& path_field = kSpec.require(body, "path", what);
    const std::string raw_path =
        kSpec.get_string(path_field, "field \"path\" of " + what);
    if (raw_path.empty()) {
      kSpec.fail_at(path_field, "field \"path\" of " + what + " must be "
                                "non-empty");
    }
    std::filesystem::path resolved(raw_path);
    if (resolved.is_relative() && !options.base_dir.empty()) {
      resolved = std::filesystem::path(options.base_dir) / resolved;
    }
    std::ifstream in(resolved);
    if (!in) {
      throw IoError("cannot open size-distribution CSV \"" +
                    resolved.string() + "\" (field \"path\" of " + what +
                    ", " + kSpec.where(path_field) + ")");
    }
    try {
      spec.distributions.push_back(std::make_unique<info::SizeDistribution>(
          read_size_distribution_csv(in, ctx.n)));
    } catch (const std::invalid_argument& error) {
      throw std::invalid_argument("grid spec: " + what + " CSV \"" +
                                  resolved.string() + "\": " + error.what());
    }
    sizes.distribution = spec.distributions.back().get();
  } else if (type == "fixed_k") {
    kSpec.reject_unknown(body, {"type", "name", "k"}, what);
    const Json& k_field = kSpec.require(body, "k", what);
    const std::uint64_t k = kSpec.get_uint(k_field, "field \"k\" of " + what);
    if (k < 2) {
      kSpec.fail_at(k_field,
                    "field \"k\" of " + what +
                        " must be >= 2 (the paper assumes k >= 2 WLOG)");
    }
    sizes.fixed_k = static_cast<std::size_t>(k);
  } else {
    kSpec.fail_at(kSpec.require(body, "type", what),
                  "field \"type\" of " + what + " names no known type \"" +
                      type + "\" (known: lift, support, csv, fixed_k)");
  }
  ctx.sizes.emplace(key, std::move(sizes));
}

std::size_t parse_budget(const Json& value, const std::string& desc) {
  const std::uint64_t budget = kSpec.get_uint(value, desc);
  if (budget == 0) kSpec.fail_at(value, desc + " must be >= 1");
  return static_cast<std::size_t>(budget);
}

SweepCell parse_cell(const Json& body, std::size_t index,
                     const SpecContext& ctx) {
  const std::string what = "cell [" + std::to_string(index) + "]";
  kSpec.expect_kind(body, Json::Kind::kObject, what);
  kSpec.reject_unknown(body, {"algorithm", "sizes", "budget", "trials",
                              "seed_stream"},
                       what);
  SweepCell cell;
  cell.algorithm =
      resolve(ctx.algorithms, kSpec.require(body, "algorithm", what),
              "field \"algorithm\" of " + what, "algorithm");
  cell.sizes = resolve(ctx.sizes, kSpec.require(body, "sizes", what),
                       "field \"sizes\" of " + what, "sizes");
  cell.max_rounds = parse_budget(kSpec.require(body, "budget", what),
                                 "field \"budget\" of " + what);
  if (const Json* trials = StrictJson::find(body, "trials")) {
    const std::uint64_t value =
        kSpec.get_uint(*trials, "field \"trials\" of " + what);
    if (value == 0) {
      kSpec.fail_at(*trials,
                    "field \"trials\" of " + what +
                        " must be >= 1 (0 would silently mean \"use the "
                        "sweep default\" — omit the field instead)");
    }
    cell.trials = static_cast<std::size_t>(value);
  }
  if (const Json* stream = StrictJson::find(body, "seed_stream")) {
    const std::string desc = "field \"seed_stream\" of " + what;
    const std::uint64_t value = kSpec.get_hex_u64(*stream, desc);
    try {
      cell.seed_stream = pinned_seed_stream(value);
    } catch (const std::invalid_argument&) {
      kSpec.fail_at(*stream,
                    desc + ": 0xffffffffffffffff is reserved as the "
                           "derive-from-grid-index sentinel "
                           "(kSeedStreamFromIndex) — omit the field for "
                           "index-derived seeds");
    }
  }
  return cell;
}

}  // namespace

GridSpec parse_grid_spec(std::string_view text,
                         const GridSpecOptions& options) {
  const Json root = kSpec.parse(text);
  kSpec.reject_unknown(root,
                       {"format", "name", "n", "sources", "algorithms", "sizes",
                        "cells", "product"},
                       "the spec");

  const Json& format = kSpec.require(root, "format", "the spec");
  const std::string format_text = kSpec.get_string(format, "field \"format\"");
  if (format_text != kSpecFormat) {
    kSpec.fail_at(format, "unsupported spec format \"" + format_text +
                              "\" (expected \"" + kSpecFormat + "\")");
  }

  GridSpec spec;
  if (const Json* name = StrictJson::find(root, "name")) {
    spec.name = kSpec.get_string(*name, "field \"name\"");
  }

  SpecContext ctx;
  const Json& n_field = kSpec.require(root, "n", "the spec");
  const std::uint64_t n = kSpec.get_uint(n_field, "field \"n\"");
  if (n < 4) {
    kSpec.fail_at(n_field, "field \"n\" must be >= 4 (a network of at least "
                           "two geometric ranges)");
  }
  ctx.n = static_cast<std::size_t>(n);
  ctx.ranges = info::num_ranges(ctx.n);
  spec.n = ctx.n;

  if (const Json* sources = StrictJson::find(root, "sources")) {
    kSpec.expect_kind(*sources, Json::Kind::kObject, "field \"sources\"");
    for (const JsonMember& member : sources->members) {
      ctx.sources.emplace(member.key,
                          parse_source(member.value, member.key, ctx));
    }
  }
  if (const Json* algorithms = StrictJson::find(root, "algorithms")) {
    kSpec.expect_kind(*algorithms, Json::Kind::kObject, "field \"algorithms\"");
    for (const JsonMember& member : algorithms->members) {
      parse_algorithm(member.value, member.key, ctx, spec);
    }
  }
  if (const Json* sizes = StrictJson::find(root, "sizes")) {
    kSpec.expect_kind(*sizes, Json::Kind::kObject, "field \"sizes\"");
    for (const JsonMember& member : sizes->members) {
      parse_sizes(member.value, member.key, options, ctx, spec);
    }
  }

  if (const Json* cells = StrictJson::find(root, "cells")) {
    kSpec.expect_kind(*cells, Json::Kind::kArray, "field \"cells\"");
    for (std::size_t i = 0; i < cells->items.size(); ++i) {
      spec.cells.push_back(parse_cell(cells->items[i], i, ctx));
    }
  }

  if (const Json* product = StrictJson::find(root, "product")) {
    const std::string what = "the \"product\" block";
    kSpec.expect_kind(*product, Json::Kind::kObject, what);
    kSpec.reject_unknown(*product, {"algorithms", "sizes", "budgets"}, what);
    const auto ref_list = [&](const char* key) -> const Json& {
      const Json& list = kSpec.require(*product, key, what);
      kSpec.expect_kind(list, Json::Kind::kArray,
                        "field \"" + std::string(key) + "\" of " + what);
      if (list.items.empty()) {
        kSpec.fail_at(list, "field \"" + std::string(key) + "\" of " + what +
                                " must be non-empty");
      }
      return list;
    };
    const Json& algorithms = ref_list("algorithms");
    const Json& sizes = ref_list("sizes");
    const Json& budgets = ref_list("budgets");
    // The documented cross order: algorithm-major, then sizes, then
    // budget. Cell indices pick the seeds, so it never changes.
    for (const Json& a : algorithms.items) {
      const SweepAlgorithm& algorithm = resolve(
          ctx.algorithms, a, "field \"algorithms\" of " + what, "algorithm");
      for (const Json& s : sizes.items) {
        const SweepSizes& size_source =
            resolve(ctx.sizes, s, "field \"sizes\" of " + what, "sizes");
        for (const Json& b : budgets.items) {
          SweepCell cell;
          cell.algorithm = algorithm;
          cell.sizes = size_source;
          cell.max_rounds =
              parse_budget(b, "field \"budgets\" of " + what);
          spec.cells.push_back(std::move(cell));
        }
      }
    }
  }

  if (spec.cells.empty()) {
    kSpec.fail_at(root, "the spec defines no cells — declare a \"cells\" "
                        "array and/or a \"product\" block");
  }
  return spec;
}

GridSpec read_grid_spec_file(const std::string& path) {
  const std::string text = read_whole_file(path, "grid spec");
  GridSpecOptions options;
  options.base_dir = std::filesystem::path(path).parent_path().string();
  try {
    return parse_grid_spec(text, options);
  } catch (const std::invalid_argument& error) {
    // Validation errors name the file as well as the field — a fleet
    // scheduler's logs point straight at the offending artifact.
    throw std::invalid_argument(path + ": " + error.what());
  }
}

}  // namespace crp::harness
