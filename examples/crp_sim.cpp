// crp_sim: command-line contention-resolution simulator.
//
// Runs any of the library's algorithms against a configurable size
// distribution and prints summary statistics (optionally as CSV). This
// is the "downstream user" entry point: plug in your own learned
// distribution as a CSV file and compare algorithms without writing
// C++.
//
// Usage:
//   crp_sim [--n N] [--dist SPEC] [--algo SPEC] [--trials T]
//           [--seed S] [--max-rounds R] [--csv]
//           [--threads T] [--engine E]
//
//   --dist  uniform              uniform over sizes {2..n}   (default)
//           point:K              all mass on size K
//           zipf:S               Pr(k) ~ 1/k^S
//           lognormal:MU,SIGMA   log-normal around e^MU
//           file:PATH            "size,probability" CSV
//   --algo  decay                Bar-Yehuda decay        (no CD)
//           willard              Willard's search        (CD)
//           fixed:K              transmit w.p. 1/K       (no CD)
//           likelihood           Sec 2.5, prediction = the true dist
//           likelihood-prop      Sec 2.5 with proportional cycling
//           coded                Sec 2.6, prediction = the true dist
//   (default: run ALL algorithms and print a comparison table)
//   --threads  worker threads (0 = all hardware threads, default;
//              1 = serial). Results are identical at any thread count.
//   --engine   no-CD simulation engine: batch (analytic fast path,
//              default) | binomial | per-player. Engines agree up to
//              Monte-Carlo noise; see src/channel/batch.h.
//
// The comparison runs as one sweep-scheduler grid (harness/sweep.h)
// with a pinned seed stream per algorithm, so at a fixed --seed the
// "--algo X" row equals the X row of "--algo all" exactly.
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "baselines/decay.h"
#include "baselines/simple.h"
#include "baselines/willard.h"
#include "core/coded_search.h"
#include "core/likelihood_schedule.h"
#include "harness/csv.h"
#include "harness/measure.h"
#include "harness/sweep.h"
#include "harness/table.h"
#include "info/distribution.h"
#include "predict/families.h"

namespace {

struct Options {
  std::size_t n = 1 << 12;
  std::string dist = "uniform";
  std::string algo = "all";
  std::size_t trials = 5000;
  std::uint64_t seed = 1;
  std::size_t max_rounds = 1 << 16;
  bool csv = false;
  std::size_t threads = 0;
  std::string engine = "batch";
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "crp_sim: " << message << "\n"
            << "try: crp_sim --n 4096 --dist lognormal:5.3,0.6 "
               "--algo likelihood --trials 10000\n";
  std::exit(2);
}

/// Strict non-negative integer, the reader crp_shard's flags use:
/// std::stoull would read "10abc" as 10 and wrap "-1" to 2^64 - 1.
std::uint64_t parse_count(const std::string& value, const std::string& what) {
  const auto parsed = crp::harness::parse_csv_unsigned(value);
  if (!parsed) {
    usage_error("expected a non-negative integer for " + what + ", got \"" +
                value + "\"");
  }
  return *parsed;
}

/// Strict finite real: the whole field must parse, and nan/inf are
/// rejected.
double parse_real(const std::string& value, const std::string& what) {
  const auto parsed = crp::harness::parse_csv_finite(value);
  if (!parsed) {
    usage_error("expected a finite number for " + what + ", got \"" + value +
                "\"");
  }
  return *parsed;
}

Options parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--n") {
      options.n = parse_count(next(), arg);
    } else if (arg == "--dist") {
      options.dist = next();
    } else if (arg == "--algo") {
      options.algo = next();
    } else if (arg == "--trials") {
      options.trials = parse_count(next(), arg);
    } else if (arg == "--seed") {
      options.seed = parse_count(next(), arg);
    } else if (arg == "--max-rounds") {
      options.max_rounds = parse_count(next(), arg);
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--threads") {
      options.threads = parse_count(next(), arg);
    } else if (arg == "--engine") {
      options.engine = next();
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "see the header comment of examples/crp_sim.cpp\n";
      std::exit(0);
    } else {
      usage_error("unknown argument " + arg);
    }
  }
  if (options.n < 2) usage_error("--n must be >= 2");
  return options;
}

/// Splits "name:args" into (name, args).
std::pair<std::string, std::string> split_spec(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) return {spec, ""};
  return {spec.substr(0, colon), spec.substr(colon + 1)};
}

crp::info::SizeDistribution make_distribution(const Options& options) {
  const auto [name, args] = split_spec(options.dist);
  // The builders reject out-of-range parameters (a point outside
  // [2, n], sigma <= 0, an unreadable file) with invalid_argument.
  try {
    if (name == "uniform") {
      return crp::info::SizeDistribution::uniform(options.n);
    }
    if (name == "point") {
      return crp::info::SizeDistribution::point_mass(
          options.n, parse_count(args, "point:K"));
    }
    if (name == "zipf") {
      return crp::predict::zipf_sizes(options.n, parse_real(args, "zipf:S"));
    }
    if (name == "lognormal") {
      const auto comma = args.find(',');
      if (comma == std::string::npos) {
        usage_error("lognormal needs MU,SIGMA");
      }
      return crp::predict::log_normal_sizes(
          options.n, parse_real(args.substr(0, comma), "lognormal:MU"),
          parse_real(args.substr(comma + 1), "lognormal:SIGMA"));
    }
    if (name == "file") {
      return crp::harness::read_size_distribution_csv_file(args, options.n);
    }
  } catch (const std::invalid_argument& error) {
    usage_error("--dist " + options.dist + ": " + error.what());
  }
  usage_error("unknown distribution " + name);
}

struct AlgoResult {
  std::string name;
  std::string channel;
  crp::harness::Measurement measurement;
};

crp::harness::NoCdEngine parse_engine(const Options& options) {
  if (options.engine == "batch") return crp::harness::NoCdEngine::kBatch;
  if (options.engine == "binomial") {
    return crp::harness::NoCdEngine::kBinomial;
  }
  if (options.engine == "per-player") {
    return crp::harness::NoCdEngine::kPerPlayer;
  }
  usage_error("unknown engine " + options.engine);
}

std::vector<AlgoResult> run_algorithms(const Options& options,
                                       const crp::info::SizeDistribution&
                                           actual) {
  const auto condensed = actual.condense();
  const auto want = [&](const std::string& name) {
    return options.algo == "all" || split_spec(options.algo).first == name;
  };

  // The algorithm registry: objects owned here, selected ones become
  // grid cells. seed_stream is the registry position, so "--algo X"
  // reproduces the exact X row of "--algo all" at the same seed.
  const crp::baselines::DecaySchedule decay(options.n);
  // Spec args configure only the algorithm they belong to (fixed:K);
  // any other algorithm's args are ignored, as before the sweep port.
  const auto [spec_name, spec_args] = split_spec(options.algo);
  const std::size_t k_hat =
      spec_name == "fixed" && !spec_args.empty()
          ? parse_count(spec_args, "fixed:K")
          : static_cast<std::size_t>(actual.mean());
  const auto fixed =
      crp::baselines::FixedProbabilitySchedule::for_size_estimate(
          std::max<std::size_t>(k_hat, 1));
  const crp::core::LikelihoodOrderedSchedule likelihood(condensed);
  const crp::core::LikelihoodOrderedSchedule likelihood_prop(
      condensed, crp::core::CycleMode::kProportional);
  const crp::baselines::WillardPolicy willard(options.n);
  const crp::core::CodedSearchPolicy coded(condensed);

  crp::harness::SweepGrid grid;
  std::vector<std::string> channels;
  std::uint64_t stream = 0;
  const auto add = [&](const std::string& spec_name, std::string row_name,
                       std::string channel,
                       const crp::channel::ProbabilitySchedule* schedule,
                       const crp::channel::CollisionPolicy* policy) {
    if (want(spec_name)) {
      grid.add_cell({.algorithm = {.name = std::move(row_name),
                                   .schedule = schedule,
                                   .policy = policy},
                     .sizes = {.name = options.dist,
                               .distribution = &actual},
                     .max_rounds = options.max_rounds,
                     .seed_stream = stream});
      channels.push_back(std::move(channel));
    }
    ++stream;
  };
  add("decay", "decay", "no CD", &decay, nullptr);
  add("fixed", "fixed 1/" + std::to_string(k_hat), "no CD", &fixed,
      nullptr);
  add("likelihood", "likelihood-ordered", "no CD", &likelihood, nullptr);
  add("likelihood-prop", "likelihood-proportional", "no CD",
      &likelihood_prop, nullptr);
  add("willard", "willard", "CD", nullptr, &willard);
  add("coded", "coded-search", "CD", nullptr, &coded);

  const auto cells = grid.cells();
  if (cells.empty()) {
    usage_error("unknown algorithm " + options.algo);
  }
  const auto sweep = crp::harness::run_sweep(
      cells, {.trials = options.trials,
              .seed = options.seed,
              .threads = options.threads,
              .engine = parse_engine(options)});

  std::vector<AlgoResult> results;
  results.reserve(sweep.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    results.push_back({sweep[i].cell.algorithm.name, channels[i],
                       sweep[i].measurement});
  }
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  const auto actual = make_distribution(options);
  const auto condensed = actual.condense();
  const auto results = run_algorithms(options, actual);

  if (options.csv) {
    auto header = crp::harness::CsvWriter::measurement_header();
    header.insert(header.begin(), {"algorithm", "channel"});
    crp::harness::CsvWriter writer(std::cout, header);
    for (const auto& result : results) {
      auto cells =
          crp::harness::CsvWriter::measurement_cells(result.measurement);
      cells.insert(cells.begin(), {result.name, result.channel});
      writer.row(cells);
    }
    return 0;
  }

  std::cout << actual.describe() << "\n"
            << "H(c(X)) = " << crp::harness::fmt(condensed.entropy(), 3)
            << " bits over " << condensed.size() << " geometric ranges; "
            << options.trials << " trials, seed " << options.seed
            << "\n\n";
  crp::harness::Table table({"algorithm", "channel", "mean", "ci95", "p50",
                             "p90", "p99", "solved"});
  for (const auto& result : results) {
    const auto& m = result.measurement;
    table.add_row({result.name, result.channel,
                   crp::harness::fmt(m.rounds.mean, 2),
                   crp::harness::fmt(m.rounds.ci95, 2),
                   crp::harness::fmt(m.rounds.p50, 1),
                   crp::harness::fmt(m.rounds.p90, 1),
                   crp::harness::fmt(m.rounds.p99, 1),
                   crp::harness::fmt(100.0 * m.success_rate, 1) + "%"});
  }
  table.print(std::cout);
  return 0;
}
