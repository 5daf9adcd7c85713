"""Seeded generator of the fanout workload's crp-grid-spec-v1 grid.

The grid is a function of the workload seed alone: the same seed gives
the same bytes. Its shape is fixed so that run cost stays comparable
across seeds:

  n = 4096, so |L(n)| = 12 geometric ranges
  4 predict-family sources: uniform_ranges, geometric_ranges,
      zipf_ranges, spiked_uniform
  8 algorithms: likelihood (no-CD) and coded (CD) per source
  32 size sources: 8 lifts (low/high placement per source),
      8 support tables of 22 sizes, 16 fixed_k
  2 budgets

The seed decides which participant counts of a fixed pool go to which
support table or fixed_k size, and the tables' weights.

The cells are the product algorithms x sizes x budgets, 512 in all, in
the algorithm-major order of SweepGrid::cells().

Usage: python3 perfbench/gridgen.py SEED OUT.json
"""

import json
import math
import random
import sys

N = 4096
BUDGETS = [1024, 65536]
FIXED_K = 16
SUPPORT_TABLES = 8
SUPPORT_ENTRIES = 22


def k_pool():
    """The participant counts every grid uses, per octave of [2, N]."""
    pool_rng = random.Random(0)
    count = SUPPORT_TABLES * SUPPORT_ENTRIES + FIXED_K
    octaves = int(math.log2(N)) - 1  # [2^o, 2^(o+1)) for o = 1 .. 11
    return [pool_rng.randint(1 << o, (1 << (o + 1)) - 1)
            for o in (1 + j % octaves for j in range(count))]


def fanout_spec(seed):
    """The grid spec for `seed`, as an ordered dict."""
    rng = random.Random(seed)
    # The sources (and with them the coded policies and likelihood
    # schedules) are fixed; only the sizes below depend on the seed.
    sources = {
        "uni": {"family": "uniform_ranges", "m": 4},
        "geo": {"family": "geometric_ranges", "decay": 0.6},
        "zipf": {"family": "zipf_ranges", "s": 1.0},
        "spike": {"family": "spiked_uniform", "spike_mass": 0.5},
    }
    algorithms = {}
    for src in sources:
        algorithms[f"lik-{src}"] = {"type": "likelihood", "source": src}
        algorithms[f"cod-{src}"] = {"type": "coded", "source": src}

    sizes = {}
    for src in sources:
        for placement in ("low", "high"):
            sizes[f"{src}-{placement}"] = {"type": "lift", "source": src,
                                           "placement": placement}
    # Participant counts: one fixed pool, drawn per octave of [2, N] so
    # every octave is covered alike. The seed deals the pool out to the
    # support tables and the fixed_k sizes and draws the weights; the
    # set of (policy, k) keys, which sets the history-tree cost, is the
    # same for every seed.
    ks = k_pool()
    rng.shuffle(ks)
    for j in range(SUPPORT_TABLES):
        entries = [[k, rng.randint(1, 9) / 10]
                   for k in ks[j * SUPPORT_ENTRIES:(j + 1) * SUPPORT_ENTRIES]]
        sizes[f"tab{j}"] = {"type": "support", "entries": entries}
    for i, k in enumerate(ks[SUPPORT_TABLES * SUPPORT_ENTRIES:]):
        sizes[f"k{i}"] = {"type": "fixed_k", "k": k}

    return {
        "format": "crp-grid-spec-v1",
        "name": f"fanout-seed{seed}",
        "n": N,
        "sources": sources,
        "algorithms": algorithms,
        "sizes": sizes,
        "product": {"algorithms": list(algorithms), "sizes": list(sizes),
                    "budgets": BUDGETS},
    }


def cell_count():
    """Cells every generated grid has."""
    return 8 * (8 + SUPPORT_TABLES + FIXED_K) * len(BUDGETS)


def spec_bytes(seed):
    return (json.dumps(fanout_spec(seed), indent=1) + "\n").encode()


def write_spec(seed, path):
    with open(path, "wb") as out:
        out.write(spec_bytes(seed))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: gridgen.py SEED OUT.json")
    write_spec(int(sys.argv[1]), sys.argv[2])
