#!/usr/bin/env python3
"""crp_lint: the repo-specific static rule engine for the determinism
and durability contracts.

The six-legged bit-determinism contract (docs/ARCHITECTURE.md) and the
crash-safe artifact discipline (harness/checkpoint.h) are behavioral
invariants: a single forgotten `std::random_device`, one range-for over
an `unordered_map` in a result fold, or a bare `std::ofstream` writing
a final artifact silently breaks reproducibility or durability until a
golden happens to catch it.  This linter encodes those invariants as
named rules over a light C++ scan (comments and string literals blanked
before matching, so prose never trips a rule), each with a stable rule
ID that docs/STATIC_ANALYSIS.md catalogues:

  det-no-wallclock-rng      no wall-clock/OS entropy outside channel/rng.h
  det-one-rng               no standard engine (std::mt19937_64, ...) beside
                            channel::Rng outside channel/rng.h
  det-no-unordered-iteration no iteration over unordered containers in
                            result paths (src/harness, src/channel)
  det-no-fp-contract        no per-TU fast-math / FP_CONTRACT overrides
  dur-atomic-artifacts      final artifacts go through atomic_write_file
                            or a CheckpointSink, never bare ofstream/fopen
  dur-fsync-append          append-mode journal writers must fsync
  exit-taxonomy             no magic exit codes or numeric case labels in
                            crp_shard/supervisor
  nan-range-check           no `x < 0 || x > 1` range checks, which NaN
                            passes: use channel::in_unit_interval
  test-only-module          no src/ header that only its own .cpp and
                            tests include

Suppression is explicit and audited: a finding is silenced only by

  // crp-lint: allow(<rule-id>) -- <reason>

on the offending line or alone on the line above it.  The reason is
mandatory; a pragma without one (or naming an unknown rule) is itself
reported under the meta rule `lint-pragma`.

Usage:
  crp_lint.py [--root DIR] [PATH...]   lint PATHs (relative to root;
                                       default: src tools bench
                                       CMakeLists.txt)
  crp_lint.py --list-rules             print the rule catalogue

Exit codes: 0 clean, 1 findings, 2 usage/internal error.  Findings are
printed one per line as `path:line: rule-id: message` so editors and CI
logs can jump to them.  tests/crp_lint_test.py drives this engine over
tests/lint_fixtures (a miniature repo tree of deliberate violations,
every rule asserted to fire exactly where annotated) and over the live
tree (must be clean); CI runs both via ctest and the lint job.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path, PurePosixPath

PRAGMA_RE = re.compile(
    r"//\s*crp-lint:\s*allow\(\s*([A-Za-z0-9-]+)\s*\)\s*(?:--\s*(.*\S))?\s*$"
)
# A pragma-ish comment that does not parse (wrong verb, missing parens):
# report it rather than silently not suppressing.
PRAGMA_ANYTHING_RE = re.compile(r"//\s*crp-lint:")

CXX_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}
CMAKE_NAMES = {"CMakeLists.txt"}
CMAKE_SUFFIXES = {".cmake"}


def blank_code(text: str) -> str:
    """Blanks comments, string literals, and char literals with spaces,
    preserving every newline, so rules match only real code tokens and
    line numbers survive.  Handles //, /* */, "..." with escapes,
    '...', and raw strings R"delim(...)delim"."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(c if c == "\n" else " " for c in text[i:j]))
            i = j
        elif ch == "R" and nxt == '"':
            close = text.find("(", i + 2)
            if close == -1:
                out.append(" ")
                i += 1
                continue
            delim = text[i + 2 : close]
            end = text.find(")" + delim + '"', close + 1)
            j = n if end == -1 else end + len(delim) + 2
            out.append("".join(c if c == "\n" else " " for c in text[i:j]))
            i = j
        elif ch == '"' or ch == "'":
            quote = ch
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(" " * (j - i))
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


class SourceFile:
    """One scanned file: raw lines for pragma handling, blanked lines
    for rule matching, and the repo-relative posix path for scoping."""

    def __init__(self, rel: str, text: str, includers=frozenset()):
        self.rel = rel
        # The shipped files that #include this one (include_index).
        self.includers = includers
        self.raw_lines = text.splitlines()
        self.code_lines = blank_code(text).splitlines()
        # Pad so raw/code always line up even on trailing-newline quirks.
        while len(self.code_lines) < len(self.raw_lines):
            self.code_lines.append("")

    @property
    def code(self) -> str:
        return "\n".join(self.code_lines)


# ---------------------------------------------------------------------------
# Rules.  Each rule is (id, contract, description, scope predicate,
# check function).  The check yields (line_number, message) pairs over a
# SourceFile; scoping keeps rules on the paths whose contract they
# guard, so e.g. tests may use ofstream freely.


def _in(rel: str, *prefixes: str) -> bool:
    p = PurePosixPath(rel)
    return any(str(p).startswith(prefix) for prefix in prefixes)


def _is_cxx(rel: str) -> bool:
    return PurePosixPath(rel).suffix in CXX_SUFFIXES


def _is_cmake(rel: str) -> bool:
    p = PurePosixPath(rel)
    return p.name in CMAKE_NAMES or p.suffix in CMAKE_SUFFIXES


WALLCLOCK_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*random_device\b|\brandom_device\b"),
     "std::random_device is OS entropy — derive streams from the master "
     "seed via channel/rng.h (derive_rng / derive_stream_seed)"),
    (re.compile(r"\bsrand\s*\(|(?<![\w:])rand\s*\("),
     "C rand()/srand() is neither seeded nor portable — use the "
     "channel/rng.h SplitMix64 streams"),
    (re.compile(r"(?<![\w:])time\s*\("),
     "time() is wall-clock state — results must be a function of the "
     "CLI seed only"),
    (re.compile(r"\bsystem_clock\b"),
     "std::chrono::system_clock is wall-clock state — use the injected "
     "Clock seam (harness/supervisor.h) or steady_clock for durations"),
]


def check_wallclock_rng(src: SourceFile):
    for lineno, line in enumerate(src.code_lines, 1):
        for pattern, why in WALLCLOCK_PATTERNS:
            if pattern.search(line):
                yield lineno, why
                break


# The standard's named engines and the three engine templates they are
# spelled with. The adaptors (discard_block_engine, ...) are left alone:
# they only wrap an engine, which must itself be named.
STD_ENGINE_RE = re.compile(
    r"\b(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine"
    r"|ranlux\w*|knuth_b|mersenne_twister_engine"
    r"|linear_congruential_engine|subtract_with_carry_engine)\b"
)


def check_one_rng(src: SourceFile):
    for lineno, line in enumerate(src.code_lines, 1):
        match = STD_ENGINE_RE.search(line)
        if match:
            yield (lineno,
                   f"standard engine '{match.group(0)}' — streams are "
                   "channel::Rng (output-identical to std::mt19937_64, "
                   "seeded lazily) from make_rng/derive_rng, or "
                   "SplitMix64 from derive_fast_rng; a second engine "
                   "forks the draw sequences the goldens pin")


UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<"
)
IDENT_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:;|=|\{|\()")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;)]*:[^;)]*)\)")
BEGIN_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*c?begin\s*\(")


def _unordered_names(src: SourceFile) -> set:
    """Identifiers declared (or member-declared) with an unordered
    container type anywhere in the file.  A heuristic — declaration and
    closing `>` may span lines — but tight enough for this codebase's
    idiom, and misses only cost a rule firing, never a false pass of
    the fixtures."""
    names = set()
    text = src.code
    for match in UNORDERED_DECL_RE.finditer(text):
        # Walk past the template argument list, then take the declared
        # identifier(s) before the statement ends.
        depth = 0
        i = match.end() - 1
        while i < len(text):
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            elif text[i] == ";":
                break
            i += 1
        tail = text[i + 1 : i + 200]
        stmt_end = tail.find(";")
        if stmt_end != -1:
            tail = tail[:stmt_end + 1]
        ident = IDENT_RE.search(tail)
        if ident:
            names.add(ident.group(1))
    return names


def check_unordered_iteration(src: SourceFile):
    names = _unordered_names(src)
    for lineno, line in enumerate(src.code_lines, 1):
        for match in RANGE_FOR_RE.finditer(line):
            ranged = match.group(1).split(":", 1)[1].strip()
            ranged = ranged.lstrip("*&( ").rstrip(") ")
            base = re.split(r"[.\->\s]", ranged, 1)[0]
            if base in names or UNORDERED_DECL_RE.search(ranged):
                yield (lineno,
                       f"range-for over unordered container '{base or ranged}'"
                       " — hash-table order is unspecified and varies by "
                       "libstdc++ version; iterate a sorted copy or an "
                       "index-ordered structure in result paths")
        for match in BEGIN_CALL_RE.finditer(line):
            if match.group(1) in names:
                yield (lineno,
                       f"iterator walk over unordered container "
                       f"'{match.group(1)}' — hash-table order is "
                       "unspecified; fold through a deterministic order")


FP_CONTRACT_PATTERNS = [
    (re.compile(r"-ffast-math|-funsafe-math-optimizations|-Ofast\b"),
     "fast-math re-associates and contracts FP — forbidden anywhere; the "
     "kernels' bit-equality leg assumes strict IEEE evaluation"),
    (re.compile(r"-ffp-contract\s*=\s*(?:fast|on)"),
     "per-TU fp-contract override — the project pins -ffp-contract=off "
     "globally (CMakeLists.txt); a fused TU rounds differently"),
    (re.compile(r"FP_CONTRACT\s+(?:ON|DEFAULT)|fp_contract\s*\(\s*on",
                re.IGNORECASE),
     "#pragma fp_contract override — contraction must stay off in every "
     "TU or scalar-vs-SIMD bit-equality breaks"),
]


def check_fp_contract(src: SourceFile):
    cmake = _is_cmake(src.rel)
    for lineno, line in enumerate(src.code_lines, 1):
        # CMake flags often sit inside quoted strings (which the C++
        # blanking erases), so match the raw line there — minus its
        # `#` comment, where prose may legitimately name a flag.
        haystack = (src.raw_lines[lineno - 1].split("#", 1)[0]
                    if cmake else line)
        for pattern, why in FP_CONTRACT_PATTERNS:
            if pattern.search(haystack):
                yield lineno, why
                break


ARTIFACT_SINK_RE = re.compile(
    r"\bstd\s*::\s*ofstream\b|(?<!\w)ofstream\b|\bfopen\s*\(|\bfreopen\s*\("
)


def check_atomic_artifacts(src: SourceFile):
    for lineno, line in enumerate(src.code_lines, 1):
        if ARTIFACT_SINK_RE.search(line):
            yield (lineno,
                   "bare stream/file write in an artifact path — final "
                   "artifacts must go through atomic_write_file (temp + "
                   "rename + fsync) or a CheckpointSink so a crash never "
                   "leaves a half-written file under a final name")


O_APPEND_RE = re.compile(r"\bO_APPEND\b")
APPEND_MODE_RE = re.compile(r"\bstd\s*::\s*ios(?:_base)?\s*::\s*app\b")
FSYNC_RE = re.compile(r"\bfsync\s*\(|\bfdatasync\s*\(|->\s*sync\s*\(|\.sync\s*\(")


def check_fsync_append(src: SourceFile):
    if FSYNC_RE.search(src.code):
        return
    for lineno, line in enumerate(src.code_lines, 1):
        if O_APPEND_RE.search(line) or APPEND_MODE_RE.search(line):
            yield (lineno,
                   "append-mode journal writer with no fsync anywhere in "
                   "this file — an append that is not durably flushed can "
                   "be lost on power failure after the process reported "
                   "the cell complete (checkpoint.h syncs every record)")


EXIT_LITERAL_RE = re.compile(
    r"(?<![\w.])_?(?:std\s*::\s*)?_?exit\s*\(\s*(\d+)\s*\)"
)
QUICK_EXIT_RE = re.compile(r"\bquick_exit\s*\(|\babort\s*\(\s*\)")
# A numeric case label: in these files a switch over an exit status
# reads the taxonomy, so it names the constants too.
CASE_LITERAL_RE = re.compile(r"\bcase\s+(-?\d+)\s*:")


def check_exit_taxonomy(src: SourceFile):
    for lineno, line in enumerate(src.code_lines, 1):
        match = EXIT_LITERAL_RE.search(line)
        if match:
            yield (lineno,
                   f"magic exit code {match.group(1)} — crp_shard/"
                   "supervisor exits are a scheduler-facing contract; use "
                   "the named kExit* taxonomy constants (0 ok, 1 internal, "
                   "2 usage, 3 validation, 4 I/O, 75 resumable)")
            continue
        if QUICK_EXIT_RE.search(line):
            yield (lineno,
                   "abort()/quick_exit() bypasses the exit taxonomy — "
                   "throw and let main map the error to an exit code")
            continue
        match = CASE_LITERAL_RE.search(line)
        if match:
            yield (lineno,
                   f"numeric case label {match.group(1)} — a switch over "
                   "exit statuses must name the kExit* taxonomy "
                   "constants (harness/supervisor.h), or the reader and "
                   "the writer of the code can drift apart")


# One operand (an identifier, member chain or subscript) tested below 0
# and above 1 in either order: `x < 0.0 || x > 1.0`. Both compares are
# false for NaN, so NaN passes the check. A line scanner cannot see
# types, so integer spellings of the same test are flagged as well.
_OPERAND = r"(?<![\w.>])([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*|\[[^\]]*\])*)"
_ZERO = r"0(?:\.0*)?(?![\w.])"
_ONE = r"1(?:\.0*)?(?![\w.])"
NAN_RANGE_RE = re.compile(
    _OPERAND + r"\s*<\s*" + _ZERO + r"\s*\|\|\s*\1\s*>\s*" + _ONE
    + "|" + _OPERAND + r"\s*>\s*" + _ONE
    + r"\s*\|\|\s*\2\s*<\s*" + _ZERO)


def check_nan_range(src: SourceFile):
    for lineno, line in enumerate(src.code_lines, 1):
        match = NAN_RANGE_RE.search(line)
        if match:
            operand = match.group(1) or match.group(2)
            yield (lineno,
                   f"range check '{operand} < 0 || {operand} > 1' lets NaN "
                   "through (both compares are false) — reject with "
                   f"!channel::in_unit_interval({operand}) "
                   "(channel/unit_interval.h)")


# Trees whose includes make a src/ header part of the program. tests/
# is not among them: a header only tests reach is library surface that
# nothing built from the repo runs.
SHIPPED_TREES = ["src", "repro", "tools", "examples", "bench", "perfbench"]
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def include_index(root: Path) -> dict:
    """Maps each file under root to the set of shipped files that
    #include it.  Built over the whole root, so linting one path still
    sees every includer.  Quoted includes resolve against src/ (the
    library's include root), then the includer's own directory."""
    index = {}
    for tree in SHIPPED_TREES:
        if not (root / tree).is_dir():
            continue
        for rel in iter_files(root, [tree]):
            text = (root / rel).read_text(encoding="utf-8", errors="replace")
            here = PurePosixPath(rel).parent
            for name in INCLUDE_RE.findall(text):
                for candidate in (PurePosixPath("src") / name, here / name):
                    if (root / candidate).is_file():
                        index.setdefault(str(candidate), set()).add(rel)
                        break
    return index


def check_test_only_module(src: SourceFile):
    own_source = str(PurePosixPath(src.rel).with_suffix(".cpp"))
    if src.includers - {own_source}:
        return
    # Report on the `#pragma once` line, where an allow pragma can sit.
    lineno = next((i for i, line in enumerate(src.code_lines, 1)
                   if re.match(r"\s*#\s*pragma\s+once\b", line)), 1)
    yield (lineno,
           "header reached only from tests and its own .cpp — nothing "
           f"in {', '.join(t + '/' for t in SHIPPED_TREES)} includes it; "
           "give it a caller that ships or delete the module with its "
           "tests")


class Rule:
    def __init__(self, rule_id, contract, description, in_scope, check):
        self.rule_id = rule_id
        self.contract = contract
        self.description = description
        self.in_scope = in_scope
        self.check = check


RULES = [
    Rule(
        "det-no-wallclock-rng",
        "determinism: seed-derived streams",
        "No std::random_device / time() / rand() / system_clock outside "
        "the channel/rng.h seams and the injected Clock.",
        lambda rel: _is_cxx(rel)
        and _in(rel, "src/", "tools/", "bench/", "examples/", "repro/")
        and rel != "src/channel/rng.h"
        # The production Clock implementation is the one sanctioned home
        # of real time; it is injected everywhere else.
        and rel != "src/harness/supervisor.cpp",
        check_wallclock_rng,
    ),
    Rule(
        "det-one-rng",
        "determinism: seed-derived streams",
        "No standard engine (std::mt19937_64, mt19937, minstd_rand, "
        "default_random_engine, ranlux*, knuth_b, or their engine "
        "templates) outside channel/rng.h — streams are channel::Rng "
        "or SplitMix64.",
        lambda rel: _is_cxx(rel)
        and _in(rel, "src/", "tools/", "bench/", "examples/", "repro/")
        and rel != "src/channel/rng.h",
        check_one_rng,
    ),
    Rule(
        "det-no-unordered-iteration",
        "determinism: fold order",
        "No range-for or iterator walks over unordered_map/unordered_set "
        "in the harness/channel result paths — hash order is unspecified.",
        lambda rel: _is_cxx(rel) and _in(rel, "src/harness/", "src/channel/"),
        check_unordered_iteration,
    ),
    Rule(
        "det-no-fp-contract",
        "determinism: ISA-independence",
        "No fast-math flags or FP_CONTRACT pragma overrides anywhere — "
        "the whole project compiles -ffp-contract=off.",
        lambda rel: _is_cxx(rel) and _in(rel, "src/", "bench/", "tools/",
                                         "examples/", "repro/")
        or _is_cmake(rel),
        check_fp_contract,
    ),
    Rule(
        "dur-atomic-artifacts",
        "durability: atomic final artifacts",
        "Final-artifact writes in harness/ and tools/ must go through "
        "atomic_write_file or a CheckpointSink, not bare ofstream/fopen.",
        lambda rel: _is_cxx(rel) and _in(rel, "src/harness/", "tools/"),
        check_atomic_artifacts,
    ),
    Rule(
        "dur-fsync-append",
        "durability: synced journal appends",
        "A file that opens journals in append mode must fsync its "
        "appends (or delegate to a CheckpointSink that does).",
        lambda rel: _is_cxx(rel) and _in(rel, "src/harness/", "tools/"),
        check_fsync_append,
    ),
    Rule(
        "exit-taxonomy",
        "operability: stable exit codes",
        "No raw exit(<literal>), abort() or numeric case label in the "
        "crp_shard/supervisor paths — exits and the switches that read "
        "them go through the documented taxonomy constants.",
        lambda rel: rel.startswith("tools/crp_shard")
        or _in(rel, "src/harness/supervisor", "src/harness/checkpoint",
               "src/harness/shard"),
        check_exit_taxonomy,
    ),
    Rule(
        "nan-range-check",
        "correctness: NaN-safe range checks",
        "No `x < 0 || x > 1` range checks — NaN passes them; reject "
        "with !channel::in_unit_interval(x), which is false for NaN.",
        lambda rel: _is_cxx(rel)
        and _in(rel, "src/", "tools/", "bench/", "examples/", "repro/"),
        check_nan_range,
    ),
    Rule(
        "test-only-module",
        "design: every module earns its place",
        "No src/ header that nothing includes except its own .cpp and "
        "tests/ — a module only tests reach backs no program, table or "
        "tool.",
        lambda rel: _in(rel, "src/") and PurePosixPath(rel).suffix == ".h",
        check_test_only_module,
    ),
]

RULE_IDS = {rule.rule_id for rule in RULES}


# ---------------------------------------------------------------------------
# Pragma handling


def collect_pragmas(src: SourceFile):
    """Returns (allows, pragma_findings): allows maps line -> set of
    rule IDs suppressed on that line; a pragma alone on its line covers
    the next non-blank line."""
    allows = {}
    findings = []
    lines = src.raw_lines
    for lineno, raw in enumerate(lines, 1):
        if not PRAGMA_ANYTHING_RE.search(raw):
            continue
        match = PRAGMA_RE.search(raw)
        if not match:
            findings.append(Finding(
                src.rel, lineno, "lint-pragma",
                "malformed crp-lint pragma — expected "
                "`// crp-lint: allow(<rule-id>) -- <reason>`"))
            continue
        rule_id, reason = match.group(1), match.group(2)
        if rule_id not in RULE_IDS:
            findings.append(Finding(
                src.rel, lineno, "lint-pragma",
                f"allow() names unknown rule '{rule_id}'"))
            continue
        if not reason:
            findings.append(Finding(
                src.rel, lineno, "lint-pragma",
                f"allow({rule_id}) without a reason — suppressions must "
                "say why (`-- <reason>`)"))
            continue
        target = lineno
        before = raw[: match.start()].strip()
        if not before:
            # Pragma-only line: it covers the next line of actual code,
            # skipping blanks and comment-only lines (the reason may
            # wrap onto continuation comments).
            nxt = lineno + 1
            while nxt <= len(lines):
                stripped = lines[nxt - 1].strip()
                if stripped and not stripped.startswith("//"):
                    break
                nxt += 1
            target = nxt
        allows.setdefault(target, set()).add(rule_id)
    return allows, findings


# ---------------------------------------------------------------------------
# Driver


def lint_file(root: Path, rel: str, index: dict) -> list:
    try:
        text = (root / rel).read_text(encoding="utf-8", errors="replace")
    except OSError as error:
        return [Finding(rel, 0, "lint-io", f"cannot read file: {error}")]
    src = SourceFile(rel, text, index.get(rel, frozenset()))
    allows, findings = collect_pragmas(src)
    for rule in RULES:
        if not rule.in_scope(rel):
            continue
        for lineno, message in rule.check(src):
            if rule.rule_id in allows.get(lineno, ()):
                continue
            findings.append(Finding(rel, lineno, rule.rule_id, message))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def iter_files(root: Path, rel_paths):
    seen = set()
    for rel in rel_paths:
        path = root / rel
        if path.is_file():
            candidates = [path]
        elif path.is_dir():
            candidates = sorted(p for p in path.rglob("*") if p.is_file())
        else:
            raise FileNotFoundError(f"no such path under root: {rel}")
        for p in candidates:
            rp = p.relative_to(root).as_posix()
            if rp in seen:
                continue
            if (PurePosixPath(rp).suffix in CXX_SUFFIXES
                    or _is_cmake(rp)):
                seen.add(rp)
                yield rp


DEFAULT_PATHS = ["src", "tools", "bench", "examples", "repro",
                 "perfbench", "CMakeLists.txt"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crp_lint.py",
        description="repo-specific determinism/durability rule engine")
    parser.add_argument("--root", type=Path, default=None,
                        help="repo root the rule scopes are relative to "
                             "(default: this script's repo)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("paths", nargs="*",
                        help="files or directories relative to --root "
                             f"(default: {' '.join(DEFAULT_PATHS)})")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id}  [{rule.contract}]")
            print(f"    {rule.description}")
        return 0

    root = (args.root or Path(__file__).resolve().parent.parent).resolve()
    rel_paths = args.paths or [p for p in DEFAULT_PATHS
                               if (root / p).exists()]
    findings = []
    try:
        index = include_index(root)
        for rel in iter_files(root, rel_paths):
            findings.extend(lint_file(root, rel, index))
    except FileNotFoundError as error:
        print(f"crp_lint: {error}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding)
    if findings:
        print(f"crp_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
