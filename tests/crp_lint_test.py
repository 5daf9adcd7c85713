#!/usr/bin/env python3
"""Self-test for tools/crp_lint.py (registered as ctest `crp_lint_test`).

Three gates:

1. **Fixture exactness** — running the linter over tests/lint_fixtures
   (a miniature repo tree of deliberate violations) must produce
   *exactly* the findings annotated in the fixtures themselves
   (`// expect-lint: <rule-id>...` trailing markers, or
   `// expect-next-line-lint:` when the violating line's comment slot
   is taken by a pragma under test).  Exact set equality means every
   negative control — `expected_time(` not tripping `time(`, lookups
   not tripping the fold rule, a well-formed allow() pragma
   suppressing, channel/rng.h alone naming std::mt19937_64 — is
   asserted too, and a new rule cannot land without fixture coverage.

2. **Pragma policy** — an allow() without a reason, naming an unknown
   rule, or malformed is reported under `lint-pragma` AND the
   underlying violation still fires (both are in the fixture
   expectations).

3. **Live tree cleanliness** — the linter's default scan of the real
   repo (src/, tools/, bench/, examples/, repro/, perfbench/,
   CMakeLists.txt) exits 0.

Usage: crp_lint_test.py [REPO_ROOT]
"""

import re
import subprocess
import sys
from pathlib import Path

EXPECT_RE = re.compile(r"(?://|#)\s*expect-lint:\s*([A-Za-z0-9 -]+?)\s*$")
EXPECT_NEXT_RE = re.compile(
    r"(?://|#)\s*expect-next-line-lint:\s*([A-Za-z0-9 -]+?)\s*$")
FINDING_RE = re.compile(r"^(.*?):(\d+): ([A-Za-z0-9-]+): ")

failures = []


def check(condition, label):
    print(("PASS" if condition else "FAIL") + f": {label}")
    if not condition:
        failures.append(label)


def expected_findings(fixture_root: Path):
    expected = set()
    for path in sorted(fixture_root.rglob("*")):
        if not path.is_file() or path.suffix not in {
                ".cpp", ".h", ".hpp", ".cc", ".txt", ".cmake"}:
            continue
        rel = path.relative_to(fixture_root).as_posix()
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            match = EXPECT_RE.search(line)
            if match:
                for rule in match.group(1).split():
                    expected.add((rel, lineno, rule))
            match = EXPECT_NEXT_RE.search(line)
            if match:
                for rule in match.group(1).split():
                    expected.add((rel, lineno + 1, rule))
    return expected


def run_lint(repo: Path, *args):
    return subprocess.run(
        [sys.executable, str(repo / "tools" / "crp_lint.py"), *args],
        capture_output=True, text=True)


def parse_findings(stdout: str):
    found = set()
    for line in stdout.splitlines():
        match = FINDING_RE.match(line)
        if match:
            found.add((match.group(1), int(match.group(2)), match.group(3)))
    return found


def main():
    repo = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else \
        Path(__file__).resolve().parent.parent
    fixture_root = repo / "tests" / "lint_fixtures"

    # Gate 1+2: the fixture tree, exactly.
    expected = expected_findings(fixture_root)
    check(len(expected) >= 20, f"fixtures annotate >= 20 findings "
                               f"(got {len(expected)})")
    result = run_lint(repo, "--root", str(fixture_root))
    check(result.returncode == 1,
          f"linter exits 1 on the violation fixtures "
          f"(got {result.returncode})")
    found = parse_findings(result.stdout)
    missing = expected - found
    surplus = found - expected
    check(not missing, f"every annotated violation fires (missing: "
                       f"{sorted(missing)})")
    check(not surplus, f"no unannotated findings — negative controls "
                       f"hold (surplus: {sorted(surplus)})")

    # det-one-rng's exemption is one file wide: the fixture's
    # channel/rng.h names std::mt19937_64 and stays clean, while the
    # engine's names fire everywhere else in the fixture tree.
    exempt = fixture_root / "src" / "channel" / "rng.h"
    check("std::mt19937_64" in exempt.read_text(encoding="utf-8")
          and not any(path == "src/channel/rng.h" for (path, _, _) in found),
          "det-one-rng exempts src/channel/rng.h, which names the engine")
    check(sum(rule == "det-one-rng" for (_, _, rule) in expected) >= 9,
          "det-one-rng fires on every banned engine name in the fixtures")

    # test-only-module reads includers from the whole root, so linting
    # one header alone still sees who includes it.
    alone = run_lint(repo, "--root", str(fixture_root), "src/core/orphan.h")
    check(parse_findings(alone.stdout)
          == {("src/core/orphan.h", 4, "test-only-module")},
          "test-only-module fires on the orphan header linted alone")
    reached = run_lint(repo, "--root", str(fixture_root), "src/core/shipped.h")
    check(reached.returncode == 0,
          "test-only-module accepts a header only examples/ includes, "
          "linted alone")

    # exit-taxonomy reads switches too: the exit fixture's numeric case
    # label fires, and the named-constant label beside it does not.
    exit_rel = "tools/crp_shard_bad_exit.cpp"
    exit_lines = (fixture_root / exit_rel).read_text(
        encoding="utf-8").splitlines()
    case_labels = sorted(
        exit_lines[line - 1].strip().split(":")[0]
        for (path, line, rule) in found
        if path == exit_rel and rule == "exit-taxonomy"
        and exit_lines[line - 1].lstrip().startswith("case "))
    check(case_labels == ["case 3"],
          f"exit-taxonomy fires on the numeric case label alone "
          f"(got {case_labels})")

    # Every shipped rule must have fixture coverage, so a rule cannot
    # rot into never-firing without this test noticing.
    listed = run_lint(repo, "--list-rules")
    check(listed.returncode == 0, "--list-rules exits 0")
    rule_ids = {line.split()[0] for line in listed.stdout.splitlines()
                if line and not line.startswith(" ")}
    fired = {rule for (_, _, rule) in expected if rule != "lint-pragma"}
    check(rule_ids == fired,
          f"every catalogued rule fires in the fixtures "
          f"(catalogue {sorted(rule_ids)} vs fired {sorted(fired)})")
    check(any(rule == "lint-pragma" for (_, _, rule) in expected),
          "the pragma policy (reasonless/unknown/malformed allow) is "
          "covered")

    # Gate 3: the live tree is clean under the default scan.
    live = run_lint(repo)
    check(live.returncode == 0,
          f"live tree lints clean (exit {live.returncode}):\n"
          + live.stdout)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
