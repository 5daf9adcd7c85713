#!/usr/bin/env bash
# run_tidy.sh — the clang-tidy leg of the static-analysis wall.
#
# Runs the checked-in .clang-tidy check set over every first-party
# translation unit in the compile database, with warnings promoted to
# errors, and rejects bare NOLINTs (every suppression must carry a
# trailing reason comment — same policy as crp_lint's allow pragma).
#
# Usage: tools/run_tidy.sh [BUILD_DIR] [--no-werror] [-- FILE...]
#   BUILD_DIR    build tree with compile_commands.json (default: build;
#                configured automatically if missing —
#                CMAKE_EXPORT_COMPILE_COMMANDS is a cache default)
#   --no-werror  report findings without failing (local triage)
#   -- FILE...   restrict to specific source files
#
# CI runs this in the `lint` job. Locally you need clang-tidy >= 14 on
# PATH (any `clang-tidy-N` spelling is found automatically).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="build"
werror=1
explicit_files=()

while [ $# -gt 0 ]; do
  case "$1" in
    --no-werror) werror=0 ;;
    --)
      shift
      explicit_files=("$@")
      break
      ;;
    -*)
      echo "run_tidy.sh: unknown flag $1" >&2
      exit 2
      ;;
    *) build_dir="$1" ;;
  esac
  shift
done

# Locate clang-tidy: plain name first, then versioned spellings,
# newest first.
tidy=""
for candidate in clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17 \
                 clang-tidy-16 clang-tidy-15 clang-tidy-14; do
  if command -v "$candidate" > /dev/null 2>&1; then
    tidy="$candidate"
    break
  fi
done
if [ -z "$tidy" ]; then
  echo "run_tidy.sh: no clang-tidy on PATH (need >= 14; apt-get install" \
       "clang-tidy)" >&2
  exit 2
fi

cd "$repo_root"

if [ ! -f "$build_dir/compile_commands.json" ]; then
  echo "run_tidy.sh: no $build_dir/compile_commands.json; configuring" >&2
  cmake -B "$build_dir" -S . > /dev/null
fi
if [ ! -f "$build_dir/compile_commands.json" ]; then
  echo "run_tidy.sh: configure produced no compile database" >&2
  exit 2
fi

# Suppression policy: a NOLINT must name its check and carry a reason
# after `--` (mirrors crp_lint's allow pragma). Bare NOLINTs would
# silently widen forever.
bare_nolint=$(grep -rnE 'NOLINT(NEXTLINE)?(\(([^)]*)\))?' \
                   --include='*.cpp' --include='*.h' \
                   src tools bench examples repro \
              | grep -vE 'NOLINT(NEXTLINE)?\([a-z0-9.-]+(,[a-z0-9.-]+)*\).*-- ' \
              || true)
if [ -n "$bare_nolint" ]; then
  echo "run_tidy.sh: NOLINT without a named check + '-- reason':" >&2
  echo "$bare_nolint" >&2
  exit 1
fi

# First-party TUs only: the compile database also holds test binaries
# (gtest macros expand into noise) — the wall covers the library,
# tools, benches, reproductions and examples.
mapfile -t files < <(python3 - "$build_dir/compile_commands.json" <<'EOF'
import json
import sys

for entry in json.load(open(sys.argv[1])):
    path = entry["file"]
    if any(f"/{part}/" in path for part in ("src", "tools", "bench",
                                            "examples", "repro")):
        print(path)
EOF
)
if [ "${#explicit_files[@]}" -gt 0 ]; then
  files=("${explicit_files[@]}")
fi
if [ "${#files[@]}" -eq 0 ]; then
  echo "run_tidy.sh: no first-party files in the compile database" >&2
  exit 2
fi

args=(-p "$build_dir" --quiet)
if [ "$werror" -eq 1 ]; then
  args+=(--warnings-as-errors='*')
fi

echo "run_tidy.sh: $tidy over ${#files[@]} file(s) (werror=$werror)"
status=0
for file in "${files[@]}"; do
  "$tidy" "${args[@]}" "$file" || status=1
done
if [ "$status" -ne 0 ]; then
  echo "run_tidy.sh: findings above — fix them or NOLINT(check) with a" \
       "reason" >&2
fi
exit "$status"
