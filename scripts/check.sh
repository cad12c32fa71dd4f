#!/usr/bin/env bash
# Repo health check: lint (when available) + tests + benchmark smoke.
#
#   ./scripts/check.sh
#
# Runs, in order:
#   1. ruff check src/ tests/ scripts/   (skipped when ruff is not installed)
#   2. python -m pytest -x -q            (the tier-1 suite)
#   3. python -m scripts.bench_baseline --check   (every entry of its
#      span-timed stage table; parity and determinism gates enforced,
#      hardware-dependent speedup and overhead bounds recorded only)
#   4. python -m scripts.bench_report --check   (perf-trend regression gate)
#
# Exits non-zero on the first failure.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"
export PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}"

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests scripts
elif python -c "import ruff" >/dev/null 2>&1; then
    echo "== ruff check (module) =="
    python -m ruff check src tests scripts
else
    echo "== ruff not installed, lint skipped ==" >&2
fi

echo "== pytest =="
python -m pytest -x -q

echo "== bench_baseline --check =="
python -m scripts.bench_baseline --check

echo "== bench_report --check =="
python -m scripts.bench_report --check

echo "== all checks passed =="
