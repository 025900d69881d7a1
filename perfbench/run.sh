#!/usr/bin/env bash
# Build the ledger from source and run it; all arguments pass through:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a checkout of the repository (dune-project or lib/ missing)" >&2
  exit 2
fi
# the shared dune cache lives outside the checkout: keep it off
DUNE_CACHE=disabled dune build --root . ./perfbench/ledger.exe 1>&2
exec ./_build/default/perfbench/ledger.exe "$@"
