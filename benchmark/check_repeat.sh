#!/usr/bin/env bash
# Runs the full set twice on the same tree and fails, naming the metric,
# unless every end-to-end median of the two sets agrees within that
# metric's own bound, every ‡ count is identical and no operation failed.
# Prints median and quartiles per side.
#
#   benchmark/check_repeat.sh [--seed N] [--seconds S]
#
# One side is, per workload, three untraced runs (seeds N .. N+2) and one
# traced run. The two sides take turns run by run, so a slow phase of the
# host falls on both; with the defaults the check takes about 17 minutes.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --check-repeat "$@"
