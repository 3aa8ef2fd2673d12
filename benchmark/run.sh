#!/usr/bin/env bash
# The repo's benchmark: builds the harness (offline, from the committed
# lock file) and runs it. All arguments go to the harness:
#
#   benchmark/run.sh                       every workload, untraced then traced
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --list
#
# Build output goes to standard error, so the last line of standard output
# is always the harness's result line.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
if [ ! -f Cargo.toml ]; then
    echo "error: benchmark/ builds against the repository around it; there is none here" >&2
    exit 1
fi

# The harness must measure the build users get: its release profile has to
# mirror the repository's (today neither manifest has one).
release_profile() {
    awk '/^\[/ { on = ($0 == "[profile.release]") } on' "$1"
}
if [ "$(release_profile Cargo.toml)" != "$(release_profile benchmark/Cargo.toml)" ]; then
    echo "error: [profile.release] differs between Cargo.toml and benchmark/Cargo.toml" >&2
    exit 1
fi

# Relative target directories are relative to the repository root, where
# both cargo and the lookup below run.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --locked --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

# One malloc arena. With glibc's per-thread arenas a new thread inherits
# whichever recycled arena is free, and the threaded server's peak RSS
# flips between 64 and 81 MB on identical work; with one arena it repeats
# within 1 %. No timed loop has two threads allocating at once, so the
# arena lock costs nothing here.
export MALLOC_ARENA_MAX=1

exec "$target/release/bgpsim-benchmark" "$@"
