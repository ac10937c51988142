#!/usr/bin/env bash
# The benchmark's one command: build in release, then run.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]
#   benchmark/run.sh --noise-check N [--quick]
#   benchmark/run.sh --manifest > BENCHMARK.json
#
# Without --workload every workload runs in turn, each in a fresh
# process. The last line of standard output is the result as JSON; the
# exit code is non-zero if the build fails or any op fails its check.
# See README.md in this directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# A relative CARGO_TARGET_DIR is relative to wherever cargo is started;
# make it absolute once so cargo and this script name the same place.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/charles-benchmark" --out "$here/out" "$@"
