#!/usr/bin/env bash
# One command for the whole benchmark: builds the shipped `cocad` and the
# benchmark binary (release, offline), then runs it.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--trace [0|1]] [--smoke]
#                    [--save FILE]
#   benchmark/run.sh compare A.json B.json
#
# Everything it writes lands under benchmark/out/ (or the cargo target dir
# the caller chose through CARGO_TARGET_DIR).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$here/out"
mkdir -p "$out"

# A relative CARGO_TARGET_DIR means "relative to where I was called from";
# cargo is run from two directories below, so pin it down first.
target="${CARGO_TARGET_DIR:-$out/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build chatter goes to stderr: stdout carries only metric and result lines.
cargo build --release --offline --manifest-path "$root/Cargo.toml" \
    -p coca-daemon --bin cocad >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/benchmark"

if [ "${1:-}" = compare ]; then
    shift
    exec "$bin" compare --bench "$root/BENCHMARK.json" "$@"
fi

# Hermetic: in a git checkout, the benchmark may change nothing outside
# benchmark/ and BENCHMARK.json. Compare the tree before and after the run.
tree() {
    git -C "$root" status --porcelain -- . ':!benchmark' ':!BENCHMARK.json' 2>/dev/null || true
}
before="$(tree)"

status=0
"$bin" run --bench "$root/BENCHMARK.json" --cocad "$target/release/cocad" \
    --out "$out" --clk-tck "$(getconf CLK_TCK 2>/dev/null || echo 100)" "$@" || status=$?

if [ "$(tree)" != "$before" ]; then
    echo "benchmark: the working tree changed outside benchmark/:" >&2
    diff <(echo "$before") <(tree) >&2 || true
    exit 1
fi
exit "$status"
