#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload sim-chrome --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh ab -base ../parent -head . -workload sim-chrome
#
# Every build product and output stays under .bench_build/ in the checkout
# (or $CARGO_TARGET_DIR when set): the Go build cache, the binary, and the
# traced runs' span and profile dumps.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

# Fall back to the Go toolchain's default install location.
if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="/usr/local/go/bin:$PATH"
fi

# Keep the toolchain's caches and settings inside the checkout, offline.
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off

bin="$out/perfbench"
(cd "$root/perfbench" && go build -o "$bin" .) >&2
cd "$root"
PERFBENCH_OUT="$out/runs" exec "$bin" "$@"
