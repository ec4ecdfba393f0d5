#!/usr/bin/env bash
# Builds the benchmark and qmfleetd from the checkout this script sits in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload closed-encoder --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write (Go build cache, binaries,
# generated inputs, checkpoint state) lands in .bench_build/ at the root
# of the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
work="$root/.bench_build"
mkdir -p "$work/home" "$work/tmp"

# Keep the toolchain's caches and config inside the checkout, and keep it
# offline: the module has no dependencies to fetch.
export HOME="$work/home"
export XDG_CONFIG_HOME="$work/home/.config"
export XDG_CACHE_HOME="$work/home/.cache"
export GOCACHE="$work/gocache"
export GOPATH="$work/gopath"
export GOTMPDIR="$work/tmp"
export TMPDIR="$work/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

# With telemetry on, every go command may start a detached upload process
# that outlives this script. "go telemetry off" itself starts none.
go telemetry off
(cd "$root" && go build -o "$work/qmfleetd" ./cmd/qmfleetd)
(cd "$root/perfbench" && go build -o "$work/perfbench" .)
exec "$work/perfbench" -work "$work" -qmfleetd "$work/qmfleetd" "$@"
