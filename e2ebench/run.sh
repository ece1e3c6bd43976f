#!/usr/bin/env bash
# Builds e2ebench from this checkout's source and runs it with the given
# arguments. Every build and run artifact stays under the checkout's
# .bench_build (or $CARGO_TARGET_DIR when set): the Go build cache, the
# binary, exact-repeat records and span dumps. Run from the repository root:
#
#   bash e2ebench/run.sh --workload serve-n256 --seed 3 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "e2ebench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off GOWORK=off GOTOOLCHAIN=local

(cd "$root/e2ebench" && go build -trimpath -o "$out/e2ebench" .)
exec "$out/e2ebench" --out "$out/e2ebench-out" "$@"
