#!/usr/bin/env bash
# Builds perfbench from the source tree and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload cold_fuse --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# Go's own state files stay under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a HumMer source tree" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
