#!/usr/bin/env bash
# Builds perfbench from the sources in this checkout and runs it.
#
# Run from the repository root:
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, warm-start records and span
# dumps. The installed toolchain is used as is; nothing is downloaded.
set -euo pipefail

root=$PWD
if [[ ! -f $root/go.mod || ! -d $root/internal || ! -d $root/models || ! -f $root/perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root: go.mod, internal/, models/ or perfbench/ is missing" >&2
	exit 2
fi

out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config GOENV=off GOWORK=off CGO_ENABLED=0
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
