#!/usr/bin/env bash
# Builds hattbench from the sources of the checkout it is run from and
# runs it, passing every argument through:
#
#   bash hattbench/run.sh --workload lattice-search --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache and temporary files,
# the binary, the disk store and the trace files all live under
# .bench_build/ there.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go-tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" GOTMPDIR="$build/go-tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

# The revision measured: the git commit when there is one, else a digest
# of the Go sources.
if [ ! -e "$root/.git" ] || ! commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	commit="tree-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"
fi

(cd "$root/hattbench" && go build -o "$build/hattbench" .)
exec "$build/hattbench" --workdir "$build/run" --commit "$commit" "$@"
