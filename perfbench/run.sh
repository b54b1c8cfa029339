#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload unixbench-failstop --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under $CARGO_TARGET_DIR, default .bench_build at the checkout
# root. The Go toolchain is used offline: no module or toolchain download
# is ever attempted.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off

rev=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null; then
	rev="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi

go build -C "$root/perfbench" -buildvcs=false -ldflags "-X main.commit=$rev" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
