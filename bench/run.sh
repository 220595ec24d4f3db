#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the QRIO daemon and the
# benchmark driver into .bench_build/ at the root of the checkout (outside
# every timed region; a warm build is a cache hit), then hands over to the
# driver. Everything Go writes — build cache, temp files — stays inside the
# checkout. In a directory without the QRIO sources the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root" && go build -o "$build/bin/qrio" ./cmd/qrio) >&2
(cd "$here" && go build -o "$build/bin/qrio-bench" .) >&2
exec "$build/bin/qrio-bench" -qrio "$build/bin/qrio" -work "$build" -bench-dir "$here" "$@"
