#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the Go toolchain and the benchmark write stays under
# benchmark/out/: the build cache and binary in build/, persistence files
# and span dumps beside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/out/build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOWORK=off

# The benchmark is its own module; it needs the repository around it.
(cd "$here" && go build -o "$build/pdftsp-benchmark" .)

cd "$root"
exec "$build/pdftsp-benchmark" -dir "$here/out" "$@"
