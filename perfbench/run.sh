#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build artefact (the Go build cache,
# the binary) and every run artefact (the knemd store, trace files) stays
# under .bench_build/ in the checkout. The perfbench module resolves the
# repository module through a relative replace, so the build fails — and
# the script exits non-zero without a result — in a directory holding only
# the benchmark's own files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

# The go command writes telemetry counters under the user config directory
# and defaults its caches under the home directory: point all of them into
# the checkout.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"

go -C "$root/perfbench" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
