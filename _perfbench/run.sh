#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the checkout. Everything the build leaves behind goes
# under .bench_build/, so the run touches nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomodcache" \
  GOPATH="$PWD/$out/gopath" XDG_CONFIG_HOME="$PWD/$out/config" \
  GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C _perfbench -o "../$out/perfbench" .
exec "$out/perfbench" "$@"
