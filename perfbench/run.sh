#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload edt-offload --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady --runs 5 --seconds 10
#
# Run it from the root of the checkout. The build, the Go build cache and the
# span files all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
if [ "${1:-}" = steady ]; then
	shift
	exec "$out/perfbench" steady -spans-dir "$out" "$@"
fi
exec "$out/perfbench" -spans-dir "$out" "$@"
