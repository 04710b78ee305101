#!/usr/bin/env bash
# Builds the serve daemon and the benchmark program from the checkout's
# source, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload tc-read --seed 1 --seconds 50 --trace 0
#
# Every build product, cache and temporary file stays under
# .bench_build/ in the checkout.  A checkout without the program's
# source fails the build, and the script exits non-zero before any
# result is printed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/serve" ]; then
	echo "perfbench: $root holds no program source to build" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root" && go build -o "$out/serve" ./cmd/serve)
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Flush the freshly written binaries now, not during the measurement,
# where their writeback would slow the durable workload's fsyncs.
sync
exec "$out/perfbench" -root "$root" -serve "$out/serve" "$@"
