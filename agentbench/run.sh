#!/usr/bin/env bash
# Builds agentbench from this checkout's sources and runs one workload:
#
#   bash agentbench/run.sh --workload fwd-open --seed 1 --seconds 10 --trace 0
#   bash agentbench/run.sh --workload all --seed 1 --seconds 10   # every workload in turn
#
# Run it from the repository root. Build output and Go's caches stay in
# .bench_build/ under the root. Fails (without a result) when the
# repository's sources are not next to the benchmark.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/agentbench" .)

workload=""
args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workload="$2"; shift 2 ;;
	*) args+=("$1"); shift ;;
	esac
done

if [ "$workload" != all ]; then
	exec "$build/agentbench" --workload "$workload" "${args[@]}"
fi
status=0
for w in fwd-open fwd-burst rollback-repl; do
	"$build/agentbench" --workload "$w" "${args[@]}" || status=1
done
exit $status
