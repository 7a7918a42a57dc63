#!/usr/bin/env bash
# Builds delayd and the benchmark harness from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload churn-tandem16 --seed 1 --seconds 30 --trace 0
#
# Everything the run builds or writes stays under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/delayd || ! -d internal ]]; then
	echo "perfbench: $root holds no delayd source tree to build" >&2
	exit 2
fi

work="$root/.bench_build"
mkdir -p "$work/bin"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=
export XDG_CONFIG_HOME="$work/config" XDG_CACHE_HOME="$work/cache"

go build -o "$work/bin/delayd" ./cmd/delayd >&2
(cd perfbench && go build -o "$work/bin/perfbench" .) >&2

exec "$work/bin/perfbench" -delayd "$work/bin/delayd" -work "$work" "$@"
