#!/usr/bin/env bash
# Builds ctdbd and the benchmark command from the tree this script sits
# in, then runs one benchmark workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload query_cold --seed 1 --seconds 12 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory (Go build cache included).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

go build -o "$out/bin/ctdbd" ./cmd/ctdbd
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)

if [[ -d "$root/.git" ]] && commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	export E2EBENCH_COMMIT="$commit"
fi

args=()
while (($#)); do
	case "$1" in
	--workload | --seed | --seconds | --trace)
		args+=("-${1#--}" "$2")
		shift 2
		;;
	*)
		echo "run.sh: unknown argument $1" >&2
		exit 2
		;;
	esac
done
exec "$out/bin/e2ebench" "${args[@]}" -ctdbd "$out/bin/ctdbd" -work "$out/run"
