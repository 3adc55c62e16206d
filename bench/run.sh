#!/usr/bin/env bash
# Build the benchmark into .bench_build/ at the repository root and run it.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                   one run, as the driver starts it
#   bash bench/run.sh all    [seed]   every workload once, untraced, plus the micro pass
#   bash bench/run.sh trace  [seed]   every workload traced; spans to .bench_build/spans-*.jsonl
#   bash bench/run.sh repeat [k] [seeds]   k runs per seed of every workload, spread vs bounds
#   bash bench/run.sh baseline        rewrite bench/BASELINE.json (5 runs x seeds 1,2)
#   bash bench/run.sh check           go vet, gofmt and the bench's own tests (-short)
#
# Everything it writes stays inside the checkout: the Go build cache is
# .bench_build/gocache.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local
bin="$build/livenet-benchmark"

(cd "$here" && go build -o "$bin" .)
cd "$root"

case "${1:-}" in
all)
	exec "$bin" -workload all -seed "${2:-1}" -layers
	;;
trace)
	for w in trunk-relay edge-fanout live-lossy brain-serve sim-replay; do
		"$bin" -workload "$w" -seed "${2:-1}" -trace 1 -spans "$build/spans-$w.jsonl" | grep -v '^{'
	done
	;;
repeat)
	exec "$bin" -workload all -repeat "${2:-5}" -seed "${3:-1,2}"
	;;
baseline)
	exec "$bin" -workload all -repeat 5 -seed 1,2 -out "$here/BASELINE.json"
	;;
check)
	cd "$here"
	go vet ./...
	test -z "$(gofmt -l .)"
	exec go test -short -count=1 ./...
	;;
*)
	exec "$bin" "$@"
	;;
esac
