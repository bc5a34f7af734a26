#!/usr/bin/env sh
# prodcover.sh — measure which code the production loads run. It builds
# a coverage-instrumented xnuma (-cover -coverpkg=./...), drives it
# through the bench's four loads and every CLI subcommand, and prints
# each function the merged profile shows at 0.0%: code that no
# production run executes, including branches a call graph cannot rule
# out. It is a measurement, not a gate: it always exits 0 once the runs
# succeed, whatever it finds.
#
#   scripts/prodcover.sh              # measure this checkout
#   scripts/prodcover.sh <checkout>   # measure another checkout of the module
#
# Everything it writes goes to a fresh temp dir, which it leaves in
# place and names at the end: the merged text profile there opens with
# `go tool cover -html=<profile>` from the measured checkout. Nothing
# is written inside the checkout.
set -eu
script_dir="$(cd "$(dirname "$0")" && pwd)"
checkout="$(cd "${1:-$script_dir/..}" && pwd)"
cd "$checkout"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/prodcover.XXXXXX")"
bin="$tmp/xnuma"
mkdir -p "$tmp/covdata"
GOCOVERDIR="$tmp/covdata"
export GOCOVERDIR

go build -cover -coverpkg=./... -o "$bin" ./cmd/xnuma

# run invokes the instrumented CLI with its output discarded: only the
# coverage counters it leaves in GOCOVERDIR matter.
run() { "$bin" "$@" >/dev/null; }

echo "prodcover: running the loads (about a minute on two CPUs)" >&2
run -scale 256 all
run -scale 256 sweep -apps all
run -scale 32 sweep -apps wc,belief,bfs,sssp,pagerank
run list
run policies
run topo
run -scale 256 run swaptions round-4k
run -scale 256 -md fig8
run -scale 256 sweep -bind wc
run -scale 256 sweep -seeds 3 wc
run -scale 256 advise all
# Two serve sessions on one cache dir: the first computes and saves the
# cache on EOF, the second restores it (a warm start) and replays.
requests='{"id":"1","op":"sweep","apps":["wc","cg.C"]}
{"id":"2","op":"advise","app":"wc"}
{"id":"3","op":"policies"}
{"id":"4","op":"stats"}
{"id":"5","op":"health"}'
for session in cold warm; do
	printf '%s\n' "$requests" | "$bin" -scale 256 serve -cache-dir "$tmp/cache" >/dev/null 2>"$tmp/serve-$session.log"
done

profile="$tmp/cover.out"
go tool covdata textfmt -i="$GOCOVERDIR" -o "$profile"
go tool cover -func="$profile" | awk '$NF == "0.0%"'
echo "profile: $profile (go tool cover -html=$profile)"
