#!/usr/bin/env bash
# Paired A/B runs of perfbench: a parent revision against a change.
#
#   scripts/paired.sh PARENT_REV WORKLOAD SEED...
#
# Both revisions are exported with `git archive` under $PAIRED_DIR and
# each side's perfbench is built once. For every seed, both sides run
# the same workload and seed from their own working directories, and the
# side that runs first alternates from seed to seed. Metric names,
# directions and bounds come from BENCHMARK.json (`end_to_end`, or
# `per_layer` with TRACE=1); each run's last-line JSON is parsed with jq.
#
# Every run is `--seconds 40`. Writes the workload's entry into
# $BENCH_OUT (other workloads already in the file are kept) and prints the
# markdown table for BENCH.md.
#
# Environment:
#   PAIRED_DIR  scratch root for the exports, builds and run directories
#               (required; nothing else is written outside BENCH_OUT)
#   BENCH_OUT   result file, e.g. BENCH_prN.json (required)
#   CHANGE_REV  the change's revision (default HEAD)
#   TRACE       perfbench --trace, 0 or 1 (default 0)
#
# Needs git, cargo (offline), jq and awk.

set -euo pipefail

if [ "$#" -lt 3 ]; then
    echo "usage: $0 PARENT_REV WORKLOAD SEED..." >&2
    exit 2
fi
: "${PAIRED_DIR:?set PAIRED_DIR to a scratch directory}"
: "${BENCH_OUT:?set BENCH_OUT to the result file, e.g. BENCH_prN.json}"
mkdir -p "$PAIRED_DIR"
PAIRED_DIR=$(cd "$PAIRED_DIR" && pwd)
parent_rev=$1
workload=$2
shift 2
seeds=("$@")
change_rev=${CHANGE_REV:-HEAD}
out=$BENCH_OUT
seconds=40
trace=${TRACE:-0}
repo=$(git rev-parse --show-toplevel)
if [ "$trace" = 1 ]; then
    metric_set=per_layer
else
    metric_set=end_to_end
fi

# Export and build one side, reusing an earlier export of the same
# commit; prints the perfbench binary's path.
build_side() {
    local side=$1 rev
    rev=$(git -C "$repo" rev-parse "$2^{commit}")
    local src="$PAIRED_DIR/$side/src"
    if [ "$(cat "$PAIRED_DIR/$side/rev" 2>/dev/null)" != "$rev" ]; then
        rm -rf "$src"
        mkdir -p "$src"
        git -C "$repo" archive "$rev" | tar -x -C "$src"
        echo "$rev" >"$PAIRED_DIR/$side/rev"
    fi
    cargo build --release --quiet --offline --manifest-path "$src/perfbench/Cargo.toml" >&2
    echo "$src/perfbench/target/release/perfbench"
}

# One run, logged to $PAIRED_DIR/<side>/<workload>-<seed>-trace<t>.log;
# prints one JSON line for the run. The log's last line is perfbench's
# result JSON; the table rows rank_err_max, retained_items and
# state_bytes are added under "info", and each `gate ok   <name>: ...` or
# `gate FAIL <name>: ...` line under "gates" as name -> passed. A run
# that printed no result counts as incorrect, with no gates.
run_side() {
    local side=$1 bin=$2 seed=$3
    local dir="$PAIRED_DIR/$side/run"
    local log="$PAIRED_DIR/$side/$workload-$seed-trace$trace.log"
    mkdir -p "$dir"
    echo "# $side seed $seed" >&2
    (cd "$dir" && "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace "$trace" >"$log") || echo "# $side seed $seed exited $?" >&2
    local info
    info=$(awk '$1 == "rank_err_max" || $1 == "retained_items" || $1 == "state_bytes" {
        printf "%s\"%s\": %s", (n++ ? ", " : "{"), $1, $2 } END { print (n ? "}" : "{}") }' "$log")
    local gates
    gates=$(awk '/^gate (ok  |FAIL) / { rest = substr($0, 11)
        print substr(rest, 1, index(rest ": ", ": ") - 1) "\t" $2 }' "$log" |
        jq -Rnc '[inputs | split("\t") | {(.[0]): (.[1] == "ok")}] | add // {}')
    if tail -n 1 "$log" | jq -e '.metrics' >/dev/null 2>&1; then
        tail -n 1 "$log" | jq -c --arg side "$side" --argjson seed "$seed" --argjson info "$info" \
            --argjson gates "$gates" \
            '{side: $side, seed: $seed, correct, attempted, failed,
              metrics: (.metrics | map_values(.value)), gates: $gates, info: $info}'
    else
        jq -nc --arg side "$side" --argjson seed "$seed" \
            '{side: $side, seed: $seed, correct: false, attempted: 0, failed: 0,
              metrics: {}, gates: {}, info: {}}'
    fi
}

parent_bin=$(build_side parent "$parent_rev")
change_bin=$(build_side change "$change_rev")

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
for i in "${!seeds[@]}"; do
    seed=${seeds[$i]}
    if [ $((i % 2)) -eq 0 ]; then
        run_side parent "$parent_bin" "$seed" >>"$runs"
        run_side change "$change_bin" "$seed" >>"$runs"
    else
        run_side change "$change_bin" "$seed" >>"$runs"
        run_side parent "$parent_bin" "$seed" >>"$runs"
    fi
done

entry=$(jq -s \
    --slurpfile bench "$repo/BENCHMARK.json" \
    --arg set "$metric_set" \
    --arg parent "$(git -C "$repo" rev-parse "$parent_rev")" \
    --arg change "$(git -C "$repo" rev-parse "$change_rev")" \
    --argjson seconds "$seconds" --argjson trace "$trace" '
    def quantile(p): sort as $s | ($s | length) as $n
        | if $n == 0 then null else
            ((($n - 1) * p) as $h | ($h | floor) as $lo | ($h | ceil) as $hi
             | $s[$lo] + ($h - $lo) * ($s[$hi] - $s[$lo])) end;
    def summary: {median: quantile(0.5), q1: quantile(0.25), q3: quantile(0.75)};
    . as $runs
    | {parent_rev: $parent, change_rev: $change, seconds: $seconds, trace: $trace,
       metrics: ($bench[0][$set] | map(
           . as $m
           | ([$runs[] | select(.side == "parent") | .metrics[$m.name] // empty]) as $p
           | ([$runs[] | select(.side == "change") | .metrics[$m.name] // empty]) as $c
           | ($p | summary) as $ps | ($c | summary) as $cs
           | ([$runs[] | select(.side == "parent")] | map({(.seed | tostring): .metrics[$m.name]}) | add // {}) as $pby
           | ([$runs[] | select(.side == "change")] | map({(.seed | tostring): .metrics[$m.name]}) | add // {}) as $cby
           | ([$pby | keys[] | select($pby[.] != null and $cby[.] != null)
               | if $m.better == "lower" then ($cby[.] < $pby[.]) else ($cby[.] > $pby[.]) end
               | select(.)] | length) as $won
           | {key: $m.name, value: {
               unit: $m.unit, better: $m.better, bound: $m.bound,
               parent: $ps, change: $cs,
               ratio: (if $ps.median and $cs.median and $ps.median != 0
                       then $cs.median / $ps.median else null end),
               pairs_won: $won, pairs: ([$pby | keys[] | select($cby[.] != null)] | length),
               within_bound: (if $m.bound == null or $ps.median == null or $cs.median == null
                   then null
                   elif $m.better == "lower" then $cs.median <= $ps.median * (1 + $m.bound)
                   else $cs.median >= $ps.median * (1 - $m.bound) end)}})
           | from_entries),
       runs: [$runs[] | {side, seed, correct, attempted, failed, gates, info}]}' "$runs")

key="$workload"
[ "$trace" = 1 ] && key="$workload-trace"
if [ -s "$out" ]; then
    jq --arg key "$key" --argjson entry "$entry" '.[$key] = $entry' "$out" >"$out.tmp"
else
    jq -n --arg key "$key" --argjson entry "$entry" '{($key): $entry}' >"$out.tmp"
fi
mv "$out.tmp" "$out"

# The markdown table for BENCH.md: four significant digits below 1,000,
# whole numbers above.
fmt='function f(v) { return v == "" ? "–" : (v >= 1000 || v <= -1000 ? sprintf("%.0f", v) : sprintf("%.4g", v)) }'
echo
echo "\`$workload\`, trace $trace, seeds ${seeds[*]}, ${seconds}s per run (parent ${parent_rev}, change ${change_rev})"
echo
echo "| metric | parent median [q1, q3] | change median [q1, q3] | change/parent | pairs won | within bound |"
echo "|---|---|---|---|---|---|"
jq -r '.metrics | to_entries[] | .value as $v
    | [.key, $v.unit, $v.better, $v.parent.median, $v.parent.q1, $v.parent.q3,
       $v.change.median, $v.change.q1, $v.change.q3, $v.ratio, $v.pairs_won, $v.pairs,
       (if $v.within_bound == null then "–" else $v.within_bound end)]
    | map(if . == null then "" else tostring end) | @tsv' <<<"$entry" |
    awk -F '\t' "$fmt"' { printf "| `%s` (%s, %s) | %s [%s, %s] | %s [%s, %s] | %s | %s/%s | %s |\n",
        $1, $2, $3, f($4), f($5), f($6), f($7), f($8), f($9), f($10), $11, $12, $13 }'
echo
echo "| seed | side | correct | attempted | failed | gates | rank_err_max | retained_items | state_bytes |"
echo "|---|---|---|---|---|---|---|---|---|"
jq -r '.runs | sort_by(.seed, .side)[]
    | (.gates | length) as $n | [.gates | to_entries[] | select(.value | not) | .key] as $failed
    | (if $n == 0 then "–" elif $failed == [] then "\($n)/\($n) ok" else $failed | join("; ") end) as $gates
    | "| \(.seed) | \(.side) | \(.correct) | \(.attempted) | \(.failed) | \($gates) | \(.info.rank_err_max // "–") | \(.info.retained_items // "–") | \(.info.state_bytes // "–") |"' \
    <<<"$entry"
