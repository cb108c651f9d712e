#!/usr/bin/env bash
# End-to-end smoke for the figures-as-specs path: every checked-in
# spec, cut down to a tiny budget with --set, runs into a checkpoint
# directory, and every `siqsim table` renders its title and one data
# row per workload from those directories. Bad tables, bad run
# directories and bad --set edits exit 1 naming the offender.
#
# Usage: cli_table_smoke.sh /path/to/siqsim /path/to/specs
set -euo pipefail

SIQSIM=${1:?usage: cli_table_smoke.sh /path/to/siqsim /path/to/specs}
SPECS=${2:?usage: cli_table_smoke.sh /path/to/siqsim /path/to/specs}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/siqsim_table_smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

for spec in "$SPECS"/*.json; do
    name=$(basename "$spec" .json)
    "$SIQSIM" spec --spec "$spec" --set warmupInsts=2000 \
        --set measureInsts=10000 --out "$name.json" 2> /dev/null
    "$SIQSIM" run --spec "$name.json" --ckpt "$name" 2> /dev/null
done

# rows whose first column is one of the run's workloads
paper_workloads=$(grep -o '"family":"[a-z0-9]*"' paper.json | cut -d'"' -f4)
nworkloads=$(echo "$paper_workloads" | wc -l)
rows() {
    local n=0 w
    for w in $2; do
        n=$((n + $(grep -c "^$w " "$1" || true)))
    done
    echo "$n"
}
expect_table() { # FILE TITLE-REGEX ROWS WORKLOADS
    if ! grep -q "$2" "$1" || [ "$(rows "$1" "$4")" -ne "$3" ]; then
        echo "table $1: want title '$2' and $3 workload rows, got:" >&2
        cat "$1" >&2
        exit 1
    fi
}

for fig in 6 7 8 9 10 11 12; do
    "$SIQSIM" table "fig$fig" paper > "fig$fig.txt"
    expect_table "fig$fig.txt" "^==== Figure $fig:" "$nworkloads" \
        "$paper_workloads"
done
"$SIQSIM" table mispredict paper paper-speculative > mispredict.txt
expect_table mispredict.txt "^==== Mispredict recovery" "$nworkloads" \
    "$paper_workloads"
if grep -q 'front end:$' mispredict.txt; then
    echo "table mispredict: bare label line with nothing under it:" >&2
    grep 'front end:$' mispredict.txt >&2
    exit 1
fi
"$SIQSIM" table table1 > table1.txt
expect_table table1.txt "^==== Table 1:" 0 ""
"$SIQSIM" table compare paper > compare.txt
expect_table compare.txt "^technique comparison over" 0 ""
test "$(grep -c '^\(noop\|extension\|improved\|abella\|folegnani\) ' \
    compare.txt)" -eq 5

# the ablations: 12 + 9 + 6 + 9 rows over gzip, vortex and mcf
{
    "$SIQSIM" table A1 ablation ablation-minhint-8 ablation-minhint-12 \
        ablation-minhint-16
    "$SIQSIM" table A2 ablation-banks-16 ablation ablation-banks-4
    "$SIQSIM" table A3 ablation ablation-noelide
    "$SIQSIM" table A4 ablation
} > ablations.txt
for a in A1 A2 A3 A4; do
    grep -q "^==== $a:" ablations.txt
done
expect_table ablations.txt "^==== A1:" 36 "gzip vortex mcf"

# rows are ordered and labelled by each run's config, not by argument
# order
"$SIQSIM" table A2 ablation-banks-4 ablation-banks-16 ablation > a2.txt
"$SIQSIM" table A2 ablation-banks-16 ablation ablation-banks-4 > a2_sorted.txt
cmp a2.txt a2_sorted.txt
grep -q '^gzip *5x16 ' a2.txt

# a partial run directory: one shard of two
"$SIQSIM" run --spec ablation.json --shard 0/2 --ckpt partial 2> /dev/null

# each must exit 1 naming the offender
fails() { # NAME COMMAND...
    local name=$1 status=0
    shift
    "$@" > /dev/null 2> fail.err || status=$?
    if [ "$status" -ne 1 ] || ! grep -qF "$name" fail.err; then
        echo "'$*': want exit 1 naming '$name', got $status:" \
            "$(cat fail.err)" >&2
        exit 1
    fi
}
fails abella "$SIQSIM" table A4 ablation-minhint-8
fails extension "$SIQSIM" table fig10 ablation
fails partial "$SIQSIM" table A4 partial
fails no_such_dir "$SIQSIM" table fig6 no_such_dir
fails fig99 "$SIQSIM" table fig99 paper
fails minHint "$SIQSIM" table A1 ablation ablation-banks-4
fails core.robsize "$SIQSIM" spec --set core.robsize=256
fails core.robSize "$SIQSIM" spec --set core.robSize=true
fails base.core.robSize "$SIQSIM" spec --set core.robSize=0
# the resizers take their sizes and their step from core: no spec
# field of their own
fails folegnani.iqSize "$SIQSIM" spec --set folegnani.iqSize=40
fails abella.portion "$SIQSIM" spec --set abella.portion=4
fails folegnani.portion "$SIQSIM" spec --set folegnani.portion=4

echo "cli_table_smoke: OK"
