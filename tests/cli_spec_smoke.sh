#!/usr/bin/env bash
# End-to-end smoke for the speculative front end through the CLI: one
# speculative-mode cell per technique, run through the checkpointed
# path, with every export round-tripping byte-exactly — and the
# --speculative toggle actually speculating (nonzero squash counters
# in the JSON) while leaving oracle-mode spec bytes untouched — and an
# invalid config failing cleanly at the spec reader.
#
# Usage: cli_spec_smoke.sh /path/to/siqsim
set -euo pipefail

SIQSIM=${1:?usage: cli_spec_smoke.sh /path/to/siqsim}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/siqsim_spec_smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

# --speculative is carried in the spec JSON; without the flag the
# spec must not mention it at all (schema evolution: oracle-mode
# exports keep their historical bytes)
"$SIQSIM" spec --workloads perlbmk --techniques all \
    --warmup 2000 --measure 10000 --rep-divisor 40 \
    --out oracle_spec.json
if grep -q specFrontEnd oracle_spec.json; then
    echo "oracle spec must not carry specFrontEnd" >&2
    exit 1
fi

"$SIQSIM" spec --workloads perlbmk --techniques all \
    --warmup 2000 --measure 10000 --rep-divisor 40 --speculative \
    --out spec.json
grep -q '"specFrontEnd":true' spec.json

# one speculative cell per technique: direct run vs checkpointed run
# + merge must produce byte-identical canonical exports
"$SIQSIM" run --spec spec.json --json direct.json --csv direct.csv \
    --power-csv direct_power.csv
"$SIQSIM" run --spec spec.json --ckpt ckpt
"$SIQSIM" merge ckpt --json merged.json --csv merged.csv \
    --power-csv merged_power.csv
cmp direct.json merged.json
cmp direct.csv merged.csv
cmp direct_power.csv merged_power.csv

# every technique's cell actually speculated: perlbmk's indirect
# dispatch guarantees mispredicts, so each of the 6 cells must carry
# nonzero wrong-path and squash counters
test "$(grep -o '"wrongPathFetched":[1-9]' direct.json | wc -l)" -eq 6
test "$(grep -o '"squashes":[1-9]' direct.json | wc -l)" -eq 6
test "$(grep -o '"squashedInsts":[1-9]' direct.json | wc -l)" -eq 6
# and the CSV carries the speculation columns
grep -q 'stats_wrongPathFetched' direct.csv

# oracle-mode exports must not mention speculation at all
"$SIQSIM" run --spec oracle_spec.json --json oracle.json \
    --csv oracle.csv
if grep -q 'wrongPathFetched\|"squashes"' oracle.json oracle.csv; then
    echo "oracle-mode exports must not carry speculation fields" >&2
    exit 1
fi

# an invalid config is rejected where the spec enters (exit 1, the
# field named), never by an abort inside the core (exit 134): each
# line is a sed edit of the spec and the field its error must name
while read -r edit field; do
    sed "$edit" oracle_spec.json > bad_spec.json
    if cmp -s oracle_spec.json bad_spec.json; then
        echo "invalid spec: '$edit' changed nothing" >&2
        exit 1
    fi
    status=0
    "$SIQSIM" run --spec bad_spec.json --json bad.json 2> bad.err ||
        status=$?
    if [ "$status" -ne 1 ] || ! grep -qF "$field" bad.err; then
        echo "invalid spec: want exit 1 naming $field, got" \
            "$status: $(cat bad.err)" >&2
        exit 1
    fi
done <<'EOF'
s/"robSize":128/"robSize":0/ base.core.robSize
s/"hitLatency":1}/"hitLatency":0}/ base.core.mem.l1i.hitLatency
s/"lineBytes":32,"hitLatency":2}/"lineBytes":32,"hitLatency":0}/ base.core.mem.l1d.hitLatency
s/"hitLatency":10}/"hitLatency":0}/ base.core.mem.l2.hitLatency
s/"memLatency":50/"memLatency":-5/ base.core.mem.memLatency
s/"decodeDepth":3/"decodeDepth":-1/ base.core.decodeDepth
s/"minHint":4/"minHint":0/ base.minHint
s/"minHint":4/"minHint":81/ base.minHint
s/"unrollFactor":4/"unrollFactor":0/ base.unrollFactor
s/"unrollFactor":4/"unrollFactor":25/ base.unrollFactor
s/"scale":1,/"scale":0,/ base.workload.scale
s/"scale":1,/"scale":-2,/ base.workload.scale
s/"scale":1,/"scale":99999999999,/ base.workload.scale
s/"repDivisor":40/"repDivisor":0/ base.workload.repDivisor
s/"intervalCycles":16384/"intervalCycles":0/ base.abella.intervalCycles
s/"minSize":16/"minSize":0/ base.folegnani.minSize
s/"seeds":1/"seeds":-3/ seeds
EOF

# the same values given as 'siqsim spec' flags fail there, before a
# spec is written (exit 1, the field named)
while read -r field flags; do
    status=0
    # shellcheck disable=SC2086
    "$SIQSIM" spec --workloads gzip $flags > bad_flag.json 2> bad.err ||
        status=$?
    if [ "$status" -ne 1 ] || ! grep -qF "$field" bad.err; then
        echo "spec $flags: want exit 1 naming $field, got" \
            "$status: $(cat bad.err)" >&2
        exit 1
    fi
done <<'EOF'
base.workload.scale --scale 99999999999
base.workload.scale --scale -2
base.workload.repDivisor --rep-divisor 0
seeds --seeds -3
jobs --jobs -3
EOF

echo "cli_spec_smoke: OK"
