#!/bin/sh
# Scale-forwarding perf gate (DESIGN.md §13), run from ONE binary:
# CATENET_NO_FIBFLAT=1 pins every gateway table's flat threshold to
# SIZE_MAX, forcing the per-length binary-search LPM, so the two sides
# share code placement and the comparison measures exactly the flattened
# FIB. Runs strictly interleaved (off, on, off, on, ...) and takes the
# median of per-round pairwise ratios, which divides sustained box drift
# out of each adjacent pair.
#
# Gated metric: bench_scale's raw LPM rate (lpm_lookups_per_second), a
# tight loop over RoutingTable::lookup() across leaf destinations — the
# route-cache *miss* path. The end-to-end soak cannot see the FIB (the
# set-associative route cache absorbs nearly every train lookup, by
# design), so its pkts/s is only held to a loose non-regression floor.
# The ISSUE-9 2x end-to-end claim is the whole soak-path change, measured
# two-binary against a pre-change worktree via ab_compare.sh (CHANGES.md).
#
# Gates (override via MIN_SPEEDUP / MIN_PPS_RATIO):
#   lpm_lookups_per_second(on/off)  >= MIN_SPEEDUP    [default 2.0]
#   pkts_per_second(on/off)         >= MIN_PPS_RATIO  [default 0.85]
#
# The soak runs a reduced mesh (256 gateways / 128 LANs x 50 hosts) so a
# full gate stays in CI time; gateway FIBs still carry ~380 routes, far
# above the flat threshold, so the ablation exercises the real regime.
# Rounds/train are sized so the soak lasts >= ~0.5 s per side — below
# that the pkts/s backstop measures timer noise, not throughput.
#
#   BIN=<path to bench_scale>   [./build/bench/bench_scale]
#   ROUNDS=3 SCALE_ARGS="--gateways 256 ..." OUT=<dir> to override.
set -eu

SRC=$(cd "$(dirname "$0")/.." && pwd)
BIN=${BIN:-$SRC/build/bench/bench_scale}
ROUNDS=${ROUNDS:-3}
OUT=${OUT:-$(dirname "$BIN")/gate_scale}
MIN_SPEEDUP=${MIN_SPEEDUP:-2.0}
MIN_PPS_RATIO=${MIN_PPS_RATIO:-0.85}
SCALE_ARGS=${SCALE_ARGS:---gateways 256 --lans 128 --hosts 50 --rounds 32 --train 32}

[ -x "$BIN" ] || { echo "gate_scale: $BIN not built" >&2; exit 2; }
echo "== scale gate: flat-FIB LPM >= ${MIN_SPEEDUP}x binary-search, e2e pkts/s >= ${MIN_PPS_RATIO}x (median of $ROUNDS pairwise rounds) =="

mkdir -p "$OUT"
i=1
while [ "$i" -le "$ROUNDS" ]; do
    # shellcheck disable=SC2086 # SCALE_ARGS is a deliberate word list
    CATENET_NO_FIBFLAT=1 "$BIN" $SCALE_ARGS --out "$OUT/off_${i}.json" >/dev/null
    # shellcheck disable=SC2086
    "$BIN" $SCALE_ARGS --out "$OUT/on_${i}.json" >/dev/null
    echo "round $i/$ROUNDS done"
    i=$((i + 1))
done

python3 - "$OUT" "$ROUNDS" "$MIN_SPEEDUP" "$MIN_PPS_RATIO" <<'EOF'
import json, statistics, sys

out, rounds = sys.argv[1], int(sys.argv[2])
min_speedup, min_pps_ratio = float(sys.argv[3]), float(sys.argv[4])

def load(side, i):
    with open(f"{out}/{side}_{i}.json") as f:
        return json.load(f)

pairs = [(load("off", i), load("on", i)) for i in range(1, rounds + 1)]

def gate(key, floor, label):
    ratios = [on[key] / off[key] for off, on in pairs if off[key] > 0]
    if not ratios:
        sys.exit(f"scale gate FAILED: no valid rounds for {key}")
    ratio = statistics.median(ratios)
    moff = statistics.median(off[key] for off, _ in pairs)
    mon = statistics.median(on[key] for _, on in pairs)
    print(f"{label:<24} {moff:>14.0f} {mon:>14.0f} {ratio:>8.2f}x  (floor {floor:.2f}x)")
    return ratio >= floor

ok = gate("lpm_lookups_per_second", min_speedup, "lpm_lookups_per_second")
ok &= gate("pkts_per_second", min_pps_ratio, "pkts_per_second")
if not ok:
    sys.exit("scale gate FAILED")
print("scale gate OK")
EOF
