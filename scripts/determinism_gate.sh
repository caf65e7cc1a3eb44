#!/usr/bin/env bash
# Determinism gate: the suite's JSONL artifact must be byte-identical
# across worker counts (the unified scheduler emits rows in registry
# order with no timing data), across all three fast-forward modes
# (off / horizon / event — skipped cycles must be invisible in results,
# DESIGN.md §11), across --exec modes, and across cold, warm and no
# unit store (the store is the one incremental-rerun mechanism).
#
# Runs a smoke-scale subset so the gate stays under a minute; any byte
# difference is a hard failure. No run uses --profile: profiled
# payloads carry wall times and are legitimately nondeterministic.
#
# Set DET_GATE_OUT to keep the produced artifacts in a known directory
# (CI uploads it on failure); otherwise a temp dir is used and cleaned.
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/gate_summary.sh
source "$(dirname "$0")/gate_summary.sh"
gate_init "determinism gate"

SUBSET=(fig1 fig2 tab5 tab6 tab7 cost)
if [ -n "${DET_GATE_OUT:-}" ]; then
    OUT="$DET_GATE_OUT"
    mkdir -p "$OUT"
else
    OUT="$(mktemp -d)"
    GATE_CLEANUP='rm -rf "$OUT"'
fi

gate_section "build"
cargo build --release --workspace --quiet
REPRO=target/release/repro

gate_section "jobs 1 vs jobs 8"
echo "== determinism: --jobs 1 vs --jobs 8 on ${SUBSET[*]} (smoke scale)"
"$REPRO" --smoke --jobs 1 --no-progress --jsonl "$OUT/j1.jsonl" "${SUBSET[@]}" >/dev/null
"$REPRO" --smoke --jobs 8 --no-progress --jsonl "$OUT/j8.jsonl" "${SUBSET[@]}" >/dev/null
if ! cmp "$OUT/j1.jsonl" "$OUT/j8.jsonl"; then
    echo "FAIL: JSONL differs between --jobs 1 and --jobs 8" >&2
    diff "$OUT/j1.jsonl" "$OUT/j8.jsonl" >&2 || true
    exit 1
fi
echo "   byte-identical ($(wc -c <"$OUT/j1.jsonl") bytes, $(wc -l <"$OUT/j1.jsonl") rows)"

gate_section "fast-forward three-mode matrix"
echo "== fast-forward: off vs horizon vs event on ${SUBSET[*]} (smoke scale)"
for mode in off horizon event; do
    "$REPRO" --smoke --jobs 8 --no-progress --fast-forward "$mode" \
        --jsonl "$OUT/ff-$mode.jsonl" "${SUBSET[@]}" >/dev/null
done
for mode in horizon event; do
    if ! cmp "$OUT/ff-off.jsonl" "$OUT/ff-$mode.jsonl"; then
        echo "FAIL: JSONL differs between --fast-forward off and $mode" >&2
        diff "$OUT/ff-off.jsonl" "$OUT/ff-$mode.jsonl" >&2 || true
        exit 1
    fi
done
echo "   byte-identical across all three modes ($(wc -c <"$OUT/ff-off.jsonl") bytes)"

gate_section "exec planned vs monolithic"
echo "== exec modes: planned vs monolithic on grid/sweep/mechanism experiments"
# The plan/reduce decomposition (DESIGN.md §10) must reproduce the legacy
# monolithic runners byte for byte: same workloads, same arithmetic, same
# JSONL. The subset spans every planned family — single-core grid (fig6),
# multi-core aggregate (fig9, fig16), parameter sweep (fig23, fig24), and
# mechanism sensitivity with its shared alone-unit plan (fig28).
EXEC_SUBSET=(fig6 fig9 fig16 fig23 fig24 fig28)
for exec_mode in planned monolithic; do
    "$REPRO" --smoke --jobs 8 --no-progress --exec "$exec_mode" \
        --jsonl "$OUT/exec-$exec_mode.jsonl" "${EXEC_SUBSET[@]}" >/dev/null
done
if ! cmp "$OUT/exec-planned.jsonl" "$OUT/exec-monolithic.jsonl"; then
    echo "FAIL: JSONL differs between --exec planned and --exec monolithic" >&2
    diff "$OUT/exec-planned.jsonl" "$OUT/exec-monolithic.jsonl" >&2 || true
    exit 1
fi
echo "   byte-identical ($(wc -c <"$OUT/exec-planned.jsonl") bytes, $(wc -l <"$OUT/exec-planned.jsonl") rows)"

gate_section "store cold vs warm vs none"
echo "== store: cold vs warm vs no-store byte identity on planned subset"
# The persistent unit store (DESIGN.md §12) must be invisible in results:
# a cold-store run (every unit computed and written back), a warm-store
# rerun (every unit loaded, zero computed), and a storeless run must
# produce byte-identical JSONL. The warm run must also report misses=0 on
# the stderr telemetry line and execute zero simulation units.
STORE_SUBSET=(fig6 tab5 tab7 fig8)
STORE_DIR="$OUT/store"
rm -rf "$STORE_DIR"
"$REPRO" --smoke --jobs 8 --no-progress --exec planned --store "$STORE_DIR" \
    --jsonl "$OUT/store-cold.jsonl" "${STORE_SUBSET[@]}" >/dev/null
"$REPRO" --smoke --jobs 8 --no-progress --exec planned --store "$STORE_DIR" \
    --jsonl "$OUT/store-warm.jsonl" --summary "$OUT/store-warm-summary.json" \
    "${STORE_SUBSET[@]}" >/dev/null 2>"$OUT/store-warm-stderr.txt"
"$REPRO" --smoke --jobs 8 --no-progress --exec planned \
    --jsonl "$OUT/store-none.jsonl" "${STORE_SUBSET[@]}" >/dev/null
for variant in warm none; do
    if ! cmp "$OUT/store-cold.jsonl" "$OUT/store-$variant.jsonl"; then
        echo "FAIL: store-$variant.jsonl differs from the cold-store artifact" >&2
        diff "$OUT/store-cold.jsonl" "$OUT/store-$variant.jsonl" >&2 || true
        exit 1
    fi
done
if ! grep -q '^store: hits=[0-9]* misses=0 ' "$OUT/store-warm-stderr.txt"; then
    echo "FAIL: warm-store run reported misses:" >&2
    grep '^store:' "$OUT/store-warm-stderr.txt" >&2 || true
    exit 1
fi
if ! grep -q '"subjobs_executed": 0,' "$OUT/store-warm-summary.json"; then
    echo "FAIL: warm-store run executed simulation units:" >&2
    cat "$OUT/store-warm-summary.json" >&2
    exit 1
fi
echo "   cold == warm == no-store; warm run: misses=0, zero units executed"

echo "== determinism_gate.sh: all green"
