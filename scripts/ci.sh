#!/usr/bin/env bash
# Local CI gate: shellcheck, formatting, lints, release build, docs, the
# root test suite, every crate's integration suites, and the
# EXPERIMENTS.md drift check. Everything runs
# offline (external deps are vendored; see vendor/README.md). Each step
# prints its elapsed seconds, and the same per-step timings land in the
# workflow step summary ($GITHUB_STEP_SUMMARY) via gate_summary.sh.
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/gate_summary.sh
source "$(dirname "$0")/gate_summary.sh"
gate_init "ci gate"

# Runs one gate step and prints its wall time.
step() {
    local name=$1
    shift
    gate_section "$name"
    echo "== $name"
    local t0=$SECONDS
    "$@"
    echo "   -- ${name}: $((SECONDS - t0))s"
}

doc_step() {
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
}

if command -v shellcheck >/dev/null 2>&1; then
    step "shellcheck scripts/*.sh" shellcheck scripts/*.sh
else
    # Report the skip explicitly — a missing linter must never read as a
    # silent pass in the summary table.
    gate_skip "shellcheck scripts/*.sh" "shellcheck not installed (offline container)"
    echo "== shellcheck scripts/*.sh: skipped (shellcheck not installed)"
fi
step "cargo fmt --check" cargo fmt --check
step "cargo clippy --workspace --all-targets -- -D warnings" \
    cargo clippy --workspace --all-targets -- -D warnings
step "cargo build --release --workspace" cargo build --release --workspace
step "cargo doc --no-deps (warnings denied)" doc_step
step "cargo test -q" cargo test -q
# Every crate's integration suites: the three-mode bit-identity matrix,
# the next_event and request-buffer oracles, serve and store, the harness
# scheduler and suite tests, and the component proptests. Lib unit tests
# stay out until single_run_memo_computes_each_key_once no longer races
# on the process-global memo counters.
step "cargo test --release --workspace --test '*'" \
    cargo test --release -q --workspace --test '*'
step "cargo test --doc" cargo test --doc -q
step "EXPERIMENTS.md drift check" \
    python3 scripts/make_experiments_md.py --check repro_full.jsonl

echo "== ci.sh: all green in ${SECONDS}s"
