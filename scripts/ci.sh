#!/usr/bin/env bash
# Tier-1 gate: build, tests, formatting, lints. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Hermetic: every cargo step starts from a fresh, empty cargo home, and the
# root steps run --offline --locked against the committed Cargo.lock, so
# nothing is downloaded and nothing is re-resolved.
CARGO_HOME=$(mktemp -d)
export CARGO_HOME
# perfbench's build prunes the stand-ins its committed Cargo.lock still
# lists (the workspace no longer uses them), so keep a copy of the file and
# put it back after that step and on every exit, failures included: a run
# of this script leaves the tree as it found it.
PERFBENCH_LOCK=$(mktemp)
cp perfbench/Cargo.lock "$PERFBENCH_LOCK"
trap 'cp "$PERFBENCH_LOCK" perfbench/Cargo.lock; rm -rf "$CARGO_HOME" "$PERFBENCH_LOCK"' EXIT
# The workspace depends on nothing outside this repository: every package
# in Cargo.lock is a path package, which cargo records without `source =`.
if grep -n '^source = ' Cargo.lock; then
    echo "ci: Cargo.lock lists a package from outside the workspace" >&2
    exit 1
fi

# Offline end-to-end gate: the hermetic benchmark runs all four workloads
# in --quick mode with every benchmark gate (ingest record counts,
# sim.steps = planned ops, no aborted flow, link conservation, the
# Fig 12/13/15 orderings). It builds from perfbench/vendor, so it needs no
# registry and works with an empty cargo cache.
(cd perfbench && cargo test --release --offline)
cp "$PERFBENCH_LOCK" perfbench/Cargo.lock
cargo build --offline --locked --release
cargo test --offline --locked -q
# The storage crate's refcount and byte-total arithmetic again in release
# mode, where overflow checks and debug_assert! are off (as in perfbench),
# with the replay golden digests (replay_golden_digests), which pin every
# replay output: service stats, chunk MD5s and the fair-share pass.
cargo test --offline --locked --release -q -p mcs-storage
# The trace decoders in release mode too, where length arithmetic wraps
# instead of panicking (as in perfbench and for users): the mutated-file
# loop (prop_mutated_files_read_as_records_or_typed_errors) and the CSV
# reader's quarantine of a line that is not UTF-8.
cargo test --offline --locked --release -q -p mcs-trace
# The replay integration tests in release too: there the client stage
# hashes manifests on its own thread at the speed perfbench runs it, and
# races the dispatch loop it hands them to.
cargo test --offline --locked --release -q --test chaos --test service_replay
# Likewise the packet engine's pins (golden digest, events per segment),
# the mcs-sim queue they run on, and the fair-share solver's differential
# test against its queue-based reference
# (merged_loop_matches_the_queue_solver).
cargo test --offline --locked --release -q -p mcs-net -p mcs-sim
cargo fmt --check
cargo clippy --offline --locked --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --offline --locked --workspace --no-deps
# Determinism/contract audit (rules R1-R10): machine-readable report for
# artifact upload, suppression-debt ledger on stderr, nonzero exit on any
# diagnostic.
mkdir -p target
cargo run --offline --locked -p mcs-lint --release -- --json > target/lint-report.json
cargo run --offline --locked -p mcs-lint --release -- --debt 2> target/lint-debt.txt
cat target/lint-debt.txt >&2
# The suppression ledger can only shrink: a change that adds an allow(...)
# raises this ceiling in its own diff (DESIGN.md section 12).
DEBT_CEILING=15
debt=$(awk '$1 == "total" { print $2 }' target/lint-debt.txt)
if [ -z "$debt" ] || [ "$debt" -gt "$DEBT_CEILING" ]; then
    echo "ci: suppression debt ${debt:-unreadable} is above the ceiling $DEBT_CEILING" >&2
    exit 1
fi
# README's first command: generate a trace, analyse it, print the
# headline findings.
cargo run --offline --locked --release --example quickstart
# The paper's headline figures and tables driven through the library API
# (the `repro` binary wraps the same suite). Their shape checks are
# asserted by tests/suite_reproduction.rs; this runs the example as
# README documents it.
cargo run --offline --locked --release --example paper_figures
# Chaos smoke test: corrupted-trace ingestion + seeded fault-plan replay
# (bit-identical across runs, availability bounded, no panics).
cargo run --offline --locked --release --example chaos_replay
# Observability tour: metric snapshots byte-identical across thread counts.
cargo run --offline --locked --release --example observability
# Fleet replay on the shared mcs-sim timeline: fair-weather + faulted
# snapshots (sim.* counters included) byte-identical across runs and
# thread counts.
cargo run --offline --locked --release --example fleet_replay
# The service API end to end: store (dedup), retrieve by path and by
# share URL, plus the Table 4 levers.
cargo run --offline --locked --release --example backup_service
# Capacity planning over a fair-weather replay.
cargo run --offline --locked --release --example capacity_planning
# Transfer-protocol tour: out-of-order arrival, resume-from-partial,
# dedup-aware skips — every section asserts its invariants.
cargo run --offline --locked --release --example chunk_transfer
# Sync-protocol evaluation: whole-file retry vs. chunk-resume under a
# chaos plan, §3.3 optimisations over the same workload, bit-identical
# across runs and thread counts.
cargo run --offline --locked --release --example sync_protocol
# Scenario matrix: device x radio-profile x file-size sweep. Asserts the
# Fig 12/13/15 orderings under the measured baseline, the fair-share vs
# packet-level parity band, and byte-identical reports across 2 runs x 2
# thread counts (small smoke matrix; --full runs the paper's 2/10/80 MB).
cargo run --offline --locked --release --example scenario_matrix
# Out-of-core ingest: sharded CSV + columnar traces streamed back
# bit-identical to the in-memory pipeline at several thread counts.
cargo run --offline --locked --release --example big_trace
echo "ci: all checks passed"
