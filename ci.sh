#!/bin/sh
# Local CI: everything a pull request must pass, in dependency order.
# Usage: ./ci.sh
set -eu

echo "==> cargo build --release"
cargo build --workspace --release

# The determinism contract says results are byte-identical for any worker
# count, so the whole suite must pass on both the legacy sequential path
# (QOR_THREADS=1) and a genuinely parallel one (QOR_THREADS=4). The suite
# includes the quotient-forward differential
# (crates/core/tests/condensed_skeleton.rs): the dse_sweep smoke below
# compares session predictions with uncached predict, which take the same
# quotient GNN_g path, so only that differential against the full-graph
# forward can see the quotient drift.
echo "==> cargo test (QOR_THREADS=1)"
QOR_THREADS=1 cargo test -q --workspace

echo "==> cargo test (QOR_THREADS=4)"
QOR_THREADS=4 cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Doc gate: a broken or ambiguous intra-doc link (e.g. to a deleted item)
# fails the build.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Checkpoint gate: a saved model must reload bit-exactly (differential
# round-trip) and every corrupted byte/truncation must fail typed.
echo "==> checkpoint round-trip gate"
cargo test -q --release -p serve --test checkpoint_roundtrip --test corrupt

# Serving smoke gate: checkpoint round-trip through the live HTTP path.
# This is the in-tree "curl" substitute: it drives the /v1 surface end to
# end — both batching-queue flush paths (wait-deadline and size-triggered,
# checked against /debug/vars counters), single-flight dedup, a registry
# hot-reload cycle (generation bump + new weights serving), the typed error
# envelope, and the observability surface (Prometheus histogram buckets,
# per-model and batcher series, trace-ID echo, /debug/requests flight dumps).
echo "==> qor-serve --self-test"
./target/release/qor-serve --self-test

# Serving determinism gate: the herd smoke output must be byte-identical
# across thread counts (timing fields are nulled; its digest covers the
# predicted QoR values in request order), and each run proves direct and
# batched dispatch produce bit-identical predictions.
echo "==> qor-bench --smoke determinism"
QOR_THREADS=1 ./target/release/qor-bench --smoke --out /tmp/qor_bench1.json >/dev/null
QOR_THREADS=4 ./target/release/qor-bench --smoke --out /tmp/qor_bench4.json >/dev/null
cmp /tmp/qor_bench1.json /tmp/qor_bench4.json
rm -f /tmp/qor_bench1.json /tmp/qor_bench4.json

# Incremental-engine gate: the sweep prepares every candidate through its
# kernel's query database and from scratch, and aborts on any
# digest divergence — so a clean exit IS the cold-vs-incremental
# byte-identity proof. Run at both worker counts and require the appended
# trajectories (timings nulled in smoke) to be byte-identical too. The
# engine's own red-green/version-cache unit tests and the differential
# suite (crates/core/tests/incr_differential.rs, walk suite in
# crates/bench/tests) already ran above under both QOR_THREADS values.
echo "==> qor-bench incr_sweep --smoke determinism"
QOR_THREADS=1 ./target/release/qor-bench incr_sweep --smoke --out /tmp/qor_incr1.json >/dev/null
QOR_THREADS=4 ./target/release/qor-bench incr_sweep --smoke --out /tmp/qor_incr4.json >/dev/null
cmp /tmp/qor_incr1.json /tmp/qor_incr4.json
rm -f /tmp/qor_incr1.json /tmp/qor_incr4.json

# Crash-free fuzz gate: ≥2000 seeded programs (legal from the grammar
# generator + corrupted from the mutational corruptor) through the full
# frontc → hir → cdfg → features → predict pipeline; qor-fuzz exits
# nonzero if ANY input panics instead of producing a typed error or a
# clean prediction. The smoke runs additionally prove the verdict stream
# (and its FNV digest) is byte-identical at QOR_THREADS=1 and 4.
echo "==> qor-fuzz --smoke determinism"
QOR_THREADS=1 ./target/release/qor-fuzz --smoke --out /tmp/qor_fuzz1.json
QOR_THREADS=4 ./target/release/qor-fuzz --smoke --out /tmp/qor_fuzz4.json
cmp /tmp/qor_fuzz1.json /tmp/qor_fuzz4.json
rm -f /tmp/qor_fuzz1.json /tmp/qor_fuzz4.json

echo "==> qor-fuzz crash-free gate (2100 programs)"
./target/release/qor-fuzz --out /dev/null

# Long-haul mode (off by default; set QOR_FUZZ_LONG=1 in a nightly lane):
# 9000 programs across a shifted seed window to probe beyond the PR gate.
if [ "${QOR_FUZZ_LONG:-0}" = "1" ]; then
    echo "==> qor-fuzz --long (QOR_FUZZ_LONG=1)"
    ./target/release/qor-fuzz --long --seed 100000 --out /dev/null
fi

# Search smoke gate: budget accounting, snapshot determinism, mid-run
# resume, and corruption typing — on both executor paths, because the
# engine fans evaluation batches through `par`.
echo "==> qor-search --self-test (QOR_THREADS=1)"
QOR_THREADS=1 ./target/release/qor-search --self-test

echo "==> qor-search --self-test (QOR_THREADS=4)"
QOR_THREADS=4 ./target/release/qor-search --self-test

# Benchmark compile-and-test gate: benchmark/ is a separate package that
# uses the workspace crates only through public items, so a change to a
# type it compiles against (CacheStats, Session, ...) fails here rather
# than in a benchmark run.
echo "==> benchmark tests"
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

# Sweep correctness smoke: one short dse_sweep round through a fresh
# Session. The benchmark exits 1 when a kernel's predicted front misses its
# ADRS bound or when a sampled Session prediction differs from uncached
# predict, so the cached inference path is checked end to end.
echo "==> dse_sweep correctness smoke"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload dse_sweep --seed 1 --seconds 1 --trace 0 >/dev/null

# Library crates expose typed errors (qor_core::QorError, kernels::KernelError);
# Box<dyn Error> is only tolerated inside comments (doctest scaffolding), in
# binaries (*/bin/) and in the qor-bench harness, whose subcommand `run`
# fns return it to their bins.
echo "==> typed-error gate"
violations=$(grep -rnE --exclude-dir=bin 'Box<dyn (std::error::)?Error>' src crates/*/src \
    | grep -v '^crates/bench/' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$violations" ]; then
    echo "public APIs must use typed errors, not Box<dyn Error>:" >&2
    echo "$violations" >&2
    exit 1
fi

echo "CI green."
