#!/usr/bin/env bash
# Workspace CI gate. Everything here runs offline: no registry
# dependencies, no network. Mirrored by .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== xtask lint (token-stream static analysis, zero findings)"
cargo run -q -p xtask -- lint

echo "== analyzer JSON report validates (CHK1101)"
# The machine-readable findings report must itself satisfy the schema
# CHK1101 publishes: the findings envelope, and the callgraph and
# effects sections opening where expected. A drifted or truncated
# report would otherwise gate nothing. The contents of those two
# sections are asserted on the in-memory report by
# crates/analyze/tests/invariants.rs, which the tier-1 step runs.
cargo run -q -p xtask -- lint --json > /tmp/commorder-lint.json
cargo run -q -p commorder --bin commorder-cli -- check /tmp/commorder-lint.json

echo "== CLI-surfaced analyze report matches xtask lint (analyze --source --json)"
# The report consumers script against through the public CLI surface
# must stay in lockstep with the xtask one: byte-identical to the
# report the previous step validated.
cargo run -q -p commorder --bin commorder-cli -- analyze --source --json \
  > /tmp/commorder-analyze-cli.json
cmp /tmp/commorder-lint.json /tmp/commorder-analyze-cli.json

echo "== analyzer goldens are fresh (regenerate + git diff)"
# The byte-frozen fixtures must match what the current analyzer emits;
# an analyzer change that forgets to re-freeze its goldens fails here,
# not on a future contributor's machine.
COMMORDER_UPDATE_GOLDEN=1 cargo test -q -p commorder-analyze --test golden > /dev/null
COMMORDER_UPDATE_GOLDEN=1 cargo test -q -p commorder-check --test golden > /dev/null
git diff --exit-code -- fixtures/analyze/golden crates/check/tests/golden

echo "== clippy (workspace deny-list)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== rustdoc (warnings are errors)"
# Unresolved or ambiguous intra-doc links fail here, so a renamed or
# deleted item cannot leave dangling doc references behind.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== tier-1: build + test"
cargo build --release -q
cargo test -q --workspace

echo "== repository benchmark tests (perfbench)"
# perfbench is a standalone package (its own [workspace]), so the
# workspace test step above never runs its tests: the mini-tier smoke
# runs of every workload that pin the benchmark's result fingerprints.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== suite smoke (--threads 4, deterministic report + telemetry)"
COMMORDER_CORPUS=mini COMMORDER_MAX_MATRICES=3 \
  cargo run --release -q -p commorder --bin commorder-cli -- \
  suite --threads 4 --corpus mini --max-matrices 3 \
  --json /tmp/commorder-suite-smoke.json --telemetry /tmp/commorder-suite-smoke.jsonl
test -s /tmp/commorder-suite-smoke.json
test -s /tmp/commorder-suite-smoke.jsonl

echo "== suite smoke (--threads 1) writes the byte-identical report"
# Neither the queue order nor the RABBIT family's shared detection may
# reach a result.
COMMORDER_CORPUS=mini COMMORDER_MAX_MATRICES=3 \
  cargo run --release -q -p commorder --bin commorder-cli -- \
  suite --threads 1 --corpus mini --max-matrices 3 \
  --json /tmp/commorder-suite-smoke-t1.json
cmp /tmp/commorder-suite-smoke.json /tmp/commorder-suite-smoke-t1.json

echo "== telemetry stream validates (CHK09xx)"
cargo run --release -q -p commorder --bin commorder-cli -- \
  check /tmp/commorder-suite-smoke.jsonl

echo "== unified bench harness (xtask bench --quick) + CHK12xx validation"
# One driver, three schema-versioned artifacts at the repo root:
# BENCH_analyze.json (lexer throughput + self-host analysis),
# BENCH_pipeline.json (trace-gen and LRU/PLRU/Belady simulated
# accesses/s, SpGEMM throughput + accumulator peaks, suite wall time,
# peak RSS) and BENCH_reorder.json
# (RABBIT / RABBIT++ / BOBA throughput per engine width; every
# reorder phase is serial, so the widths should match, and the run
# fails if the permutation fingerprint drifts across widths). --quick
# shrinks the inputs to CI scale; every artifact must pass the
# CHK1201/CHK1202 schema validators before it can gate anything.
cargo run --release -q -p xtask -- bench --quick
for b in BENCH_analyze.json BENCH_pipeline.json BENCH_reorder.json; do
  test -s "$b"
  cargo run --release -q -p commorder --bin commorder-cli -- check "$b"
done

echo "== SpGEMM metrics present in the pipeline bench artifact"
# The workload-layer SpGEMM leg must land its throughput and
# accumulator-peak rows in BENCH_pipeline.json; a silently dropped leg
# would pass the schema validators (they check rows, not coverage).
grep -q '"pipeline.spgemm_lru_accesses_per_second"' BENCH_pipeline.json
grep -q '"pipeline.spgemm_cluster_acc_peak_elements"' BENCH_pipeline.json

echo "== effect-pass metric present in the analyze bench artifact"
# Same coverage guard for the interprocedural effect-inference leg: the
# schema validators accept any well-formed metric set, so the row's
# presence is asserted by name.
grep -q '"analyze.effect_functions_per_second"' BENCH_analyze.json

echo "== regression gate (self-compare passes, injected regression fails)"
# The gate must accept the run it just produced and reject a doctored
# baseline: bump the baseline's lexer throughput to 9e9 tokens/s and
# the fresh run is a >30% regression against it, so --compare must
# exit nonzero. A gate that cannot fail gates nothing.
rm -rf /tmp/commorder-bench-baseline
mkdir -p /tmp/commorder-bench-baseline
cp BENCH_analyze.json BENCH_pipeline.json BENCH_reorder.json \
  /tmp/commorder-bench-baseline/
cargo run --release -q -p xtask -- bench --no-run \
  --compare /tmp/commorder-bench-baseline
sed -i -E 's/("analyze\.lex_tokens_per_second","value":)[0-9.eE+-]+/\19e9/' \
  /tmp/commorder-bench-baseline/BENCH_analyze.json
if cargo run --release -q -p xtask -- bench --no-run \
  --compare /tmp/commorder-bench-baseline; then
  echo "regression gate accepted an injected 9e9 baseline" >&2
  exit 1
fi

echo "== profile --flame determinism (byte-identical at 1 vs 4 threads)"
# The folded flamegraph is count-based (spans entered, not wall time),
# so the export must be byte-identical regardless of engine width.
COMMORDER_CORPUS=mini ./target/release/commorder-cli \
  profile --threads 1 --corpus mini --max-matrices 2 \
  --flame /tmp/commorder-flame-t1.folded > /dev/null
COMMORDER_CORPUS=mini ./target/release/commorder-cli \
  profile --threads 4 --corpus mini --max-matrices 2 \
  --flame /tmp/commorder-flame-t4.folded > /dev/null
cmp /tmp/commorder-flame-t1.folded /tmp/commorder-flame-t4.folded

echo "== obs-alloc counting allocator (feature-gated build + tests)"
# The allocation-tracking global allocator is off by default; this
# keeps the feature-gated unsafe module compiling and its span-path
# attribution tests green.
cargo test -q -p commorder-obs --features obs-alloc

echo "== streamed-generation tripwire (mega tier, ulimit -v 256 MiB)"
# The mega tier must be emitted straight into CSR — a reintroduced
# intermediate edge list for mega-soc-rmat-1m (8.2M undirected edges,
# ~130 MiB as (u32, u32) pairs before dedup) blows the same 256 MiB
# address-space ceiling the trace tripwire uses. Streamed generation
# peaks well under it.
(
  ulimit -v 262144
  MALLOC_ARENA_MAX=2 ./target/release/commorder-cli corpus stats mega-soc-rmat-1m
)

echo "== hostile Matrix Market header (ulimit -v 1 GiB)"
# fixtures/hostile_header.mtx declares a 4294967295 x 4294967295 matrix
# with one entry: its row offsets alone would take 16 GiB. The CSR
# assembler reserves that buffer fallibly, so analyze must fail with
# the CLI's error exit (1), never abort on allocation failure (SIGABRT,
# exit 134).
status=0
(
  ulimit -v 1048576
  ./target/release/commorder-cli analyze fixtures/hostile_header.mtx
) || status=$?
if [ "$status" -ne 1 ]; then
  echo "hostile header: expected exit 1, got $status" >&2
  exit 1
fi

echo "== streaming-memory tripwire (ulimit -v 256 MiB)"
# Regression tripwire for reintroduced full-trace materialization: the
# largest synth corpus matrix (soc-rmat-xl, ~6.2M accesses per SpMV
# trace) runs the whole paper grid under a hard 256 MiB address-space
# ceiling. The streaming pipeline peaks at ~200 MiB VSZ (measured with
# MALLOC_ARENA_MAX=2 for a deterministic arena count), while holding
# even one full Vec<Access> trace adds 48-71 MiB and aborts on
# allocation failure. Uses the binary built by the tier-1 step; cargo
# itself must stay outside the limited subshell.
(
  ulimit -v 262144
  MALLOC_ARENA_MAX=2 ./target/release/commorder-cli \
    suite --threads 2 --corpus standard --only soc-rmat-xl \
    --json /tmp/commorder-tripwire.json
)
test -s /tmp/commorder-tripwire.json

echo "== SpGEMM streaming tripwire (ulimit -v 256 MiB)"
# Gustavson SpGEMM must stream row by row: the opt-block-512 self-
# multiply replays ~40M accesses per kernel, and materializing that
# trace (or the ~10M-entry result) would blow the same 256 MiB ceiling.
# Cluster-wise runs through RABBIT community detection inside the
# pipeline, so this also pins the detect-assign-replay path.
(
  ulimit -v 262144
  MALLOC_ARENA_MAX=2 ./target/release/commorder-cli \
    suite --threads 2 --corpus standard --only opt-block-512 \
    --kernels spgemm,spgemm-cluster --techniques rabbit++ \
    --json /tmp/commorder-spgemm-tripwire.json
)
test -s /tmp/commorder-spgemm-tripwire.json

echo "== strict-checks feature"
cargo test -q -p commorder-sparse -p commorder-cachesim -p commorder \
  --features commorder-sparse/strict-checks,commorder-cachesim/strict-checks,commorder/strict-checks

echo "== bench smoke (in-tree microbenches, fast mode)"
# Runs every microbench once at reduced size. benches/trace_stream.rs
# asserts the 8 B/access Belady next-use bound here, so the bound is
# gated locally and not only in the hosted workflow.
COMMORDER_BENCH_FAST=1 cargo bench -q -p commorder-bench

echo "ci: all gates passed"
