# Project task runner. `just --list` shows recipes.

# Full pre-merge gate: release build, tests, clippy and rustdoc clean,
# perfbench build, interpreter oracle, fuzz corpus, compile-server smoke, event-server load
# smoke, observability smoke, schedule validation, cache keys, perf gate, examples.
bench-check: interp-check fuzz-smoke riscfe-check serve-smoke serve-bench obs-smoke sched-check cache-check perf-check tune-smoke examples
    cargo build --release
    cargo test -q
    cargo clippy --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
    # perfbench is its own workspace, so nothing above compiles it; build
    # it into the directory perfbench/run.py uses, and run its unit tests
    # (they guard the analysis API it links against).
    cargo build --release --offline --manifest-path perfbench/Cargo.toml --target-dir .bench_build
    cargo test --release --offline --manifest-path perfbench/Cargo.toml --target-dir .bench_build

# Performance gate: serial table2 (one warmup, min of 3 runs) must stay
# within 25% of the committed BENCH_table2.json snapshot; a snapshot that
# timed a different number of workloads is stale and exits 2.
perf-check:
    cargo run --release -p epic-bench --bin bench_snapshot -- --check

# The examples, each of which asserts its own claims (the strcpy
# walkthrough: irredundant on-trace code, schedule height does not grow).
examples:
    cargo run --release -q -p epic-bench --example quickstart > /dev/null
    cargo run --release -q -p epic-bench --example strcpy_walkthrough > /dev/null
    cargo run --release -q -p epic-bench --example machine_sweep > /dev/null

# Interpreter oracle: the interp crate's unit and property tests (the
# multi-block generator against the reference interpreter at every fuel
# budget, `interp.steps` on every trap path), then the workload-scale
# oracle in release: outcomes, profiles and event streams against the
# reference on every workload and 2048 fuzz cases, the fuel sweep over
# the last 64 fetches of every workload run, and the corpus: liveness and
# training-input outcomes of every corpus program's source, baseline and
# optimized function against the references.
interp-check:
    cargo test --release -q -p epic-interp
    FUZZ_CASES=2048 cargo test --release -q -p epic-bench --test oracle_properties -- --include-ignored

# Schedule translation validation: the independent checker's negative
# suite and mutation kill-rate harness, replay-vs-estimate cross-checks,
# scheduler property tests, the dependence-edge golden digests (suite and
# corpus), the per-artifact cycle memo against fresh schedules (suite and
# corpus: cold, warm and cache-served memos), and whole-suite stage
# validation (the fuzz harness schedule-checks every pipeline step of the
# 26 workloads).
sched-check:
    cargo test --release -q -p epic-schedcheck
    cargo test --release -q -p epic-bench --test sched_validation --test sched_properties
    cargo test --release -q -p epic-bench --test dep_edges -- --include-ignored
    cargo test --release -q -p epic-bench --test cycle_memo -- --include-ignored
    cargo test --release -q -p epic-fuzz --test suite_workloads

# Stage artifacts and their keys: warm compiles share the cached
# functions and profiles, every artifact's memoized fingerprint equals a
# fresh one (suite and corpus), and a duplicate-name function round-trips
# through the disk layer with no miss. Then two `table2 --large` runs over
# one fresh cache directory: the second must be served from disk alone
# (the printer renames the corpus's duplicate block names, so this fails
# if a reloaded artifact keys the stages after it by its reloaded text).
cache-check:
    cargo test --release -q -p epic-bench --test stage_fingerprints -- --include-ignored
    rm -rf target/tmp/cache-check
    EPIC_CACHE_DIR=target/tmp/cache-check cargo run --release -q -p epic-bench --bin table2 -- --large --cache-stats > /dev/null
    EPIC_CACHE_DIR=target/tmp/cache-check cargo run --release -q -p epic-bench --bin table2 -- --large --cache-stats 2>&1 > /dev/null | tee /dev/stderr | grep -q '"misses":0,'
    rm -rf target/tmp/cache-check

# End-to-end smoke of the compile server: feeds a mixed batch twice
# through the real binary's stdin and requires the second pass to be
# answered entirely from the compile cache, byte-identical to the first;
# also serves a regular file on stdin. Then the event-server edge cases:
# every protocol path against a golden reply digest, backpressure,
# half-closes, torture clients, panics, and deterministic shedding.
serve-smoke:
    cargo test --release -q -p epic-serve --test serve_smoke
    cargo test --release -q -p epic-serve --test event_edge

# Event-server load smoke: replays a deterministic mixed stream through
# the epoll server (plus slow-reader and byte-per-syscall torture
# clients), requires the replies' digest to equal the committed golden
# digest, every reply in order, the torture clients to match a
# single-worker server, deterministic shed sets across replays, and a
# sane p99. Serve latency numbers come from perfbench, not from here.
serve-bench:
    cargo run --release -q -p epic-serve --bin loadgen -- --quick

# Autotuner smoke: a small fixed-seed search over four workloads, run at
# 1, 2 and 8 threads; the reports must be byte-identical and every elite
# must survive re-verification (diff test + schedule check).
tune-smoke:
    cargo run --release -q -p epic-tune --bin tune -- --quick --check > /dev/null

# Regenerate the committed autotuning snapshot (full suite, default
# budget, thread-sweep check; see EXPERIMENTS.md "Autotuning").
tune-snapshot:
    cargo run --release -q -p epic-tune --bin tune -- --check --out BENCH_tune.json

# Observability smoke: Chrome-trace export validity (one span per
# pipeline stage per workload, parsed with the bench Json parser) and the
# in-band metrics op / heartbeat / io-error paths through the real serve
# binary.
obs-smoke:
    cargo test --release -q -p epic-bench --test trace_export
    cargo test --release -q -p epic-serve --test obs_smoke

# Differential pipeline fuzzing over the fixed-seed smoke corpus (256
# cases), plus the RISC-lite frontend differential stage (48 cases).
# Override with FUZZ_SEED=<base> and/or FUZZ_CASES=<n>, e.g.
# `FUZZ_CASES=4096 just fuzz-smoke` for a deeper sweep; RISCFE_SEED /
# RISCFE_CASES control the frontend stage the same way.
fuzz-smoke:
    cargo test --release -q -p epic-fuzz --test fuzz_smoke

# RISC-lite frontend gate: assembler/interpreter/translator unit tests,
# the negative assembler suite, the frontend property tests, and the
# differential conformance suite (RISC-lite interpreter == translated IR
# == optimized IR on every fixed-seed corpus program, with the ≥5k-op
# programs pushed through the full pipeline + schedule checker).
riscfe-check:
    cargo test --release -q -p epic-riscfe
    cargo test --release -q -p epic-bench --test riscfe_properties --test riscfe_conformance

# Regenerate the perf-check baseline BENCH_table2.json (serial table2,
# one warmup plus min of 3 runs) on a quiet host.
bench-snapshot:
    cargo run --release -p epic-bench --bin bench_snapshot

# Regenerate the paper tables.
tables:
    cargo run --release -p epic-bench --bin table2
    cargo run --release -p epic-bench --bin table3
