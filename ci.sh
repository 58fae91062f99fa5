#!/bin/bash
# CI gate: release build, full test suite (default threading), lint wall,
# then the same test suite capped to a single kernel thread via
# REVBIFPN_MAX_THREADS — tests that explicitly call set_max_threads still
# exercise the multi-threaded paths (programmatic overrides win), while
# everything else runs single-threaded, catching accidental dependence on
# worker-pool concurrency.
set -eu
cd "$(dirname "$0")"

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test (default thread budget)"
cargo test -q --workspace

echo "== cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "== cargo test (REVBIFPN_MAX_THREADS=1)"
REVBIFPN_MAX_THREADS=1 cargo test -q --workspace

echo "== fault-injection suite (resilience layer, end to end)"
cargo test -q --test fault_injection

echo "== serving soak (2x overload + injected faults, bounded memory)"
cargo test -q --test serve_soak
cargo test -q -p revbifpn-serve

echo "== frozen inference fast path (parity + steady-state guarantees)"
cargo test -q --test freeze_parity

echo "== quantized fast path, forced-scalar kernels (bitwise vs vector)"
REVBIFPN_INT8_FORCE_SCALAR=1 cargo test -q --test freeze_parity
REVBIFPN_INT8_FORCE_SCALAR=1 cargo test -q -p revbifpn-tensor qgemm
REVBIFPN_INT8_FORCE_SCALAR=1 cargo test -q -p revbifpn-tensor quant

echo "== lifecycle chaos soak (seeded faults: reload/rollback/drain, smoke)"
REVBIFPN_CHAOS_ITERS=12 cargo test -q --release --test lifecycle_chaos

echo "== multi-tenant overload soak (quotas, breakers, fair DRR, tenant chaos, smoke)"
REVBIFPN_TENANT_SOAK_MS=1500 cargo test -q --release --test tenant_soak

echo "== batcher soak (same tenant chaos with continuous batching at cap 8, smoke)"
REVBIFPN_TENANT_SOAK_MS=1500 REVBIFPN_TENANT_SOAK_BATCH=8 cargo test -q --release --test tenant_soak

echo "== serve throughput under 10x overload (goodput + typed shed gates, smoke)"
cargo run -q --release --example serve_throughput_bench -- --smoke

echo "== artifact cold start (mmap vs copy, bitwise round-trip gate)"
cargo run -q --release --example coldstart_bench -- --smoke

echo "== sharded training step (bitwise S=2/S=4 vs S=1 invariance smoke)"
cargo run -q --release --example train_bench -- --smoke

echo "== benchmark program builds and passes its tests against the current crate APIs"
CARGO_TARGET_DIR=.bench_build cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "== checkpoint cross-profile round-trip (release writes, debug reads)"
CKPT_TMP="$(mktemp -d)/xprofile.ckpt"
cargo run -q --release --example ckpt_tool -- write "$CKPT_TMP" | tee /tmp/ckpt_write.out
cargo run -q --example ckpt_tool -- read "$CKPT_TMP" | tee /tmp/ckpt_read.out
W="$(grep 'param checksum' /tmp/ckpt_write.out)"
R="$(grep 'param checksum' /tmp/ckpt_read.out)"
rm -rf "$(dirname "$CKPT_TMP")" /tmp/ckpt_write.out /tmp/ckpt_read.out
if [ "$W" != "$R" ]; then
    echo "checkpoint checksum mismatch: release wrote '$W', debug read '$R'" >&2
    exit 1
fi

echo "ci.sh: all gates passed"
