#!/bin/bash
# Regenerates every committed results/BENCH_*.json with full-length runs.
# First results/BENCH_kernels.json: criterion timings for the kernel
# microbenches — the `*_ref` entries are the pre-optimisation seed kernels,
# the unsuffixed entries the tiled/parallel engine — plus per-pair median
# speedups and the steady-state scratch-arena allocation counters. Then
# the training, inference, cold-start and serving benches below.
set -eu
cd "$(dirname "$0")"

TIMINGS=$(mktemp)
ALLOC=$(mktemp)
trap 'rm -f "$TIMINGS" "$ALLOC"' EXIT

CRITERION_JSON="$TIMINGS" cargo bench -p revbifpn-bench --bench kernels
cargo run --release -q -p revbifpn-bench --bin kernel_alloc_report > "$ALLOC"

python3 - "$TIMINGS" "$ALLOC" > results/BENCH_kernels.json <<'EOF'
import json, sys

benches = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
scratch = json.load(open(sys.argv[2]))

by_id = {b["id"]: b for b in benches}
speedups = {}
for b in benches:
    if b["id"].endswith("_ref"):
        new = by_id.get(b["id"][: -len("_ref")])
        if new:
            speedups[new["id"]] = round(b["median_ns"] / new["median_ns"], 2)

json.dump(
    {
        "benchmarks": benches,
        "speedup_median_ref_over_new": speedups,
        "scratch_steady_state": scratch,
    },
    sys.stdout,
    indent=2,
)
print()
EOF

echo "wrote results/BENCH_kernels.json"

# Training-step bench: serial seed step vs the sharded engine at S=1/2/4,
# per-phase timings + on-the-spot bitwise shard-count determinism checks
# -> results/BENCH_train_step.json.
cargo run --release -q --example train_bench

# Fused frozen inference vs the unfused eval forward (S0/S3, batch 1/8)
# -> results/BENCH_infer_fused.json.
cargo run --release -q --example freeze_bench

# Artifact cold start: mmap vs copy deserialization, gated at >=5x on the
# S3 f32 row -> results/BENCH_cold_start.json.
cargo run --release -q --example coldstart_bench

# Quantized inference bench: int8 fast path vs the f32 frozen path vs the
# unfused eval forward (S0/S3, batch 1/8) -> results/BENCH_infer_quant.json.
cargo run --release -q --example quant_bench

# Multi-tenant serving throughput under 10x overload: goodput, typed shed
# breakdown, per-tenant p50/p99 -> results/BENCH_serve_throughput.json.
cargo run --release -q --example serve_throughput_bench
