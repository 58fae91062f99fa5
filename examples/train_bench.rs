//! Training-step throughput bench: the seed serial step (single model,
//! whole batch) versus the sharded data-parallel engine
//! (`revbifpn_train::ShardEngine`) at shard counts 1/2/4, with the
//! per-phase wall-clock breakdown (forward / reconstruct / backward /
//! reduce) from the `nn::meter` phase timers. The kernel thread budget is
//! the host's available parallelism, so the pool never oversubscribes.
//!
//! Also verifies the engine's determinism contract on the spot: merged
//! gradients and loss must be **bitwise** identical across shard counts.
//!
//! Usage:
//!   cargo run --release --example train_bench            # writes results/BENCH_train_step.json
//!   cargo run --release --example train_bench -- --smoke # quick determinism gate, no file
//!
//! Phase counters are aggregate thread-time: concurrent shard tasks each
//! charge their own clock, so on a multi-core host the phase sum can
//! exceed wall-clock. On a single-CPU host the sharded step cannot beat the
//! serial step through parallelism alone (same FLOPs + reduction overhead);
//! what remains is cache locality — smaller per-task working sets — and the
//! bench reports whatever the host actually delivers.

use revbifpn_repro::core::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_repro::data::{SynthScale, SynthScaleConfig};
use revbifpn_repro::nn::loss::{label_smooth, one_hot, softmax_cross_entropy};
use revbifpn_repro::nn::meter::{self, Phase, PhaseTimes};
use revbifpn_repro::rev::DriftConfig;
use revbifpn_repro::tensor::{par, Tensor};
use revbifpn_repro::train::{ShardEngine, ShardStepFaults};
use std::time::Instant;

const BATCH: usize = 16;
const ITERS: usize = 10;

fn setup() -> (RevBiFPNClassifier, Tensor, Tensor) {
    let data = SynthScale::new(SynthScaleConfig::new(32), 5);
    let model = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(data.num_classes()));
    let (images, labels) = data.batch(0, BATCH);
    let targets = label_smooth(&one_hot(&labels, data.num_classes()), 0.1);
    (model, images, targets)
}

struct Measured {
    wall_ms: f64,
    median_ms: f64,
    phases: PhaseTimes,
}

fn measure(iters: usize, mut step: impl FnMut()) -> Measured {
    for _ in 0..2 {
        step(); // warm-up: scratch arenas, persistent shard buffers
    }
    let p0 = meter::phase_times();
    // Min over iterations: on a shared host the fastest observed step is
    // the best estimate of the uncontended time; the median shows spread.
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            step();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let mut phases = meter::phase_times().since(&p0);
    phases.forward_nanos /= iters as u64;
    phases.reconstruct_nanos /= iters as u64;
    phases.backward_nanos /= iters as u64;
    phases.reduce_nanos /= iters as u64;
    phases.optimizer_nanos /= iters as u64;
    Measured { wall_ms: samples[0], median_ms: samples[iters / 2], phases }
}

/// One seed-style serial step: whole batch through one model.
fn serial_step(model: &mut RevBiFPNClassifier, images: &Tensor, targets: &Tensor) {
    let logits = meter::time_phase(Phase::Forward, || model.forward(images, RunMode::TrainReversible));
    let (_, dlogits) = softmax_cross_entropy(&logits, targets);
    model.zero_grads();
    model.backward(&dlogits);
}

fn grads_of(model: &mut RevBiFPNClassifier) -> Vec<Tensor> {
    let mut g = Vec::new();
    model.visit_params(&mut |p| g.push(p.grad.clone()));
    g
}

/// Runs one engine step at `shards` and returns (loss, grads).
fn engine_once(shards: usize) -> (f64, Vec<Tensor>) {
    let (mut model, images, targets) = setup();
    let mut engine = ShardEngine::new(model.cfg(), shards, DriftConfig::default());
    let out = engine.step(
        &mut model,
        &images,
        &targets,
        RunMode::TrainReversible,
        &ShardStepFaults::default(),
    );
    assert!(out.backward_ran, "clean step must complete");
    (out.loss, grads_of(&mut model))
}

fn assert_bitwise_match(shards: usize) {
    let (l1, g1) = engine_once(1);
    let (ls, gs) = engine_once(shards);
    assert_eq!(l1.to_bits(), ls.to_bits(), "loss diverged at S={shards}");
    assert_eq!(g1.len(), gs.len());
    for (i, (a, b)) in g1.iter().zip(&gs).enumerate() {
        assert_eq!(a, b, "grad tensor {i} diverged at S={shards}");
    }
    println!("determinism: S={shards} grads and loss bitwise-equal to S=1 ... ok");
}

fn phase_json(m: &Measured) -> String {
    const MS: f64 = 1e-6;
    format!(
        concat!(
            "{{ \"wall_ms_per_step\": {:.3}, \"wall_ms_median\": {:.3}, \"phases_ms\": {{ ",
            "\"forward\": {:.3}, \"reconstruct\": {:.3}, \"backward\": {:.3}, ",
            "\"reduce\": {:.3}, \"optimizer\": {:.3} }} }}"
        ),
        m.wall_ms,
        m.median_ms,
        m.phases.forward_nanos as f64 * MS,
        m.phases.reconstruct_nanos as f64 * MS,
        m.phases.backward_nanos as f64 * MS,
        m.phases.reduce_nanos as f64 * MS,
        m.phases.optimizer_nanos as f64 * MS,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    par::set_max_threads(threads);

    assert_bitwise_match(2);
    assert_bitwise_match(4);
    if smoke {
        println!("train_bench --smoke: ok");
        return;
    }

    let (mut model, images, targets) = setup();
    let serial = measure(ITERS, || serial_step(&mut model, &images, &targets));
    println!("serial (1 model, batch {BATCH}):     {:.2} ms/step", serial.wall_ms);

    let mut sharded = Vec::new();
    for shards in [1usize, 2, 4] {
        let (mut m, images, targets) = setup();
        let mut engine = ShardEngine::new(m.cfg(), shards, DriftConfig::default());
        let measured = measure(ITERS, || {
            let out = engine.step(&mut m, &images, &targets, RunMode::TrainReversible, &ShardStepFaults::default());
            assert!(out.backward_ran);
            engine.apply_bn_stats(&mut m);
        });
        println!("sharded S={shards} (threads {threads}): {:.2} ms/step", measured.wall_ms);
        sharded.push((shards, measured));
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"config\": {{ \"model\": \"tiny\", \"resolution\": 32, \"batch\": {BATCH}, \"threads\": {threads}, \"host_cpus\": {threads}, \"iters\": {ITERS}, \"wall_ms_per_step\": \"min over iters\" }},\n"
    ));
    json.push_str("  \"grads_bitwise_equal_across_shards\": true,\n");
    json.push_str(&format!("  \"serial_step\": {},\n", phase_json(&serial)));
    json.push_str("  \"sharded_step\": {\n");
    for (i, (shards, m)) in sharded.iter().enumerate() {
        let sep = if i + 1 == sharded.len() { "" } else { "," };
        json.push_str(&format!("    \"S{shards}\": {}{sep}\n", phase_json(m)));
    }
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_train_step.json", &json).expect("write bench json");
    println!("wrote results/BENCH_train_step.json");
}
