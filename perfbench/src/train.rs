//! `train`: one closed-loop trainer, S0 channels and depth at 128 px,
//! batch 8, two shards, thread budget 2. Throughput and latency are scaled
//! to the quiet host's speed by the reference timed on both threads
//! between the calls (see [`crate::hostspeed`]). A call lasts seconds,
//! longer than the host's speed holds still, so the run's median reference
//! scales the run rather than each call's own.

use crate::host;
use crate::hostspeed::{self, HostSpeed};
use crate::report::{Gate, Json, Outcome};
use crate::stats::{median, windowed_rate};
use crate::trace::{by_name, Tracer};
use crate::Ctx;
use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_data::{SynthScale, SynthScaleConfig};
use revbifpn_nn::loss::{label_smooth, one_hot, softmax_cross_entropy};
use revbifpn_nn::meter;
use revbifpn_nn::CacheMode;
use revbifpn_rev::{DriftConfig, RevStage, ReversibleSequence, TrainMode};
use revbifpn_tensor::Tensor;
use revbifpn_train::{
    train_classifier_with, RunOptions, Sgd, ShardEngine, ShardStepFaults, TrainConfig,
    TrainHistory,
};
use std::time::Instant;

/// Input resolution.
const RES: usize = 128;
/// Batch size.
const BATCH: usize = 8;
/// Micro-batch shards.
const SHARDS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const LABEL_SMOOTHING: f32 = 0.1;

fn data(seed: u64) -> SynthScale {
    SynthScale::new(SynthScaleConfig::new(RES), seed)
}

/// S0 channels and depth at 128 px. The shard engine requires dropout 0.
fn model_cfg(seed: u64, classes: usize) -> RevBiFPNConfig {
    let mut cfg = RevBiFPNConfig::s0(classes)
        .with_resolution(RES)
        .with_seed(seed);
    cfg.dropout = 0.0;
    cfg
}

fn train_cfg(seed: u64, steps: usize) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size: BATCH,
        train_size: steps * BATCH,
        val_size: 0,
        seed,
        shards: SHARDS,
        ..TrainConfig::small()
    }
}

fn batch(data: &SynthScale, step: usize) -> (Tensor, Tensor, Vec<usize>) {
    let (images, labels) = data.batch((step * BATCH) as u64, BATCH);
    let targets = label_smooth(&one_hot(&labels, data.num_classes()), LABEL_SMOOTHING);
    (images, targets, labels)
}

fn grads(model: &mut RevBiFPNClassifier) -> Vec<u32> {
    let mut bits = Vec::new();
    model.visit_params(&mut |p| bits.extend(p.grad.data().iter().map(|v| v.to_bits())));
    bits
}

/// One shard-engine step at `shards` on a fresh model: `(loss bits, grad bits)`.
fn engine_step_bits(seed: u64, shards: usize) -> (u64, Vec<u32>) {
    let data = data(seed);
    let cfg = model_cfg(seed, data.num_classes());
    let mut model = RevBiFPNClassifier::new(cfg.clone());
    let mut engine = ShardEngine::new(&cfg, shards, DriftConfig::default());
    let (images, targets, _) = batch(&data, 0);
    let out = engine.step(
        &mut model,
        &images,
        &targets,
        RunMode::TrainReversible,
        &ShardStepFaults::default(),
    );
    (out.loss.to_bits(), grads(&mut model))
}

/// Steps a timed call trains beyond its first.
const CHUNK: usize = 4;

/// Seconds one `train_classifier_with` call of `steps` steps takes on a
/// freshly built same-seed model (built outside the timing), and its
/// history.
fn timed_call(seed: u64, data: &SynthScale, steps: usize) -> (f64, TrainHistory) {
    let mut model = RevBiFPNClassifier::new(model_cfg(seed, data.num_classes()));
    let t = Instant::now();
    let h = train_classifier_with(
        &mut model,
        data,
        &train_cfg(seed, steps),
        RunMode::TrainReversible,
        &RunOptions::default(),
    );
    (t.elapsed().as_secs_f64(), h)
}

fn loss(h: &TrainHistory) -> f64 {
    h.epochs.last().map_or(f64::NAN, |e| e.train_loss)
}

fn all_bitwise_equal(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[0].to_bits() == w[1].to_bits())
}

/// End-to-end pass: set-up (repeated), the shard gate, then pairs of
/// timed calls until `seconds` have passed — one of `CHUNK + 1` steps and
/// one of a single step, each on a freshly built same-seed model.
///
/// Every call builds its `ShardEngine` (two model replicas) and warms cold
/// scratch arenas in its first step. The single-step calls measure that
/// per-call set-up plus one step; a long call's steps time is its wall
/// time minus their median, so the reported throughput excludes set-up.
/// Fresh models keep every call's work identical, so a long run never
/// drifts into a diverged regime, and their losses must agree bitwise.
pub fn run(ctx: &Ctx, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut short_losses = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let data = data(ctx.seed);
        // Warm-up: one trainer step (engine replicas, scratch arenas, pool).
        let (_, h) = timed_call(ctx.seed, &data, 1);
        setups.push(t.elapsed().as_secs_f64());
        short_losses.push(loss(&h));
        kept = Some(data);
    }
    let data = kept.expect("at least one set-up");
    let cfg = model_cfg(ctx.seed, data.num_classes());
    let engine_new_ms: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            drop(ShardEngine::new(&cfg, SHARDS, DriftConfig::default()));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let s1 = engine_step_bits(ctx.seed, 1);
    let s2 = engine_step_bits(ctx.seed, SHARDS);
    out.gates.push(Gate::new(
        "train.shards2_step_equals_shards1",
        s1 == s2,
        format!("loss and {} gradient values compared bitwise", s1.1.len()),
    ));
    let mut speed = [HostSpeed::default(), HostSpeed::default()];
    let rss_reset = host::reset_peak_rss();
    hostspeed::time_pair_ms(&mut speed);

    let (mut long_s, mut short_s, mut long_losses) = (Vec::new(), Vec::new(), Vec::new());
    let mut ref_ms = Vec::new();
    let (mut steps, mut skips, mut aborted, mut peak) = (0usize, 0u64, false, 0usize);
    let t = Instant::now();
    while long_s.len() < 3 || t.elapsed().as_secs_f64() < seconds {
        for n in [CHUNK + 1, 1] {
            ref_ms.push(hostspeed::time_pair_ms(&mut speed));
            let (s, h) = timed_call(ctx.seed, &data, n);
            steps += n;
            skips += h.nonfinite_skips;
            aborted |= h.aborted;
            peak = peak.max(h.peak_activation_bytes());
            if n == 1 {
                short_s.push(s);
                short_losses.push(loss(&h));
            } else {
                long_s.push(s);
                long_losses.push(loss(&h));
            }
        }
    }
    ref_ms.push(hostspeed::time_pair_ms(&mut speed));
    let rss = host::peak_rss_mb().unwrap_or(f64::NAN);

    let scale = hostspeed::NOMINAL_PAIR_MS / median(&ref_ms);
    let call_setup_s = median(&short_s);
    let chunk_s: Vec<f64> = long_s.iter().map(|s| s - call_setup_s).collect();
    let step_ms: Vec<f64> = chunk_s.iter().map(|s| s * 1e3 / CHUNK as f64).collect();
    out.attempted = steps as u64;
    out.failed = skips;
    out.e2e.put("setup_s", median(&setups), "s");
    out.e2e.put("peak_rss_mb", rss, "MiB");
    // One window per long call: the median call's samples per second.
    let rate = windowed_rate(&chunk_s, 1, (CHUNK * BATCH) as f64);
    out.e2e.put("throughput_per_s", rate / scale, "1/s");
    out.e2e
        .put("latency_p50_ms", median(&step_ms) * scale, "ms");
    out.e2e.put(
        "ok_share",
        steps.saturating_sub(skips as usize) as f64 / steps as f64,
        "share",
    );

    out.gates.push(Gate::new(
        "train.same_seed_losses_bitwise_equal",
        all_bitwise_equal(&short_losses) && short_losses.iter().all(|l| l.is_finite()),
        format!(
            "{} fresh same-seed one-step calls ({SETUP_REPS} in set-up), losses {short_losses:?}",
            short_losses.len()
        ),
    ));
    out.gates.push(Gate::new(
        "train.timed_calls_losses_bitwise_equal",
        all_bitwise_equal(&long_losses),
        format!(
            "{} same-seed {}-step calls, losses {long_losses:?}",
            long_losses.len(),
            CHUNK + 1
        ),
    ));
    out.gates.push(Gate::new(
        "train.no_nonfinite_steps",
        skips == 0 && !aborted,
        format!("{skips} skipped of {steps}, aborted {aborted}"),
    ));
    let engine_new = median(&engine_new_ms);
    out.detail(
        "train",
        Json::obj([
            ("steps", Json::Int(steps as i64)),
            ("batch", Json::Int(BATCH as i64)),
            ("resolution", Json::Int(RES as i64)),
            ("shards", Json::Int(SHARDS as i64)),
            ("peak_activation_bytes", Json::Int(peak as i64)),
            ("peak_rss_reset", Json::Bool(rss_reset)),
            ("long_call_train_loss", Json::Num(long_losses[0])),
            ("engine_new_ms", Json::Num(engine_new)),
            (
                "engine_new_share_of_long_call",
                Json::Num(engine_new * 1e-3 / median(&long_s)),
            ),
            ("one_step_call_ms", Json::Num(call_setup_s * 1e3)),
            (
                "reference_nominal_ms",
                Json::Num(hostspeed::NOMINAL_PAIR_MS),
            ),
            ("reference_p50_ms", Json::Num(median(&ref_ms))),
            ("speed_scale", Json::Num(scale)),
            (
                "call_setup_ms",
                Json::Num(call_setup_s * 1e3 - median(&step_ms)),
            ),
            (
                "long_call_ms",
                Json::Arr(long_s.iter().map(|s| Json::Num(s * 1e3)).collect()),
            ),
            (
                "one_step_call_samples_ms",
                Json::Arr(short_s.iter().map(|s| Json::Num(s * 1e3)).collect()),
            ),
            (
                "step_wall_ms",
                Json::Arr(step_ms.into_iter().map(Json::Num).collect()),
            ),
            (
                "setup_samples_s",
                Json::Arr(setups.into_iter().map(Json::Num).collect()),
            ),
        ]),
    );
    out
}

/// The decomposed training loop of the traced run. It cycles three step
/// kinds over the same data:
///
/// * `train.engine_step` — the trainer's sharded step (`ShardEngine`);
/// * `train.serial_step` — a serial step through `ReversibleSequence`
///   (the whole body as one call, sentinel included);
/// * `train.staged_step` — the same serial step with every `RevStage`
///   called on its own, so each stage gets a span.
struct Loop {
    data: SynthScale,
    engine_model: RevBiFPNClassifier,
    engine: ShardEngine,
    engine_opt: Sgd,
    serial_model: RevBiFPNClassifier,
    stages: Vec<Box<dyn RevStage>>,
    serial_opt: Sgd,
    step: usize,
    nonfinite: u64,
    peak_bytes: usize,
    reduce_ms: Vec<f64>,
    reconstruct_ms: Vec<f64>,
    backward_ms: Vec<f64>,
}

const LR: f32 = 0.02;

impl Loop {
    fn new(seed: u64) -> Self {
        let data = data(seed);
        let cfg = model_cfg(seed, data.num_classes());
        let engine_model = RevBiFPNClassifier::new(cfg.clone());
        let engine = ShardEngine::new(&cfg, SHARDS, DriftConfig::default());
        let mut serial_model = RevBiFPNClassifier::new(cfg);
        let stages = serial_model.backbone_mut().take_body().into_stages();
        let defaults = TrainConfig::small();
        Self {
            data,
            engine_model,
            engine,
            engine_opt: Sgd::new(defaults.momentum, defaults.weight_decay),
            serial_model,
            stages,
            serial_opt: Sgd::new(defaults.momentum, defaults.weight_decay),
            step: 0,
            nonfinite: 0,
            peak_bytes: 0,
            reduce_ms: Vec::new(),
            reconstruct_ms: Vec::new(),
            backward_ms: Vec::new(),
        }
    }

    fn engine_step(&mut self, tr: &Tracer) {
        let req = self.step as u64;
        tr.scope("op.train.engine_step", req, || {
            let (images, targets, _) = tr.scope("data.batch", req, || batch(&self.data, self.step));
            meter::reset();
            let p0 = meter::phase_times();
            let out = tr.scope("train.engine", req, || {
                self.engine.step(
                    &mut self.engine_model,
                    &images,
                    &targets,
                    RunMode::TrainReversible,
                    &ShardStepFaults::default(),
                )
            });
            let dp = meter::phase_times().since(&p0);
            self.reduce_ms.push(dp.reduce_nanos as f64 * 1e-6);
            self.peak_bytes = self.peak_bytes.max(meter::peak());
            if !out.backward_ran {
                self.nonfinite += 1;
                self.engine.clear_replica_caches();
                return;
            }
            tr.scope("train.bn_apply", req, || {
                self.engine.apply_bn_stats(&mut self.engine_model)
            });
            let model = &mut self.engine_model;
            tr.scope("train.sgd", req, || {
                self.engine_opt.step(LR, |f| model.visit_params(f))
            });
        });
        self.step += 1;
    }

    fn serial_step(&mut self, tr: &Tracer, staged: bool) {
        let req = self.step as u64;
        let root = if staged {
            "op.train.staged_step"
        } else {
            "op.train.serial_step"
        };
        tr.scope(root, req, || {
            let (images, targets, _) = tr.scope("data.batch", req, || batch(&self.data, self.step));
            let model = &mut self.serial_model;
            model.zero_grads();
            for s in &mut self.stages {
                s.visit_params(&mut |p| p.zero_grad());
            }
            let s0 = tr.scope("core.stem_fwd", req, || {
                model.backbone_mut().stem_forward(&images, CacheMode::Stats)
            });
            let mut seq = None;
            let ys = if staged {
                tr.scope("rev.staged_fwd", req, || {
                    let mut cur = vec![s0];
                    for (i, s) in self.stages.iter_mut().enumerate() {
                        cur = tr.scope(&format!("rev.stage.{i}.fwd"), req, || {
                            s.forward(&cur, CacheMode::Stats)
                        });
                    }
                    cur
                })
            } else {
                let mut body = ReversibleSequence::new();
                for s in self.stages.drain(..) {
                    body.add(s);
                }
                body.set_drift_config(DriftConfig::default());
                let ys = tr.scope("rev.body_fwd", req, || {
                    body.forward(vec![s0], CacheMode::Stats)
                });
                seq = Some(body);
                ys
            };
            let logits = tr.scope("core.neckhead_fwd", req, || {
                model.neck_head_forward(&ys, CacheMode::Full)
            });
            if !logits.is_finite() {
                self.nonfinite += 1;
                model.clear_cache();
                for s in seq.take().map(|b| b.into_stages()).unwrap_or_default() {
                    self.stages.push(s);
                }
                for s in &mut self.stages {
                    s.clear_cache();
                }
                return;
            }
            let (_, dlogits) =
                tr.scope("nn.loss", req, || softmax_cross_entropy(&logits, &targets));
            let dys = tr.scope("core.neckhead_bwd", req, || {
                model.neck_head_backward(&dlogits)
            });
            let p0 = meter::phase_times();
            let dxs = if let Some(mut body) = seq.take() {
                let (_, dxs) = tr.scope("rev.body_bwd", req, || {
                    body.backward(&ys, dys, TrainMode::Reversible)
                });
                self.stages = body.into_stages();
                dxs
            } else {
                tr.scope("rev.staged_bwd", req, || {
                    let (mut cur_y, mut cur_dy) = (ys, dys);
                    for (i, s) in self.stages.iter_mut().enumerate().rev() {
                        (cur_y, cur_dy) = tr.scope(&format!("rev.stage.{i}.bwd"), req, || {
                            s.backward_rev(&cur_y, &cur_dy)
                        });
                    }
                    cur_dy
                })
            };
            let dp = meter::phase_times().since(&p0);
            self.reconstruct_ms.push(dp.reconstruct_nanos as f64 * 1e-6);
            self.backward_ms.push(dp.backward_nanos as f64 * 1e-6);
            tr.scope("core.stem_bwd", req, || {
                model.backbone_mut().stem_backward(&dxs[0])
            });
            let stages = &mut self.stages;
            tr.scope("train.sgd", req, || {
                self.serial_opt.step(LR, |f| {
                    model.visit_params(f);
                    for s in stages.iter_mut() {
                        s.visit_params(f);
                    }
                })
            });
        });
        self.step += 1;
    }

    /// One engine, one serial and one staged step.
    fn cycle(&mut self, tr: &Tracer) {
        self.engine_step(tr);
        self.serial_step(tr, false);
        self.serial_step(tr, true);
    }
}

/// Traced pass: warm-up cycle, an untraced comparison segment when
/// `overhead_s > 0`, then traced cycles for `seconds`.
pub fn traced(ctx: &Ctx, tr: &Tracer, seconds: f64, overhead_s: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut lp = Loop::new(ctx.seed);
    let off = Tracer::new(false);
    lp.cycle(&off);

    let mut untraced = Vec::new();
    let t = Instant::now();
    while overhead_s > 0.0 && (untraced.is_empty() || t.elapsed().as_secs_f64() < overhead_s) {
        let c = Instant::now();
        lp.cycle(&off);
        untraced.push(c.elapsed().as_secs_f64());
    }

    lp.reduce_ms.clear();
    lp.reconstruct_ms.clear();
    lp.backward_ms.clear();
    let growths0 = meter::scratch_stats().heap_growths;
    let fallbacks0 = meter::event_count("rev.drift_fallback");
    let mut traced_cycles = Vec::new();
    let t = Instant::now();
    let mut cycles = 0;
    while cycles == 0 || t.elapsed().as_secs_f64() < seconds {
        let c = Instant::now();
        lp.cycle(tr);
        traced_cycles.push(c.elapsed().as_secs_f64());
        cycles += 1;
    }
    let wall = t.elapsed().as_secs_f64();

    let spans = tr.spans();
    let agg = by_name(&spans);
    let self_med = |name: &str| agg.get(name).map_or(0.0, |l| median(&l.per_call_ms));
    let dur_med = |name: &str| {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 * 1e-6)
            .collect();
        median(&d)
    };
    let m = &mut out.layers;
    for name in [
        "data.batch",
        "core.stem_fwd",
        "rev.body_fwd",
        "rev.body_bwd",
        "core.neckhead_fwd",
        "nn.loss",
        "core.neckhead_bwd",
        "core.stem_bwd",
        "train.sgd",
    ] {
        m.put(format!("{name}_ms"), self_med(name), "ms");
    }
    m.put(
        "train.serial_step_ms",
        dur_med("op.train.serial_step"),
        "ms",
    );
    m.put(
        "train.engine_step_ms",
        dur_med("op.train.engine_step"),
        "ms",
    );
    m.put("train.reduce_ms", median(&lp.reduce_ms), "ms");
    m.put("rev.reconstruct_ms", median(&lp.reconstruct_ms), "ms");
    m.put("rev.backward_ms", median(&lp.backward_ms), "ms");
    let mut stage_sum = 0.0;
    for i in 0..lp.stages.len() {
        for dir in ["fwd", "bwd"] {
            let v = self_med(&format!("rev.stage.{i}.{dir}"));
            stage_sum += v;
            m.put(format!("rev.stage.{i}.{dir}_ms"), v, "ms");
        }
    }
    let body = self_med("rev.body_fwd") + self_med("rev.body_bwd");
    m.put("rev.body_overhead_ms", body - stage_sum, "ms");
    m.put("rev.peak_activation_bytes", lp.peak_bytes as f64, "bytes");
    m.put(
        "tensor.scratch_heap_growths",
        (meter::scratch_stats().heap_growths - growths0) as f64,
        "count",
    );
    m.put(
        "rev.drift_fallbacks",
        (meter::event_count("rev.drift_fallback") - fallbacks0) as f64,
        "count",
    );
    m.put("train.nonfinite_skips", lp.nonfinite as f64, "count");

    out.attempted = lp.step as u64;
    out.failed = lp.nonfinite;
    out.gates.push(Gate::new(
        "train.traced_steps_finite",
        lp.nonfinite == 0,
        format!("{} non-finite of {} steps", lp.nonfinite, lp.step),
    ));
    // Tracing overhead compares the same cycle with and without spans.
    out.e2e
        .put("latency_p50_ms", median(&traced_cycles) * 1e3, "ms");
    if !untraced.is_empty() {
        out.e2e
            .put("untraced_latency_p50_ms", median(&untraced) * 1e3, "ms");
    }
    out.detail("train_traced_wall_s", Json::Num(wall));
    out
}
