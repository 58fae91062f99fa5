//! `serve_flood`: one open-loop generator thread drives a one-worker
//! `ServeEngine` serving the tiny model at 32 px f32 with default
//! batching, started from an mmap'd artifact, with a paced interactive
//! tenant and two quota-limited flood tenants.
//!
//! Latency is timed on the client with a monotonic clock from each
//! request's *due* instant (the engine's own `latency_ms` is truncated to
//! whole milliseconds), so a generator stall is charged to the requests it
//! delays. The generator records how late it ran and the run is marked
//! invalid when it fell behind.

use crate::host;
use crate::report::{Gate, Json, Metrics, Outcome};
use crate::schedule::{open_loop, Arrival};
use crate::stats::{median, percentile_sorted, windowed_median, Summary};
use crate::trace::Tracer;
use crate::Ctx;
use revbifpn::artifact::save_classifier_artifact;
use revbifpn::{FrozenClassifier, RevBiFPNClassifier, RevBiFPNConfig};
use revbifpn_data::{SynthScale, SynthScaleConfig};
use revbifpn_nn::loss::argmax_rows;
use revbifpn_serve::{
    BreakerConfig, HealthSnapshot, PendingResponse, QuotaScope, ServeConfig, ServeEngine,
    ServeError, TenantId, TenantQuota,
};
use revbifpn_tensor::Tensor;
use std::path::Path;
use std::time::{Duration, Instant};

const RES: usize = 32;
/// Distinct seeded input images.
const POOL: usize = 64;
const SETUP_REPS: usize = 5;
/// Requests sent sequentially after start-up, before timing.
const WARMUP: usize = 16;

/// Batched capacity of the one-worker engine on the reference host
/// (2-CPU x86-64 with AVX2, tiny model at 32 px, thread budget 1): the
/// rate a closed loop with 8 requests in flight completes at degrade
/// level 0. The offered load is a fixed multiple of it, so every run and
/// every commit is offered the same load.
pub const CAPACITY_RPS: f64 = 520.0;
/// The paced interactive tenant's rate.
pub const PACED_RPS: f64 = 100.0;
/// The paced tenant's latency limit, ms from the due instant.
pub const PACED_SLO_MS: f64 = 50.0;
/// Total offered load.
pub const FLOOD_TOTAL_RPS: f64 = 3.0 * CAPACITY_RPS;

const PACED: TenantId = TenantId(1);
const FLOOD_A: TenantId = TenantId(2);
const FLOOD_B: TenantId = TenantId(3);

/// `(tenant, offered rate)` per stream; the paced tenant first.
fn streams() -> [(TenantId, f64); 3] {
    let flood = FLOOD_TOTAL_RPS - PACED_RPS;
    [
        (PACED, PACED_RPS),
        (FLOOD_A, flood * 2.0 / 3.0),
        (FLOOD_B, flood / 3.0),
    ]
}

fn model_cfg(seed: u64) -> RevBiFPNConfig {
    RevBiFPNConfig::tiny(SynthScaleConfig::new(RES).num_classes()).with_seed(seed)
}

/// The engine: one worker, default batching, and a
/// quota table in which the paced tenant is unconstrained and the flood
/// tenants are rate- and in-flight-limited, with live circuit breakers.
/// The flood in-flight caps (5 + 3) keep the shared queue under the
/// degradation watermark (`DegradeConfig::high_depth` = 12) while still
/// keeping the worker saturated: with deeper caps the ladder stepped
/// between levels mid-run and the paced tenant's latency flipped between
/// regimes from seed to seed.
fn engine_cfg(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(model_cfg(seed));
    cfg.workers = 1;
    cfg.queue_capacity = 64;
    cfg.breaker = BreakerConfig {
        window: 16,
        min_samples: 8,
        trip_ratio: 0.5,
        open_ms: 500,
        half_open_probes: 2,
    };
    cfg.tenant_quotas = vec![
        (
            PACED,
            TenantQuota {
                rate_per_sec: f64::INFINITY,
                burst: 256,
                max_in_flight: 16,
                weight: 4,
            },
        ),
        (
            FLOOD_A,
            TenantQuota {
                rate_per_sec: CAPACITY_RPS / 2.0,
                burst: 64,
                max_in_flight: 5,
                weight: 1,
            },
        ),
        (
            FLOOD_B,
            TenantQuota {
                rate_per_sec: CAPACITY_RPS / 4.0,
                burst: 32,
                max_in_flight: 3,
                weight: 2,
            },
        ),
    ];
    cfg
}

/// Seeded input pool and each input's class under a direct frozen forward.
struct Inputs {
    images: Vec<Tensor>,
    expected: Vec<usize>,
}

fn inputs(seed: u64) -> Inputs {
    let data = SynthScale::new(SynthScaleConfig::new(RES), seed);
    let images: Vec<Tensor> = (0..POOL).map(|i| data.batch(i as u64, 1).0).collect();
    let frozen = RevBiFPNClassifier::new(model_cfg(seed))
        .freeze()
        .expect("tiny freezes");
    let expected = images
        .iter()
        .map(|x| argmax_rows(&frozen.forward(x))[0])
        .collect();
    Inputs { images, expected }
}

/// Freeze, write the artifact, start the engine from it, warm up.
fn start(ctx: &Ctx, tr: &Tracer, path: &Path, images: &[Tensor]) -> ServeEngine {
    let model = RevBiFPNClassifier::new(model_cfg(ctx.seed));
    let frozen = tr.scope("core.freeze.tiny", 0, || {
        model.freeze().expect("tiny freezes")
    });
    tr.scope("nn.artifact_write.tiny", 0, || {
        save_classifier_artifact(path, &frozen).expect("write artifact")
    });
    let engine = tr.scope("serve.start_with_artifact", 0, || {
        ServeEngine::start_with_artifact(engine_cfg(ctx.seed), path)
            .expect("engine starts from artifact")
    });
    for (i, x) in images.iter().cycle().take(WARMUP).enumerate() {
        let r = engine
            .submit_tenant(PACED, x.clone())
            .map(PendingResponse::wait);
        assert!(matches!(r, Ok(Ok(_))), "warm-up request {i} failed: {r:?}");
    }
    engine
}

/// Typed refusal counts, by cause (indexed like [`Sheds::NAMES`]).
#[derive(Clone, Copy, Debug, Default)]
struct Sheds([u64; 6]);

impl Sheds {
    /// Metric-name suffix of each cause.
    const NAMES: [&'static str; 6] = [
        "quota_rate",
        "quota_inflight",
        "breaker",
        "queue_full",
        "deadline",
        "infeasible",
    ];

    /// Counts a refusal; `false` for errors that are not load refusals.
    fn count(&mut self, e: &ServeError) -> bool {
        let cause = match e {
            ServeError::QuotaExceeded {
                scope: QuotaScope::Rate,
                ..
            } => 0,
            ServeError::QuotaExceeded {
                scope: QuotaScope::InFlight,
                ..
            } => 1,
            ServeError::CircuitOpen { .. } => 2,
            ServeError::QueueFull { .. } => 3,
            ServeError::DeadlineExceeded { .. } => 4,
            ServeError::Infeasible { .. } => 5,
            ServeError::InvalidShape(_)
            | ServeError::NonFiniteInput { .. }
            | ServeError::OutOfRange { .. }
            | ServeError::Poisoned
            | ServeError::WorkerLost
            | ServeError::ShuttingDown => return false,
        };
        self.0[cause] += 1;
        true
    }

    fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// Per-stream tallies of one open-loop run.
#[derive(Debug, Default)]
struct Stream {
    sent: u64,
    ok: u64,
    latencies_ms: Vec<f64>,
    /// Scheduled send time of each entry of `latencies_ms`, s.
    due_s: Vec<f64>,
    sheds: Sheds,
    /// Errors that are not typed load refusals.
    untyped: u64,
    /// Level-0 responses whose class differs from the direct forward's.
    wrong_class: u64,
    /// Level-0 responses checked against the direct forward.
    class_checked: u64,
    /// Requests still outstanding when the drain gave up.
    unresolved: u64,
}

impl Stream {
    fn failed(&self) -> u64 {
        self.untyped + self.wrong_class + self.unresolved
    }
}

struct InFlight {
    stream: usize,
    input: usize,
    due_s: f64,
    due: Instant,
    span: usize,
    submitted: Instant,
    pending: PendingResponse,
}

/// Everything the generator measured.
struct Drive {
    streams: Vec<Stream>,
    lag_ms: Vec<f64>,
    submit_us: Vec<f64>,
    elapsed_s: f64,
    queue_depth_max: usize,
    batcher_depth_max: usize,
    degrade_level_max: u8,
}

/// The generator: submits each arrival at its due instant and, between
/// arrivals, polls outstanding responses with `wait_timeout(0)`.
fn drive(
    engine: &ServeEngine,
    inp: &Inputs,
    tenants: &[TenantId],
    sched: &[Arrival],
    tr: &Tracer,
) -> Drive {
    let mut d = Drive {
        streams: tenants.iter().map(|_| Stream::default()).collect(),
        lag_ms: Vec::with_capacity(sched.len()),
        submit_us: Vec::with_capacity(sched.len()),
        elapsed_s: 0.0,
        queue_depth_max: 0,
        batcher_depth_max: 0,
        degrade_level_max: 0,
    };
    let mut out: Vec<InFlight> = Vec::new();
    let mut next_health = Instant::now();
    let observe =
        |d: &mut Drive, f: InFlight, outcome: Result<revbifpn_serve::InferResponse, ServeError>| {
            let now = Instant::now();
            tr.close(f.span, now);
            if tr.enabled() {
                let e = tr.open("serve.engine", f.submitted, Some(f.span), f.span as u64);
                tr.close(e, now);
            }
            let s = &mut d.streams[f.stream];
            match outcome {
                Ok(r) => {
                    s.ok += 1;
                    s.latencies_ms
                        .push(now.saturating_duration_since(f.due).as_secs_f64() * 1e3);
                    s.due_s.push(f.due_s);
                    if r.degrade_level == 0 {
                        s.class_checked += 1;
                        if r.class != inp.expected[f.input] {
                            s.wrong_class += 1;
                        }
                    }
                }
                Err(e) => {
                    if !s.sheds.count(&e) {
                        s.untyped += 1;
                    }
                }
            }
        };
    // Polls outstanding responses until `until`: waits on the oldest for
    // up to 1 ms at a time, then sweeps the rest without blocking. (A
    // spinning generator was tried and made latency worse: on a shared
    // virtual host it burns the CPU share the engine worker needs.)
    let mut poll = |d: &mut Drive, out: &mut Vec<InFlight>, until: Instant| loop {
        if tr.enabled() && Instant::now() >= next_health {
            let h = engine.health();
            d.queue_depth_max = d.queue_depth_max.max(h.queue_depth);
            d.batcher_depth_max = d.batcher_depth_max.max(h.batcher_depth);
            d.degrade_level_max = d.degrade_level_max.max(h.degrade_level);
            next_health = Instant::now() + Duration::from_millis(50);
        }
        let now = Instant::now();
        if now >= until {
            return;
        }
        let slice = (until - now).min(Duration::from_millis(1));
        if out.is_empty() {
            std::thread::sleep(slice);
            continue;
        }
        if let Some(o) = out[0].pending.wait_timeout(slice) {
            let f = out.remove(0);
            observe(d, f, o);
        }
        let mut i = 0;
        while i < out.len() {
            match out[i].pending.wait_timeout(Duration::ZERO) {
                Some(o) => {
                    let f = out.remove(i);
                    observe(d, f, o);
                }
                None => i += 1,
            }
        }
    };

    let start = Instant::now() + Duration::from_millis(5);
    for (n, a) in sched.iter().enumerate() {
        let due = start + Duration::from_secs_f64(a.due_s);
        poll(&mut d, &mut out, due);
        let t0 = Instant::now();
        d.lag_ms
            .push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
        let span = tr.open("op.request", due, None, n as u64);
        let sub = tr.open("serve.submit", t0, Some(span), n as u64);
        let r = engine.submit_tenant(tenants[a.stream], inp.images[a.input].clone());
        let t1 = Instant::now();
        tr.close(sub, t1);
        d.submit_us
            .push(t1.saturating_duration_since(t0).as_secs_f64() * 1e6);
        d.streams[a.stream].sent += 1;
        match r {
            Ok(pending) => out.push(InFlight {
                stream: a.stream,
                input: a.input,
                due_s: a.due_s,
                due,
                span,
                submitted: t1,
                pending,
            }),
            Err(e) => {
                tr.close(span, t1);
                let s = &mut d.streams[a.stream];
                if !s.sheds.count(&e) {
                    s.untyped += 1;
                }
            }
        }
    }
    // Every admitted request carries a 2 s deadline, so 10 s bounds the drain.
    let drain_by = Instant::now() + Duration::from_secs(10);
    while !out.is_empty() && Instant::now() < drain_by {
        poll(
            &mut d,
            &mut out,
            (Instant::now() + Duration::from_millis(5)).min(drain_by),
        );
    }
    d.elapsed_s = start.elapsed().as_secs_f64();
    for f in out {
        d.streams[f.stream].unresolved += 1;
    }
    d
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Generator lateness above which a run is invalid: when the median lag
/// or the worst stall exceeds these, the offered schedule was not the one
/// measured. (Single late sends from host scheduling noise are charged to
/// the requests they delay, since latency runs from the due instant.)
const MAX_LAG_P50_MS: f64 = 1.0;
const MAX_LAG_MS: f64 = 100.0;

/// One open-loop pass for `seconds` (set-up repeated unless traced).
pub fn run(ctx: &Ctx, seconds: f64, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let inp = inputs(ctx.seed);
    let path = ctx
        .out_dir
        .join(format!("serve-{}-{}.rbfn", ctx.seed, std::process::id()));
    let reps = if tr.enabled() { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut engine: Option<ServeEngine> = None;
    for _ in 0..reps {
        if let Some(e) = engine.take() {
            e.shutdown();
        }
        let t = Instant::now();
        engine = Some(tr.scope("op.setup", 0, || start(ctx, tr, &path, &inp.images)));
        setups.push(t.elapsed().as_secs_f64());
    }
    let engine = engine.expect("at least one set-up");

    let rss_reset = host::reset_peak_rss();
    let streams = streams();
    let tenants: Vec<TenantId> = streams.iter().map(|s| s.0).collect();
    let rates: Vec<f64> = streams.iter().map(|s| s.1).collect();
    let sched = open_loop(ctx.seed, &rates, seconds, POOL);
    let d = drive(&engine, &inp, &tenants, &sched, tr);
    let drained = engine.drain(Duration::from_secs(5));
    let health = engine.health();
    let rss = host::peak_rss_mb().unwrap_or(f64::NAN);
    drop(engine);
    let _ = std::fs::remove_file(&path);

    let sent: u64 = d.streams.iter().map(|s| s.sent).sum();
    let ok: u64 = d.streams.iter().map(|s| s.ok).sum();
    let failed: u64 = d.streams.iter().map(Stream::failed).sum();
    let untyped: u64 = d.streams.iter().map(|s| s.untyped).sum();
    let unresolved: u64 = d.streams.iter().map(|s| s.unresolved).sum();
    let wrong_class: u64 = d.streams.iter().map(|s| s.wrong_class).sum();
    let refused: u64 = d.streams.iter().map(|s| s.sheds.total()).sum();
    out.attempted = sent;
    out.failed = failed;
    out.e2e.put("setup_s", median(&setups), "s");
    out.e2e.put("peak_rss_mb", rss, "MiB");
    let paced = &d.streams[0];
    let within = paced
        .latencies_ms
        .iter()
        .filter(|&&l| l <= PACED_SLO_MS)
        .count() as f64;
    let lat = Summary::of(&paced.latencies_ms);
    let timed: Vec<(f64, f64)> = paced
        .due_s
        .iter()
        .copied()
        .zip(paced.latencies_ms.iter().copied())
        .collect();
    out.e2e.put(
        "throughput_per_s",
        ok as f64 / d.elapsed_s.max(seconds),
        "1/s",
    );
    // Median of one-second window medians: a burst of host preemption
    // moves the windows it hits, not the whole run.
    out.e2e
        .put("latency_p50_ms", windowed_median(&timed, 1.0), "ms");
    out.e2e
        .put("ok_share", within / paced.sent.max(1) as f64, "share");
    out.layers.put("serve.latency_ms_tail", lat.tail, "ms");

    out.gates.push(Gate::new(
        "serve.every_request_resolved_once",
        ok + refused == sent && untyped == 0 && unresolved == 0,
        format!("{sent} sent: {ok} ok, {refused} typed refusals, {untyped} other errors, {unresolved} unresolved"),
    ));
    out.gates.push(Gate::new(
        "serve.drained_empty",
        drained.drained_in_time && health.queue_depth == 0 && health.batcher_depth == 0,
        format!(
            "queue {} / batcher {} after drain",
            health.queue_depth, health.batcher_depth
        ),
    ));
    let checked: u64 = d.streams.iter().map(|s| s.class_checked).sum();
    out.gates.push(Gate::new(
        "serve.level0_class_equals_direct_forward",
        wrong_class == 0,
        format!("{wrong_class} of {checked} level-0 responses differ from a direct frozen forward's argmax"),
    ));
    let lag = sorted(&d.lag_ms);
    let lag_p99 = percentile_sorted(&lag, 0.99);
    let (lag_p50, lag_max) = (median(&lag), lag.last().copied().unwrap_or(0.0));
    out.gates.push(Gate::new(
        "serve.generator_kept_up",
        lag_p50 <= MAX_LAG_P50_MS && lag_max <= MAX_LAG_MS,
        format!(
            "generator lag p50 {lag_p50:.3} ms (limit {MAX_LAG_P50_MS}), p99 {lag_p99:.3} ms, max {lag_max:.3} ms (limit {MAX_LAG_MS})"
        ),
    ));
    out.gates.push(Gate::new(
        "serve.tail_supported",
        lat.tail_p.is_some(),
        format!("{} latency samples, tail at {:?}", lat.n, lat.tail_p),
    ));

    let sub = sorted(&d.submit_us);
    let m = &mut out.layers;
    m.put("serve.submit_us_p50", median(&sub), "us");
    m.put("serve.submit_us_p99", percentile_sorted(&sub, 0.99), "us");
    m.put("serve.gen_lag_ms_p99", lag_p99, "ms");
    health_metrics(m, &health, &d);
    for (i, name) in Sheds::NAMES.iter().enumerate() {
        let v: u64 = d.streams.iter().map(|s| s.sheds.0[i]).sum();
        m.put(format!("serve.shed.{name}"), v as f64, "count");
    }

    let rows = streams
        .iter()
        .zip(&d.streams)
        .map(|((tid, rate), s)| {
            let l = Summary::of(&s.latencies_ms);
            Json::obj([
                ("tenant", Json::Int(i64::from(tid.0))),
                ("offered_rps", Json::Num(*rate)),
                ("sent", Json::Int(s.sent as i64)),
                ("ok", Json::Int(s.ok as i64)),
                ("refused", Json::Int(s.sheds.total() as i64)),
                ("failed", Json::Int(s.failed() as i64)),
                ("latency_p50_ms", Json::Num(l.p50)),
                (
                    "latency_tail_percentile",
                    l.tail_p.map_or(Json::Null, Json::Num),
                ),
                ("latency_tail_ms", Json::Num(l.tail)),
            ])
        })
        .collect();
    out.detail(
        "serve",
        Json::obj([
            ("capacity_rps_reference", Json::Num(CAPACITY_RPS)),
            ("latency_limit_ms", Json::Num(PACED_SLO_MS)),
            ("peak_rss_reset", Json::Bool(rss_reset)),
            ("elapsed_s", Json::Num(d.elapsed_s)),
            (
                "threads",
                Json::str(
                    "1 engine worker (thread budget 1, kernels inline) + 1 generator + watchdog",
                ),
            ),
            ("streams", Json::Arr(rows)),
            (
                "setup_samples_s",
                Json::Arr(setups.into_iter().map(Json::Num).collect()),
            ),
        ]),
    );
    out
}

fn health_metrics(m: &mut Metrics, h: &HealthSnapshot, d: &Drive) {
    let closes: u64 = h.batch_buckets.iter().map(|b| b.closes).sum();
    let items: f64 = h
        .batch_buckets
        .iter()
        .map(|b| b.mean_batch * b.closes as f64)
        .sum();
    m.put("serve.mean_batch", items / closes.max(1) as f64, "items");
    m.put("serve.closes.size", h.batch_size_closes as f64, "count");
    m.put(
        "serve.closes.deadline",
        h.batch_deadline_closes as f64,
        "count",
    );
    m.put("serve.closes.linger", h.batch_linger_closes as f64, "count");
    m.put("serve.swept_expired", h.swept_expired as f64, "count");
    m.put("serve.queue_depth_max", d.queue_depth_max as f64, "count");
    m.put(
        "serve.batcher_depth_max",
        d.batcher_depth_max as f64,
        "count",
    );
    m.put(
        "serve.degrade_level_max",
        f64::from(d.degrade_level_max),
        "level",
    );
    let resid = h
        .cost_model
        .iter()
        .filter(|r| r.samples > 0)
        .map(|r| r.residual_ewma_ms)
        .fold(0.0, f64::max);
    m.put("serve.cost_resid_ms", resid, "ms");
}

/// Frozen tiny-model forward at batch 1, 4 and 8 (the engine's per-batch
/// compute), thread budget as in serving.
pub fn tiny_probe(seed: u64, tr: &Tracer, budget_s: f64) -> Metrics {
    let mut m = Metrics::default();
    let frozen: FrozenClassifier = RevBiFPNClassifier::new(model_cfg(seed))
        .freeze()
        .expect("tiny freezes");
    let data = SynthScale::new(SynthScaleConfig::new(RES), seed);
    for n in [1usize, 4, 8] {
        let (x, _) = data.batch(0, n);
        std::hint::black_box(frozen.forward(&x));
        let mut per = Vec::new();
        let t = Instant::now();
        while per.len() < 5 || t.elapsed().as_secs_f64() < budget_s {
            let c = Instant::now();
            tr.scope(&format!("core.frozen_tiny_b{n}"), per.len() as u64, || {
                std::hint::black_box(frozen.forward(&x))
            });
            per.push(c.elapsed().as_secs_f64() * 1e3);
        }
        m.put(format!("core.frozen_tiny_b{n}_ms"), median(&per), "ms");
    }
    m
}
