//! Multi-tenant overload throughput benchmark with a batched-vs-unbatched
//! A/B: each configuration (continuous batching on / off) is driven at 1x
//! and at a configurable overload factor (default 10x, `--overload 100`
//! for the deep end) with three tenants — a paced interactive tenant, and
//! two flooding batch tenants held back by rate / in-flight quotas — and
//! the results land in `results/BENCH_serve_throughput.json` with goodput,
//! the typed shed breakdown, per-tenant latency percentiles, and the mean
//! achieved batch size per batcher bucket.
//!
//! The numbers this bench guards: under a flood the engine's *goodput*
//! (completed requests/sec) must stay positive with every rejection typed,
//! and the batched engine must beat the unbatched one at overload (the
//! continuous batcher's reason to exist) without starving the paced
//! tenant. `--smoke` shortens the run for CI, skips the perf-ratio gates
//! (timing on shared CI boxes is noise), and prints the JSON to stdout
//! instead of overwriting the committed full-length result.

use revbifpn::RevBiFPNConfig;
use revbifpn_serve::{
    BreakerConfig, HealthSnapshot, PendingResponse, QuotaScope, ServeConfig, ServeEngine,
    ServeError, TenantId, TenantQuota,
};
use revbifpn_tensor::{Shape, Tensor};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Default, Clone, Debug)]
struct ShedCounts {
    quota_rate: u64,
    quota_inflight: u64,
    breaker_open: u64,
    queue_full: u64,
    deadline: u64,
    infeasible: u64,
    other: u64,
}

impl ShedCounts {
    /// Classifies a typed rejection; the exhaustive match makes a new
    /// untyped escape hatch a compile error here too.
    fn count(&mut self, e: &ServeError) {
        match e {
            ServeError::QuotaExceeded { scope: QuotaScope::Rate, .. } => self.quota_rate += 1,
            ServeError::QuotaExceeded { scope: QuotaScope::InFlight, .. } => {
                self.quota_inflight += 1;
            }
            ServeError::CircuitOpen { .. } => self.breaker_open += 1,
            ServeError::QueueFull { .. } => self.queue_full += 1,
            ServeError::DeadlineExceeded { .. } => self.deadline += 1,
            ServeError::Infeasible { .. } => self.infeasible += 1,
            ServeError::InvalidShape(_)
            | ServeError::NonFiniteInput { .. }
            | ServeError::OutOfRange { .. }
            | ServeError::Poisoned
            | ServeError::WorkerLost
            | ServeError::ShuttingDown => self.other += 1,
        }
    }

    fn total(&self) -> u64 {
        self.quota_rate
            + self.quota_inflight
            + self.breaker_open
            + self.queue_full
            + self.deadline
            + self.infeasible
            + self.other
    }

    fn merge(&mut self, o: &ShedCounts) {
        self.quota_rate += o.quota_rate;
        self.quota_inflight += o.quota_inflight;
        self.breaker_open += o.breaker_open;
        self.queue_full += o.queue_full;
        self.deadline += o.deadline;
        self.infeasible += o.infeasible;
        self.other += o.other;
    }

    fn json(&self) -> String {
        format!(
            "{{ \"quota_rate\": {}, \"quota_inflight\": {}, \"breaker_open\": {}, \
             \"queue_full\": {}, \"deadline\": {}, \"infeasible\": {}, \"other\": {} }}",
            self.quota_rate,
            self.quota_inflight,
            self.breaker_open,
            self.queue_full,
            self.deadline,
            self.infeasible,
            self.other
        )
    }
}

#[derive(Default)]
struct TenantReport {
    offered: u64,
    completed: u64,
    latencies_ms: Vec<f64>,
    shed: ShedCounts,
}

impl TenantReport {
    fn absorb(&mut self, outcome: Result<f64, ServeError>) {
        match outcome {
            Ok(ms) => {
                self.completed += 1;
                self.latencies_ms.push(ms);
            }
            Err(e) => self.shed.count(&e),
        }
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

fn image(seed: usize) -> Tensor {
    Tensor::full(Shape::new(1, 3, 32, 32), 0.01 * (seed % 7) as f32)
}

/// Flood submitter: keeps at most `window` responses outstanding, waiting
/// the oldest out when full — sustained pressure with measured latency.
fn flood_tenant(
    engine: &ServeEngine,
    tenant: TenantId,
    per_tick: usize,
    tick: Duration,
    stop: &AtomicBool,
    report: &Mutex<TenantReport>,
) {
    let mut local = TenantReport::default();
    let mut window: VecDeque<PendingResponse> = VecDeque::new();
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..per_tick {
            i += 1;
            local.offered += 1;
            match engine.submit_tenant(tenant, image(i)) {
                Ok(p) => window.push_back(p),
                Err(e) => local.shed.count(&e),
            }
            while window.len() >= 32 {
                let p = window.pop_front().expect("window non-empty");
                local.absorb(p.wait().map(|r| r.latency_ms));
            }
        }
        std::thread::sleep(tick);
    }
    for p in window {
        local.absorb(p.wait().map(|r| r.latency_ms));
    }
    *report.lock().unwrap() = local;
}

/// One measured configuration: engine wiring, aggregate counts, and the
/// health snapshot taken before shutdown.
struct Scenario {
    name: String,
    batching: bool,
    overload: usize,
    elapsed_s: f64,
    offered: u64,
    completed: u64,
    goodput: f64,
    shed: ShedCounts,
    paced_offered: u64,
    paced_completed: u64,
    paced_p50: f64,
    paced_p99: f64,
    tenant_rows: Vec<String>,
    health: HealthSnapshot,
}

/// Builds a fresh engine (batching on or off) and drives the three-tenant
/// load at `overload`x for `duration`. Each scenario is hermetic: its own
/// engine, its own warmup, its own cost-model calibration at freeze.
fn run_scenario(name: &str, batching: bool, overload: usize, duration: Duration) -> Scenario {
    let paced = TenantId(1);
    let batch_a = TenantId(2);
    let batch_b = TenantId(3);

    let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
    cfg.workers = 1;
    cfg.queue_capacity = 64;
    // The A/B: the unbatched arm reproduces the PR-8 engine (tiny batches,
    // no lingering); the batched arm lets the continuous batcher assemble
    // cost-model-sized batches. Flood quotas admit well past single-worker
    // service capacity, so the engine — not the admission gate — is the
    // bottleneck and the A/B measures serving throughput, not quota policy
    // (the PR-8 bench capped admission at ~550/s, below even unbatched
    // capacity, which made the two arms indistinguishable).
    cfg.max_batch = if batching { 8 } else { 2 };
    cfg.batch.enabled = batching;
    cfg.default_timeout_ms = 2_000;
    cfg.watchdog_poll_ms = 5;
    cfg.breaker = BreakerConfig {
        window: 16,
        min_samples: 8,
        trip_ratio: 0.5,
        open_ms: 500,
        half_open_probes: 2,
    };
    cfg.tenant_quotas = vec![
        (
            paced,
            TenantQuota {
                rate_per_sec: f64::INFINITY,
                burst: 256,
                max_in_flight: 16,
                weight: 4,
            },
        ),
        (batch_a, TenantQuota { rate_per_sec: 2_500.0, burst: 64, max_in_flight: 24, weight: 1 }),
        (batch_b, TenantQuota { rate_per_sec: 1_250.0, burst: 32, max_in_flight: 16, weight: 2 }),
    ];
    let engine = ServeEngine::start(cfg);

    // Warm the packed panels out of the measurement.
    for i in 0..8 {
        let _ = engine.submit_tenant(paced, image(i)).map(|p| p.wait());
    }

    // Each flood thread offers `overload/5` submissions per millisecond
    // tick: --overload 10 is ~2k offered/sec per flood tenant against a
    // paced tenant doing ~100/sec, enough to keep the queue saturated and
    // the flood in-flight quotas pinned (so the floods shed typed while
    // the paced tenant's queue headroom stays guaranteed: flood occupancy
    // is bounded by 24+16 in-flight, under the 64-deep queue). At 1x the
    // floods pace themselves down to roughly the paced tenant's rate.
    let per_tick = (overload / 5).max(1);
    let flood_tick = Duration::from_millis(if overload >= 10 { 1 } else { 10 });
    let stop = AtomicBool::new(false);
    let paced_report = Mutex::new(TenantReport::default());
    let a_report = Mutex::new(TenantReport::default());
    let b_report = Mutex::new(TenantReport::default());
    let started = Instant::now();

    std::thread::scope(|scope| {
        scope.spawn(|| flood_tenant(&engine, batch_a, per_tick, flood_tick, &stop, &a_report));
        scope.spawn(|| {
            flood_tenant(&engine, batch_b, per_tick, flood_tick * 2, &stop, &b_report)
        });

        // Paced tenant on this thread: sequential, ~100 offered/sec.
        let mut local = TenantReport::default();
        let mut i = 0usize;
        while started.elapsed() < duration {
            i += 1;
            local.offered += 1;
            match engine.submit_tenant(paced, image(i)) {
                Ok(p) => local.absorb(p.wait().map(|r| r.latency_ms)),
                Err(e) => local.shed.count(&e),
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
        *paced_report.lock().unwrap() = local;
    });
    let elapsed_s = started.elapsed().as_secs_f64();

    let reports = [
        ("paced", paced, 4u32, paced_report.into_inner().unwrap()),
        ("flood", batch_a, 1, a_report.into_inner().unwrap()),
        ("flood", batch_b, 2, b_report.into_inner().unwrap()),
    ];

    let mut offered = 0u64;
    let mut completed = 0u64;
    let mut shed = ShedCounts::default();
    let mut tenant_rows = Vec::new();
    let mut paced_stats = (0u64, 0u64, 0.0f64, 0.0f64);
    for (role, tenant, weight, r) in &reports {
        offered += r.offered;
        completed += r.completed;
        shed.merge(&r.shed);
        let mut lat = r.latencies_ms.clone();
        lat.sort_by(f64::total_cmp);
        let (p50, p99) = (percentile(&lat, 0.50), percentile(&lat, 0.99));
        if *role == "paced" {
            paced_stats = (r.offered, r.completed, p50, p99);
        }
        eprintln!(
            "  [{name}] tenant {} ({role}, weight {weight}): offered {}, completed {}, \
             shed {}, p50 {p50:.1} ms, p99 {p99:.1} ms",
            tenant.0,
            r.offered,
            r.completed,
            r.shed.total()
        );
        tenant_rows.push(format!(
            "      {{ \"tenant\": {}, \"role\": \"{role}\", \"weight\": {weight}, \
             \"offered\": {}, \"completed\": {}, \"p50_ms\": {p50:.3}, \"p99_ms\": {p99:.3}, \
             \"shed\": {} }}",
            tenant.0,
            r.offered,
            r.completed,
            r.shed.json()
        ));
    }

    let health = engine.health();
    for r in &health.cost_model {
        eprintln!(
            "  [{name}] cost fit variant {} {:?} rung {}: a {:.3} ms, c {:.3} ms/item, \
             resid {:.3} ms, {} samples",
            r.key.variant, r.key.precision, r.key.rung, r.a_ms, r.c_ms, r.residual_ewma_ms,
            r.samples
        );
    }
    engine.shutdown();
    let goodput = completed as f64 / elapsed_s;
    eprintln!(
        "  [{name}] offered {:.0}/s, goodput {goodput:.0}/s, shed total {} \
         (closes: {} size / {} deadline / {} linger)",
        offered as f64 / elapsed_s,
        shed.total(),
        health.batch_size_closes,
        health.batch_deadline_closes,
        health.batch_linger_closes,
    );

    Scenario {
        name: name.into(),
        batching,
        overload,
        elapsed_s,
        offered,
        completed,
        goodput,
        shed,
        paced_offered: paced_stats.0,
        paced_completed: paced_stats.1,
        paced_p50: paced_stats.2,
        paced_p99: paced_stats.3,
        tenant_rows,
        health,
    }
}

fn scenario_json(s: &Scenario) -> String {
    let buckets: Vec<String> = s
        .health
        .batch_buckets
        .iter()
        .map(|b| {
            format!(
                "      {{ \"variant\": {}, \"precision\": \"{:?}\", \"rung\": {}, \
                 \"closes\": {}, \"mean_batch\": {:.3}, \"hist\": {:?} }}",
                b.key.variant, b.key.precision, b.key.rung, b.closes, b.mean_batch, b.hist
            )
        })
        .collect();
    format!(
        "  {{\n    \"name\": \"{}\",\n    \"batching\": {},\n    \"overload_factor\": {},\n    \
         \"duration_s\": {:.2},\n    \"offered_per_sec\": {:.1},\n    \
         \"goodput_per_sec\": {:.1},\n    \"paced_offered\": {},\n    \
         \"paced_completed\": {},\n    \"paced_p50_ms\": {:.3},\n    \
         \"paced_p99_ms\": {:.3},\n    \"shed_breakdown\": {},\n    \"swept_expired\": {},\n    \
         \"close_counts\": {{ \"size\": {}, \"deadline\": {}, \"linger\": {}, \
         \"generation\": {}, \"flush\": {} }},\n    \"batch_buckets\": [\n{}\n    ],\n    \
         \"tenants\": [\n{}\n    ]\n  }}",
        s.name,
        s.batching,
        s.overload,
        s.elapsed_s,
        s.offered as f64 / s.elapsed_s,
        s.goodput,
        s.paced_offered,
        s.paced_completed,
        s.paced_p50,
        s.paced_p99,
        s.shed.json(),
        s.health.swept_expired,
        s.health.batch_size_closes,
        s.health.batch_deadline_closes,
        s.health.batch_linger_closes,
        s.health.batch_generation_closes,
        s.health.batch_flush_closes,
        buckets.join(",\n"),
        s.tenant_rows.join(",\n")
    )
}

/// 10x-overload goodput the PR-8 engine recorded on this host (same bench
/// shape, admission capped by the old flood quotas; see the previous
/// `results/BENCH_serve_throughput.json` in git history). The batched
/// engine must clear 1.5x this.
const PR8_BASELINE_GOODPUT: f64 = 537.0;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let overload: usize = args
        .iter()
        .position(|a| a == "--overload")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let duration = Duration::from_millis(if smoke { 1_500 } else { 8_000 });

    let scenarios = vec![
        run_scenario("unbatched_1x", false, 1, duration),
        run_scenario("batched_1x", true, 1, duration),
        run_scenario(&format!("unbatched_{overload}x"), false, overload, duration),
        run_scenario(&format!("batched_{overload}x"), true, overload, duration),
    ];
    let unbatched_hi = &scenarios[2];
    let batched_hi = &scenarios[3];
    let batched_lo = &scenarios[1];
    let ratio = batched_hi.goodput / unbatched_hi.goodput.max(1e-9);
    eprintln!(
        "batched vs unbatched at {overload}x: {:.0}/s vs {:.0}/s ({ratio:.2}x)",
        batched_hi.goodput, unbatched_hi.goodput
    );

    let rows: Vec<String> = scenarios.iter().map(scenario_json).collect();
    let vs_pr8 = batched_hi.goodput / PR8_BASELINE_GOODPUT;
    let json = format!(
        "{{\n\"overload_factor\": {overload},\n\"goodput_ratio_at_overload\": {ratio:.3},\n\
         \"pr8_baseline_goodput_per_sec\": {PR8_BASELINE_GOODPUT:.1},\n\
         \"batched_goodput_vs_pr8_baseline\": {vs_pr8:.3},\n\
         \"scenarios\": [\n{}\n]\n}}\n",
        rows.join(",\n")
    );
    if smoke {
        print!("{json}");
    } else {
        std::fs::create_dir_all("results").expect("create results dir");
        std::fs::write("results/BENCH_serve_throughput.json", json).expect("write bench json");
        println!("wrote results/BENCH_serve_throughput.json");
    }

    // Sanity gates so CI can run this directly: overload must convert to
    // goodput plus *typed* sheds, with the books intact.
    let mut failed = false;
    for s in &scenarios {
        if s.completed == 0 {
            eprintln!("FAIL [{}]: zero goodput", s.name);
            failed = true;
        }
        if s.offered < s.completed {
            eprintln!("FAIL [{}]: served more than was offered — accounting broken", s.name);
            failed = true;
        }
        if s.health.queue_depth != 0 || s.health.batcher_depth != 0 {
            eprintln!(
                "FAIL [{}]: {} queued / {} bucketed tickets lingering after the run",
                s.name, s.health.queue_depth, s.health.batcher_depth
            );
            failed = true;
        }
        if s.overload >= 10 && s.shed.total() == 0 {
            eprintln!(
                "FAIL [{}]: the flood was never shed — quotas and admission inert?",
                s.name
            );
            failed = true;
        }
    }
    // Perf-ratio gates need a quiet machine and a full-length run; smoke
    // mode only checks the books above.
    if !smoke {
        if batched_hi.goodput < 1.5 * PR8_BASELINE_GOODPUT {
            eprintln!(
                "FAIL: batched goodput at {overload}x is {:.0}/s, below 1.5x the PR-8 \
                 unbatched baseline ({PR8_BASELINE_GOODPUT:.0}/s)",
                batched_hi.goodput
            );
            failed = true;
        }
        if ratio < 0.95 {
            eprintln!(
                "FAIL: batching regressed goodput at {overload}x ({ratio:.2}x unbatched)"
            );
            failed = true;
        }
        if batched_hi.paced_completed < batched_hi.paced_offered {
            eprintln!(
                "FAIL: paced tenant lost {} of {} requests under the batched flood",
                batched_hi.paced_offered - batched_hi.paced_completed,
                batched_hi.paced_offered
            );
            failed = true;
        }
        let p99_limit = 2.0 * batched_lo.paced_p99.max(1.0);
        if batched_hi.paced_p99 > p99_limit {
            eprintln!(
                "FAIL: paced p99 {:.1} ms under the batched flood exceeds 2x the \
                 uncontended {:.1} ms",
                batched_hi.paced_p99, batched_lo.paced_p99
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
