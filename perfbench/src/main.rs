//! Benchmark runner for the RevBiFPN workspace.
//!
//! ```text
//! perfbench --workload <train|infer_f32|infer_int8|serve_flood>
//!           --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! `--trace 0` runs the workload untraced and prints its end-to-end
//! metrics. `--trace 1` runs it traced — spans around every call the
//! benchmark makes into the workspace crates — after a shorter untraced
//! pass of the same workload (their latency difference is the tracing
//! overhead), then sweeps the layers the workload does not exercise with
//! short traced passes, and prints every per-layer metric. A traced run is
//! correct only when every pass it draws metrics from passed its gates.
//! The last line of standard output is the result object; the full report
//! (host and provenance block, gates, details, per-layer self times) and
//! the span file go to `--out-dir`. `infer_f32` and the serving mix
//! (`serve_flood`) are runnable by hand and run in every traced sweep, but
//! they are not `BENCHMARK.json` workloads: their latency does not repeat
//! from run to run on the reference host (see `README.md`).

mod host;
mod hostspeed;
mod infer;
mod kernels;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;
mod train;

use host::Provenance;
use infer::Precision;
use report::{Json, Metrics, Outcome};
use revbifpn_tensor::par;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Run parameters shared by every workload.
pub struct Ctx {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Where artifacts, reports and spans are written.
    pub out_dir: PathBuf,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Train,
    Infer(Precision),
    ServeFlood,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Train,
        Workload::Infer(Precision::F32),
        Workload::Infer(Precision::Int8),
        Workload::ServeFlood,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::Infer(Precision::F32) => "infer_f32",
            Workload::Infer(Precision::Int8) => "infer_int8",
            Workload::ServeFlood => "serve_flood",
        }
    }

    /// Pool thread budget (callers included). Training runs its two
    /// shards on two threads. Inference and serving run kernels inline on
    /// one thread: on a shared virtual host a parallel kernel waits at its
    /// join for whichever CPU the host preempted, which made two-thread
    /// latency several times noisier; serving leaves the second CPU to
    /// the generator.
    fn threads(self) -> usize {
        match self {
            Workload::Train => 2,
            _ => 1,
        }
    }

    /// One pass for `seconds`; `full` passes enforce their sample floors.
    fn pass(self, ctx: &Ctx, seconds: f64, full: bool, tr: &Tracer) -> Outcome {
        par::set_max_threads(self.threads());
        match self {
            Workload::Train if tr.enabled() => {
                train::traced(ctx, tr, seconds, if full { seconds / 3.0 } else { 0.0 })
            }
            Workload::Train => train::run(ctx, seconds),
            Workload::Infer(p) => infer::run(ctx, p, seconds, full, tr),
            Workload::ServeFlood => serve::run(ctx, seconds, tr),
        }
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: 0.0,
        trace: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                a.workload = Some(
                    *Workload::ALL
                        .iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload {v}"))?,
                );
            }
            "--seed" => a.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?,
            "--seconds" => a.seconds = num(v)?,
            "--trace" => a.trace = v == "1",
            "--out-dir" => a.out_dir = PathBuf::from(v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Layers the traced sweep covers when the primary workload does not:
/// one short traced pass per other workload family, folded into `out`
/// with its gates and counts.
fn sweep(ctx: &Ctx, primary: Workload, tr: &Tracer, out: &mut Outcome) {
    out.layers
        .extend(tr.scope("op.probe.kernels", 0, || kernels::probe(ctx.seed, tr, 0.15)));
    let others = [
        (Workload::Train, 1.0),
        (Workload::Infer(Precision::F32), 1.0),
        (Workload::Infer(Precision::Int8), 1.0),
        (Workload::ServeFlood, 2.0),
    ];
    for (w, seconds) in others {
        if w != primary {
            out.absorb(w.name(), w.pass(ctx, seconds, false, tr));
        }
    }
    par::set_max_threads(1);
    out.layers
        .extend(tr.scope("op.probe.tiny", 0, || serve::tiny_probe(ctx.seed, tr, 0.1)));
}

/// Set-up layers reported straight from their spans (median self time).
const SPAN_METRICS: &[&str] = &[
    "core.freeze.f32",
    "core.freeze.int8",
    "nn.artifact_write.f32",
    "nn.artifact_write.int8",
    "nn.artifact_load.f32",
    "nn.artifact_load.int8",
    "core.freeze.tiny",
    "nn.artifact_write.tiny",
    "serve.start_with_artifact",
];

/// Per-layer self-time table and the reconciliation of the layer sum
/// against the traced operations' wall time.
fn reconcile(tr: &Tracer, layers: &mut Metrics) -> Json {
    let spans = tr.spans();
    let selfs = trace::self_times(&spans);
    let (mut op_ns, mut op_self_ns, mut layer_ns) = (0u64, 0u64, 0u64);
    for (s, st) in spans.iter().zip(&selfs) {
        if s.parent.is_none() {
            op_ns += s.end - s.start;
            op_self_ns += st;
        } else {
            layer_ns += st;
        }
    }
    let unattributed = op_self_ns as f64 / op_ns.max(1) as f64;
    let agg = trace::by_name(&spans);
    for name in SPAN_METRICS {
        let ms = agg
            .get(*name)
            .map_or(f64::NAN, |l| stats::median(&l.per_call_ms));
        layers.put(format!("{name}_ms"), ms, "ms");
    }
    layers.put("trace.unattributed_share", unattributed, "share");
    let rows = agg
        .into_iter()
        .map(|(name, l)| {
            Json::obj([
                ("name", Json::str(name)),
                ("calls", Json::Int(l.calls as i64)),
                ("self_ms", Json::Num(l.self_ns as f64 * 1e-6)),
                (
                    "share_of_ops",
                    Json::Num(l.self_ns as f64 / op_ns.max(1) as f64),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("ops_wall_s", Json::Num(op_ns as f64 * 1e-9)),
        ("layer_self_sum_s", Json::Num(layer_ns as f64 * 1e-9)),
        ("unattributed_s", Json::Num(op_self_ns as f64 * 1e-9)),
        ("unattributed_share", Json::Num(unattributed)),
        ("self_times", Json::Arr(rows)),
    ])
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        out_dir: args.out_dir.clone(),
    };
    let Some(w) = args.workload else {
        eprintln!("perfbench: --workload is required");
        return ExitCode::from(2);
    };

    let started = Instant::now();
    let jiffies = host::cpu_jiffies();
    let (outcome, metrics, trace_json) = if args.trace {
        // Untraced then traced pass of the same workload: their latency
        // difference is the tracing overhead. Train times both inside its
        // traced pass (the same decomposed cycle with spans off and on).
        let untraced = (w != Workload::Train)
            .then(|| w.pass(&ctx, args.seconds / 3.0, false, &Tracer::new(false)));
        let tr = Tracer::new(true);
        let mut outcome = w.pass(&ctx, args.seconds, true, &tr);
        let traced = outcome.e2e.get("latency_p50_ms");
        let base = match &untraced {
            Some(u) => u.e2e.get("latency_p50_ms"),
            None => outcome.e2e.get("untraced_latency_p50_ms"),
        };
        // The untraced pass's gates count; its layer figures would replace
        // the traced pass's.
        if let Some(mut u) = untraced {
            u.layers = Metrics::default();
            outcome.absorb("untraced", u);
        }
        sweep(&ctx, w, &tr, &mut outcome);
        let overhead = match (traced, base) {
            (Some(t), Some(b)) if b > 0.0 => t / b - 1.0,
            _ => f64::NAN,
        };
        let mut layers = std::mem::take(&mut outcome.layers);
        layers.put("trace.overhead_share", overhead, "share");
        let summary = reconcile(&tr, &mut layers);
        let spans_path = args
            .out_dir
            .join(format!("spans-{}-seed{}.json", w.name(), args.seed));
        if let Err(e) = std::fs::write(&spans_path, trace::spans_json(&tr.spans())) {
            eprintln!("perfbench: cannot write {}: {e}", spans_path.display());
        }
        (outcome, layers, Some(summary))
    } else {
        let o = w.pass(&ctx, args.seconds, true, &Tracer::new(false));
        let m = o.e2e.clone();
        (o, m, None)
    };

    let provenance = Provenance::from_env().json(
        w.name(),
        args.seed,
        w.threads(),
        args.trace,
        host::steal_share(jiffies, host::cpu_jiffies()),
    );
    let result = Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Int(outcome.attempted.max(1) as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", metrics.json()),
    ]);
    let mut report = vec![
        ("host", provenance.clone()),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
        (
            "gates",
            Json::Arr(outcome.gates.iter().map(|g| g.json()).collect()),
        ),
        ("end_to_end", outcome.e2e.json()),
    ];
    report.extend(outcome.details.iter().map(|(k, v)| (k.as_str(), v.clone())));
    if let Some(t) = trace_json {
        report.push(("trace", t));
    }
    report.push(("result", result.clone()));
    let report_path = args.out_dir.join(format!(
        "report-{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&report_path, Json::obj(report).render() + "\n") {
        eprintln!("perfbench: cannot write {}: {e}", report_path.display());
    }
    for g in outcome.gates.iter().filter(|g| !g.pass) {
        eprintln!("perfbench: gate {} FAILED: {}", g.name, g.detail);
    }
    println!("{}", Json::obj([("host", provenance)]).render());
    println!("{}", result.render());
    ExitCode::SUCCESS
}
