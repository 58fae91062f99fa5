//! `infer_f32` / `infer_int8`: one closed-loop caller running batch-1 S0
//! at 224 px through a `FrozenClassifier` mmap-loaded from an `RBFNFRZ1`
//! artifact written during set-up. Each call's wall time is also scaled to
//! the quiet host's speed by the reference timed right before it (see
//! [`crate::hostspeed`]); throughput and median latency use the scaled
//! times.

use crate::host;
use crate::hostspeed::{self, HostSpeed, NOMINAL_MS};
use crate::report::{Gate, Json, Outcome};
use crate::schedule::Rng;
use crate::stats::{median, windowed_rate, Summary};
use crate::trace::Tracer;
use crate::Ctx;
use revbifpn::artifact::{load_classifier_artifact, save_classifier_artifact};
use revbifpn::{FrozenClassifier, RevBiFPNClassifier, RevBiFPNConfig};
use revbifpn_data::{SynthScale, SynthScaleConfig};
use revbifpn_nn::loss::argmax_rows;
use revbifpn_serve::QuantGateConfig;
use revbifpn_tensor::{Shape, Tensor};
use std::path::PathBuf;
use std::time::Instant;

const RES: usize = 224;
/// Distinct seeded input images.
const POOL: usize = 16;
/// Calls a traced full pass makes at least, so its reported tail is p90
/// (ten samples beyond it).
const TAIL_CALLS: usize = 100;
/// Calls any other pass makes at least, so its median has ten samples on
/// either side.
const MIN_CALLS: usize = 20;
const SETUP_REPS: usize = 5;
/// Calls per throughput window (see [`windowed_rate`]).
const RATE_WINDOW: usize = 10;

/// Weight precision of the frozen model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// `freeze()`.
    F32,
    /// `freeze_int8()`.
    Int8,
}

impl Precision {
    /// Metric-name tag.
    pub fn tag(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }

    fn freeze(self, model: &RevBiFPNClassifier) -> FrozenClassifier {
        match self {
            Precision::F32 => model.freeze().expect("S0 freezes"),
            Precision::Int8 => model.freeze_int8().expect("S0 freezes to int8"),
        }
    }
}

/// Everything set-up produces. Only `map` and `images` serve the timed
/// loop; `model` and `mem` feed the gates and are dropped before it.
struct Setup {
    model: RevBiFPNClassifier,
    mem: FrozenClassifier,
    map: FrozenClassifier,
    images: Vec<Tensor>,
    _file: ArtifactFile,
}

/// The artifact written in set-up, removed when dropped.
struct ArtifactFile(PathBuf);

impl Drop for ArtifactFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn images(seed: u64) -> (Vec<Tensor>, usize) {
    let data = SynthScale::new(SynthScaleConfig::new(RES), seed);
    (
        (0..POOL).map(|i| data.batch(i as u64, 1).0).collect(),
        data.num_classes(),
    )
}

/// Builds and freezes the model, writes the artifact, mmap-loads it and
/// warms the loaded model with one forward.
fn setup(ctx: &Ctx, prec: Precision, tr: &Tracer, images: Vec<Tensor>, classes: usize) -> Setup {
    tr.scope("op.setup", 0, || {
        let model = RevBiFPNClassifier::new(RevBiFPNConfig::s0(classes).with_seed(ctx.seed));
        let mem = tr.scope(&format!("core.freeze.{}", prec.tag()), 0, || {
            prec.freeze(&model)
        });
        let path = ctx.out_dir.join(format!(
            "infer-{}-{}-{}.rbfn",
            prec.tag(),
            ctx.seed,
            std::process::id()
        ));
        tr.scope(&format!("nn.artifact_write.{}", prec.tag()), 0, || {
            save_classifier_artifact(&path, &mem).expect("write artifact")
        });
        let map = tr.scope(&format!("nn.artifact_load.{}", prec.tag()), 0, || {
            load_classifier_artifact(&path, true)
                .expect("load artifact")
                .0
        });
        std::hint::black_box(map.forward(&images[0]));
        Setup {
            model,
            mem,
            map,
            images,
            _file: ArtifactFile(path),
        }
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// One pass: set-up (repeated unless traced), the gates, then the timed
/// closed loop for `seconds` (and at least [`TAIL_CALLS`] calls when
/// traced and `full`, else [`MIN_CALLS`]). The gates and the traced f32
/// pass's frozen-pieces probe (both precisions) run first, so the
/// training-mode model and the in-memory frozen copy are gone before the
/// high-water RSS is reset for the timed loop.
pub fn run(ctx: &Ctx, prec: Precision, seconds: f64, full: bool, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (pool, classes) = images(ctx.seed);
    let mut setups = Vec::new();
    let mut kept: Option<Setup> = None;
    for _ in 0..if tr.enabled() { 1 } else { SETUP_REPS } {
        // Drop the previous set-up first so its file and mapping go.
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup(ctx, prec, tr, pool.clone(), classes));
        setups.push(t.elapsed().as_secs_f64());
    }
    let Setup {
        model,
        mem,
        map,
        images,
        _file,
    } = kept.expect("at least one set-up");

    let mut parity = true;
    for x in images.iter().take(2) {
        parity &= bits(&map.forward(x)) == bits(&mem.forward(x));
    }
    out.gates.push(Gate::new(
        &format!("infer.{}.mmap_forward_bitwise_equals_in_memory", prec.tag()),
        parity,
        "logits of 2 pooled images, mmap-loaded artifact vs in-memory freeze",
    ));
    if prec == Precision::Int8 && full {
        let f32 = Precision::F32.freeze(&model);
        let agree = images
            .iter()
            .filter(|x| argmax_rows(&f32.forward(x)) == argmax_rows(&map.forward(x)))
            .count();
        let share = agree as f64 / POOL as f64;
        let gate = QuantGateConfig::default().min_agreement;
        out.gates.push(Gate::new(
            "infer.int8_top1_agreement",
            share >= gate,
            format!(
                "{agree}/{POOL} pooled images = {share:.4} against the serve quant gate {gate}"
            ),
        ));
    }
    if tr.enabled() && prec == Precision::F32 {
        pieces(&model, &images, tr, 5, &mut out);
    }
    drop((model, mem));
    let mut speed = HostSpeed::default();
    let rss_reset = host::reset_peak_rss();
    // The reset handed freed heap back; fault the loop's buffers in again
    // before timing.
    std::hint::black_box(map.forward(&images[0]));
    speed.time_ms();

    let name = format!("core.classifier.{}", prec.tag());
    let mut rng = Rng::new(ctx.seed ^ 0x1AFE);
    let (mut ms, mut ref_ms, mut scaled) = (Vec::new(), Vec::new(), Vec::new());
    let mut finite = 0usize;
    let want_tail = full && tr.enabled();
    let min_calls = if want_tail { TAIL_CALLS } else { MIN_CALLS };
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < seconds || ms.len() < min_calls {
        let r = speed.time_ms();
        let x = &images[rng.below(POOL)];
        let i = ms.len() as u64;
        let c = Instant::now();
        let y = tr.scope("op.infer", i, || tr.scope(&name, i, || map.forward(x)));
        let wall = c.elapsed().as_secs_f64() * 1e3;
        ms.push(wall);
        ref_ms.push(r);
        scaled.push(hostspeed::scaled(wall, r));
        finite += usize::from(y.is_finite() && y.shape() == map.logit_shape(1));
    }
    let rss = host::peak_rss_mb().unwrap_or(f64::NAN);

    let sum = Summary::of(&ms);
    out.attempted = ms.len() as u64;
    out.failed = (ms.len() - finite) as u64;
    out.e2e.put("setup_s", median(&setups), "s");
    out.e2e.put("peak_rss_mb", rss, "MiB");
    let secs: Vec<f64> = scaled.iter().map(|m| m * 1e-3).collect();
    let rate = windowed_rate(&secs, RATE_WINDOW, 1.0);
    out.e2e.put("throughput_per_s", rate, "1/s");
    out.e2e.put("latency_p50_ms", median(&scaled), "ms");
    out.e2e
        .put("ok_share", finite as f64 / ms.len() as f64, "share");
    out.layers
        .put(format!("infer.{}_ms_tail", prec.tag()), sum.tail, "ms");
    if want_tail {
        out.gates.push(Gate::new(
            "infer.p90_supported",
            Summary::at(&ms, 0.90).is_some(),
            format!("{} samples", ms.len()),
        ));
    }
    out.detail(
        &format!("infer_{}", prec.tag()),
        Json::obj([
            ("calls", Json::Int(ms.len() as i64)),
            ("wall_p50_ms", Json::Num(sum.p50)),
            ("reference_nominal_ms", Json::Num(NOMINAL_MS)),
            ("reference_p50_ms", Json::Num(median(&ref_ms))),
            ("tail_percentile", sum.tail_p.map_or(Json::Null, Json::Num)),
            ("tail_ms", Json::Num(sum.tail)),
            ("peak_rss_reset", Json::Bool(rss_reset)),
            (
                "setup_samples_s",
                Json::Arr(setups.into_iter().map(Json::Num).collect()),
            ),
        ]),
    );
    out
}

/// Frozen pieces probe: the stem and every stage frozen on their own
/// (`Stem::freeze`, `RevStage::freeze`, then `quantize` / `compile`), run
/// in sequence at batch 1, next to the whole frozen backbone and the whole
/// classifier. The neck + head time is the classifier's median minus the
/// backbone's (the frozen head has no public standalone compile).
fn pieces(
    model: &RevBiFPNClassifier,
    images: &[Tensor],
    tr: &Tracer,
    reps: usize,
    out: &mut Outcome,
) {
    let backbone = model.backbone();
    let stem = backbone.stem().freeze().expect("stem freezes");
    let stages = backbone.body().stages();
    let x0 = Shape::new(1, 3, RES, RES);
    let mut shapes = vec![backbone.stem().out_shape(x0)];
    let mut macs = Vec::new();
    for st in stages {
        macs.push(st.macs(&shapes));
        shapes = st.out_shapes(&shapes);
    }

    let m = &mut out.layers;
    for prec in [Precision::F32, Precision::Int8] {
        let tag = prec.tag();
        let int8 = prec == Precision::Int8;
        let frozen: Vec<_> = stages
            .iter()
            .map(|st| {
                let mut f = st.freeze().expect("stage freezes");
                if int8 {
                    f.quantize();
                }
                f.compile();
                f
            })
            .collect();
        let mut whole = backbone.freeze().expect("backbone freezes");
        if int8 {
            whole.quantize();
        }
        whole.compile();
        let classifier = prec.freeze(model);
        if int8 {
            m.put(
                "core.quant_packed_bytes",
                classifier.quant_packed_bytes() as f64,
                "bytes",
            );
        } else {
            m.put(
                "core.packed_bytes",
                classifier.packed_bytes() as f64,
                "bytes",
            );
        }

        let mut stem_ms = Vec::new();
        let mut stage_ms = vec![Vec::new(); stages.len()];
        let (mut backbone_ms, mut full_ms) = (Vec::new(), Vec::new());
        let timed = |name: &str, r: usize, out: &mut Vec<f64>, f: &mut dyn FnMut()| {
            let c = Instant::now();
            tr.scope(name, r as u64, f);
            out.push(c.elapsed().as_secs_f64() * 1e3);
        };
        for r in 0..reps {
            let x = &images[r % images.len()];
            tr.scope(&format!("op.pieces.{tag}"), r as u64, || {
                let mut cur = Vec::new();
                timed(&format!("core.stem.{tag}"), r, &mut stem_ms, &mut || {
                    cur = vec![stem.forward(x)]
                });
                for (i, f) in frozen.iter().enumerate() {
                    timed(
                        &format!("rev.stage.{i}.{tag}"),
                        r,
                        &mut stage_ms[i],
                        &mut || cur = f.forward(&cur),
                    );
                }
                timed(
                    &format!("core.backbone.{tag}"),
                    r,
                    &mut backbone_ms,
                    &mut || {
                        std::hint::black_box(whole.forward(x));
                    },
                );
                timed(
                    &format!("core.classifier.{tag}"),
                    r,
                    &mut full_ms,
                    &mut || {
                        std::hint::black_box(classifier.forward(x));
                    },
                );
            });
        }
        m.put(format!("core.stem.{tag}_ms"), median(&stem_ms), "ms");
        for (i, v) in stage_ms.iter().enumerate() {
            let ms = median(v);
            m.put(format!("rev.stage.{i}.{tag}_ms"), ms, "ms");
            m.put(
                format!("rev.stage.{i}.{tag}_gmac_s"),
                macs[i] as f64 / (ms * 1e6),
                "GMAC/s",
            );
        }
        m.put(
            format!("core.neckhead.{tag}_ms"),
            median(&full_ms) - median(&backbone_ms),
            "ms",
        );
    }
}
