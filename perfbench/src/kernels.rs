//! Kernel probe of the `tensor` layer: achieved GMAC/s of the depthwise
//! 3x3 and pointwise (1x1 GEMM) kernels, f32 and int8, at the stream-0
//! block shapes S0 uses (24 -> 48 channel expand, 48-channel depthwise;
//! 56 px at 224 px input for frozen inference, 32 px batch 4 — one
//! training shard at 128 px — for the training convolution). Each kernel
//! runs at the thread budget of the workload it serves: 1 for the frozen
//! plans and prepacked GEMMs (inference), 2 for `conv2d` (training).

use crate::report::Metrics;
use crate::schedule::Rng;
use crate::stats::median;
use crate::trace::Tracer;
use revbifpn_tensor::{
    conv2d, par, int8_act_scale, qgemm_prepacked, quantize_activations, sgemm_prepacked, ConvPlan,
    ConvSpec, Epilogue, EpilogueAct, PackedGemmA, PackedGemmAI8, QuantConvPlan, Shape, Tensor,
};
use std::hint::black_box;
use std::time::Instant;

const C_IN: usize = 24;
const C_HID: usize = 48;
const HW_INFER: usize = 56;
const HW_TRAIN: usize = 32;
const TRAIN_N: usize = 4;

fn tensor(shape: Shape, rng: &mut Rng) -> Tensor {
    let data = (0..shape.numel())
        .map(|_| rng.unit() as f32 * 2.0 - 1.0)
        .collect();
    Tensor::from_vec(shape, data).expect("shape matches data")
}

/// Median seconds per call of `f`, over calls filling `budget_s`.
fn time_call(tr: &Tracer, name: &str, budget_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let mut per = Vec::new();
    let t = Instant::now();
    while per.len() < 5 || t.elapsed().as_secs_f64() < budget_s {
        let c = Instant::now();
        tr.scope(name, per.len() as u64, &mut f);
        per.push(c.elapsed().as_secs_f64());
    }
    median(&per)
}

/// Runs every kernel for about `budget_s` each and reports GMAC/s.
pub fn probe(seed: u64, tr: &Tracer, budget_s: f64) -> Metrics {
    let mut rng = Rng::new(seed ^ 0x4B45);
    let mut m = Metrics::default();
    let gmac_s = |macs: u64, s: f64| macs as f64 / (s * 1e9);

    par::set_max_threads(1);
    // Depthwise 3x3, frozen f32 and int8 plans.
    let dw = ConvSpec::depthwise(3, 1, C_HID);
    let x = tensor(Shape::new(1, C_HID, HW_INFER, HW_INFER), &mut rng);
    let w = tensor(Shape::new(C_HID, 1, 3, 3), &mut rng);
    let macs = dw.macs(x.shape(), C_HID);
    let plan = ConvPlan::new(&w, vec![0.0; C_HID], dw, EpilogueAct::None);
    let s = time_call(tr, "tensor.dw3x3_f32", budget_s, || {
        black_box(plan.forward(black_box(&x)));
    });
    m.put("tensor.dw3x3_f32_gmac_s", gmac_s(macs, s), "GMAC/s");
    let qplan = QuantConvPlan::new(&w, vec![0.0; C_HID], dw, EpilogueAct::None);
    let s = time_call(tr, "tensor.dw3x3_int8", budget_s, || {
        black_box(qplan.forward_quant(black_box(&x), None));
    });
    m.put("tensor.dw3x3_int8_gmac_s", gmac_s(macs, s), "GMAC/s");

    // Depthwise 3x3 through the training convolution.
    par::set_max_threads(2);
    let xt = tensor(Shape::new(TRAIN_N, C_HID, HW_TRAIN, HW_TRAIN), &mut rng);
    let macs_t = dw.macs(xt.shape(), C_HID);
    let s = time_call(tr, "tensor.conv2d_dw3x3_f32", budget_s, || {
        black_box(conv2d(black_box(&xt), &w, None, &dw));
    });
    m.put(
        "tensor.conv2d_dw3x3_f32_gmac_s",
        gmac_s(macs_t, s),
        "GMAC/s",
    );

    par::set_max_threads(1);
    // Pointwise expand as a prepacked GEMM: [48 x 24] x [24 x 56*56].
    let n = HW_INFER * HW_INFER;
    let a = tensor(Shape::new(1, 1, C_HID, C_IN), &mut rng);
    let b = tensor(Shape::new(1, 1, C_IN, n), &mut rng);
    let macs = (C_HID * C_IN * n) as u64;
    let pa = PackedGemmA::pack(C_HID, C_IN, a.data());
    let mut c = vec![0.0f32; C_HID * n];
    let epi = Epilogue::new(None, EpilogueAct::None);
    let s = time_call(tr, "tensor.gemm1x1_f32", budget_s, || {
        sgemm_prepacked(&pa, n, black_box(b.data()), &mut c, &epi);
        black_box(&c);
    });
    m.put("tensor.gemm1x1_f32_gmac_s", gmac_s(macs, s), "GMAC/s");
    let qa = PackedGemmAI8::pack_quantize(C_HID, C_IN, a.data());
    let absmax = b.data().iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
    let scale = int8_act_scale(absmax);
    let mut bq = vec![0u8; C_IN * n];
    let s = time_call(tr, "tensor.qgemm1x1", budget_s, || {
        quantize_activations(black_box(b.data()), scale, &mut bq);
        black_box(qgemm_prepacked(&qa, n, &bq, scale, &mut c, &epi));
    });
    m.put("tensor.qgemm1x1_gmac_s", gmac_s(macs, s), "GMAC/s");
    m
}
