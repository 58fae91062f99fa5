//! Multi-stream reversible stages and the [`ReversibleSequence`] engine that
//! performs "backpropagation without storing activations" over a chain of
//! them.
//!
//! A [`RevStage`] transforms a vector of per-resolution feature streams into
//! another such vector, invertibly. RevBiFPN's backbone is a
//! `ReversibleSequence` of [`SiloStage`]s (fusion) and [`BlockStage`]s
//! (same-resolution reversible residual blocks).

use crate::revblock::RevBlock;
use crate::silo::RevSilo;
use revbifpn_nn::{meter, CacheMode, Cached, Param};
use revbifpn_tensor::{Shape, Tensor};

/// A reversible transformation over a vector of feature streams.
///
/// `Send` mirrors the bound on [`revbifpn_nn::Layer`]: stages run inside
/// worker-pool tasks (sharded training) and schedule their own sub-layer
/// work on the pool.
pub trait RevStage: std::fmt::Debug + Send {
    /// Forward pass: `n_in` streams in, `n_out` streams out.
    fn forward(&mut self, xs: &[Tensor], mode: CacheMode) -> Vec<Tensor>;

    /// Exact inverse (evaluation semantics).
    fn inverse(&mut self, ys: &[Tensor]) -> Vec<Tensor>;

    /// Reversible backward from outputs: reconstructs inputs, accumulates
    /// parameter gradients, returns `(xs, dxs)`. Requires the forward pass
    /// to have used [`CacheMode::Stats`].
    fn backward_rev(&mut self, ys: &[Tensor], dys: &[Tensor]) -> (Vec<Tensor>, Vec<Tensor>);

    /// Conventional backward consuming `Full` caches.
    fn backward_cached(&mut self, dys: &[Tensor]) -> Vec<Tensor>;

    /// Number of input streams.
    fn in_streams(&self) -> usize;

    /// Number of output streams.
    fn out_streams(&self) -> usize;

    /// Output shapes for given input shapes.
    fn out_shapes(&self, xs: &[Shape]) -> Vec<Shape>;

    /// MAC count of one forward pass.
    fn macs(&self, xs: &[Shape]) -> u64;

    /// Visits all parameters.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visits all non-parameter persistent buffers (BatchNorm running
    /// statistics) in a stable order, for checkpoint/resume.
    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        let _ = f;
    }

    /// Visits every BatchNorm layer in a stable order (see
    /// [`revbifpn_nn::Layer::visit_bn`]); the sharded trainer uses this to
    /// manage decoupled batch statistics.
    fn visit_bn(&mut self, f: &mut dyn FnMut(&mut revbifpn_nn::layers::BatchNorm2d)) {
        let _ = f;
    }

    /// Clears all caches.
    fn clear_cache(&mut self);

    /// Analytic cache bytes for the given input shapes and mode.
    fn cache_bytes(&self, xs: &[Shape], mode: CacheMode) -> u64;

    /// Short identifier for diagnostics.
    fn name(&self) -> &str {
        "rev_stage"
    }

    /// Inference-only frozen form of this stage (see [`crate::FrozenStage`]).
    /// The result is *uncompiled*: call [`crate::FrozenStage::compile`] (or
    /// freeze through [`ReversibleSequence::freeze`]) before running it.
    fn freeze(&self) -> Result<crate::FrozenStage, revbifpn_nn::FreezeError> {
        Err(revbifpn_nn::FreezeError::unsupported("reversible stage", self.name()))
    }
}

impl RevStage for RevSilo {
    fn forward(&mut self, xs: &[Tensor], mode: CacheMode) -> Vec<Tensor> {
        RevSilo::forward(self, xs, mode)
    }

    fn inverse(&mut self, ys: &[Tensor]) -> Vec<Tensor> {
        RevSilo::inverse(self, ys)
    }

    fn backward_rev(&mut self, ys: &[Tensor], dys: &[Tensor]) -> (Vec<Tensor>, Vec<Tensor>) {
        RevSilo::backward_rev(self, ys, dys)
    }

    fn backward_cached(&mut self, dys: &[Tensor]) -> Vec<Tensor> {
        RevSilo::backward_cached(self, dys)
    }

    fn in_streams(&self) -> usize {
        self.n_in()
    }

    fn out_streams(&self) -> usize {
        self.n_out()
    }

    fn out_shapes(&self, xs: &[Shape]) -> Vec<Shape> {
        RevSilo::out_shapes(self, xs)
    }

    fn macs(&self, xs: &[Shape]) -> u64 {
        RevSilo::macs(self, xs)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        RevSilo::visit_params(self, f)
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        RevSilo::visit_buffers(self, f)
    }

    fn visit_bn(&mut self, f: &mut dyn FnMut(&mut revbifpn_nn::layers::BatchNorm2d)) {
        RevSilo::visit_bn(self, f)
    }

    fn clear_cache(&mut self) {
        RevSilo::clear_cache(self)
    }

    fn cache_bytes(&self, xs: &[Shape], mode: CacheMode) -> u64 {
        RevSilo::cache_bytes(self, xs, mode)
    }

    fn name(&self) -> &str {
        "rev_silo"
    }

    fn freeze(&self) -> Result<crate::FrozenStage, revbifpn_nn::FreezeError> {
        Ok(crate::FrozenStage::Silo(RevSilo::freeze(self)?))
    }
}

/// Per-stream reversible residual blocks (the "I" components of the paper's
/// Figure 3): stream `i` is transformed by `blocks[i]` in sequence, streams
/// do not interact.
#[derive(Debug, Default)]
pub struct BlockStage {
    blocks: Vec<Vec<RevBlock>>,
}

impl BlockStage {
    /// Builds from per-stream block chains (an empty chain = identity for
    /// that stream).
    pub fn new(blocks: Vec<Vec<RevBlock>>) -> Self {
        Self { blocks }
    }

    /// Number of streams.
    pub fn streams(&self) -> usize {
        self.blocks.len()
    }
}

impl RevStage for BlockStage {
    fn forward(&mut self, xs: &[Tensor], mode: CacheMode) -> Vec<Tensor> {
        assert_eq!(xs.len(), self.blocks.len(), "BlockStage stream count mismatch");
        xs.iter()
            .zip(&mut self.blocks)
            .map(|(x, chain)| {
                let mut cur = x.clone();
                for b in chain {
                    cur = b.forward(&cur, mode);
                }
                cur
            })
            .collect()
    }

    fn inverse(&mut self, ys: &[Tensor]) -> Vec<Tensor> {
        ys.iter()
            .zip(&mut self.blocks)
            .map(|(y, chain)| {
                let mut cur = y.clone();
                for b in chain.iter_mut().rev() {
                    cur = b.inverse(&cur);
                }
                cur
            })
            .collect()
    }

    fn backward_rev(&mut self, ys: &[Tensor], dys: &[Tensor]) -> (Vec<Tensor>, Vec<Tensor>) {
        // Streams never interact, so each stream's whole reconstruct+backward
        // chain is one independent task. Tasks run under `meter::isolated`
        // and are absorbed in stream order, so the activation-meter trace and
        // all results are bitwise independent of the thread count.
        let mut slots: Vec<Option<((Tensor, Tensor), meter::TaskMeter)>> =
            (0..self.blocks.len()).map(|_| None).collect();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = self
            .blocks
            .iter_mut()
            .zip(slots.iter_mut())
            .zip(ys.iter().zip(dys))
            .map(|((chain, slot), (y, dy))| {
                Box::new(move || {
                    *slot = Some(meter::isolated(|| {
                        let mut cur = y.clone();
                        let mut dcur = dy.clone();
                        for b in chain.iter_mut().rev() {
                            let (x, dx) = b.backward_rev(&cur, &dcur);
                            cur = x;
                            dcur = dx;
                        }
                        (cur, dcur)
                    }));
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        revbifpn_tensor::par::parallel_join(tasks);
        let mut xs = Vec::with_capacity(ys.len());
        let mut dxs = Vec::with_capacity(ys.len());
        for slot in slots {
            let ((x, dx), tm) = slot.expect("stream task did not run");
            meter::absorb(&tm);
            xs.push(x);
            dxs.push(dx);
        }
        (xs, dxs)
    }

    fn backward_cached(&mut self, dys: &[Tensor]) -> Vec<Tensor> {
        dys.iter()
            .zip(&mut self.blocks)
            .map(|(dy, chain)| {
                let mut cur = dy.clone();
                for b in chain.iter_mut().rev() {
                    cur = b.backward_cached(&cur);
                }
                cur
            })
            .collect()
    }

    fn in_streams(&self) -> usize {
        self.blocks.len()
    }

    fn out_streams(&self) -> usize {
        self.blocks.len()
    }

    fn out_shapes(&self, xs: &[Shape]) -> Vec<Shape> {
        xs.to_vec()
    }

    fn macs(&self, xs: &[Shape]) -> u64 {
        xs.iter().zip(&self.blocks).map(|(x, chain)| chain.iter().map(|b| b.macs(*x)).sum::<u64>()).sum()
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for chain in &mut self.blocks {
            for b in chain {
                b.visit_params(f);
            }
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for chain in &mut self.blocks {
            for b in chain {
                b.visit_buffers(f);
            }
        }
    }

    fn visit_bn(&mut self, f: &mut dyn FnMut(&mut revbifpn_nn::layers::BatchNorm2d)) {
        for chain in &mut self.blocks {
            for b in chain {
                b.visit_bn(f);
            }
        }
    }

    fn clear_cache(&mut self) {
        for chain in &mut self.blocks {
            for b in chain {
                b.clear_cache();
            }
        }
    }

    fn cache_bytes(&self, xs: &[Shape], mode: CacheMode) -> u64 {
        xs.iter()
            .zip(&self.blocks)
            .map(|(x, chain)| chain.iter().map(|b| b.cache_bytes(*x, mode)).sum::<u64>())
            .sum()
    }

    fn name(&self) -> &str {
        "block_stage"
    }

    fn freeze(&self) -> Result<crate::FrozenStage, revbifpn_nn::FreezeError> {
        let blocks = self
            .blocks
            .iter()
            .map(|chain| chain.iter().map(RevBlock::freeze).collect::<Result<Vec<_>, _>>())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(crate::FrozenStage::Blocks(blocks))
    }
}

/// How a reversible sequence is trained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainMode {
    /// Reversible recomputation: forward with [`CacheMode::Stats`], backward
    /// reconstructs activations stage-by-stage. O(nchw) activation memory.
    Reversible,
    /// Conventional training: forward with [`CacheMode::Full`], every stage
    /// keeps its caches. Θ(nchw·d) activation memory.
    Conventional,
}

/// Policy applied by the drift sentinel when a stage's reconstructed
/// activations drift from their forward-pass fingerprint beyond tolerance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftPolicy {
    /// Count the event (`rev.drift_warn` in `nn::meter`) and continue.
    Warn,
    /// Switch the offending stage to conventional activation caching for the
    /// rest of the run (hybrid-reversible); counted as `rev.drift_fallback`.
    FallbackToCached,
    /// Panic: the run is unrecoverable by policy.
    Abort,
}

/// Configuration of the reversible-drift sentinel.
///
/// During a `Stats`-mode forward, each stage's *input* streams are
/// fingerprinted with a strided sample (at most [`FP_SAMPLES`] values per
/// stream, not counted by the activation meter). The reversible backward
/// compares the reconstructed inputs against the fingerprint; drift above
/// `tolerance` triggers `policy`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftConfig {
    /// Master switch; when `false` no fingerprints are captured or checked.
    pub enabled: bool,
    /// Max-abs-diff budget per sampled element. The default, `5e-2`, is the
    /// same bound the inversion tests use: measured whole-network
    /// reconstruction error is ~1.7e-2 (toolchain-dependent), while
    /// structural corruption produces O(1) errors.
    pub tolerance: f32,
    /// What to do when drift exceeds `tolerance`.
    pub policy: DriftPolicy,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self { enabled: true, tolerance: 5e-2, policy: DriftPolicy::Warn }
    }
}

/// Per-stage drift statistics from the sentinel.
#[derive(Clone, Debug)]
pub struct DriftStageReport {
    /// Stage identifier ([`RevStage::name`]).
    pub name: String,
    /// Largest drift observed across all checked backward passes.
    pub max_drift: f32,
    /// Number of backward passes in which this stage was checked.
    pub checks: u64,
    /// `true` if the stage has been switched to conventional caching.
    pub fallback: bool,
}

/// Sentinel statistics for a whole [`ReversibleSequence`].
#[derive(Clone, Debug, Default)]
pub struct DriftReport {
    /// One entry per stage, in forward order.
    pub stages: Vec<DriftStageReport>,
}

impl DriftReport {
    /// Number of stages currently running in cached-fallback mode.
    pub fn fallback_count(&self) -> usize {
        self.stages.iter().filter(|s| s.fallback).count()
    }

    /// Largest drift observed across all stages.
    pub fn max_drift(&self) -> f32 {
        self.stages.iter().fold(0.0, |m, s| m.max(s.max_drift))
    }
}

/// A one-shot injected reconstruction fault (deterministic test harness):
/// before stage `stage`'s reversible backward, bit `bit` of element
/// `index` (modulo length) in output stream `stream` is flipped —
/// simulating a corrupted activation inside the reversible chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconFault {
    /// Stage index (forward order) whose *output* is corrupted.
    pub stage: usize,
    /// Stream index within that stage's outputs.
    pub stream: usize,
    /// Element index (taken modulo the stream length).
    pub index: usize,
    /// Bit to flip (taken modulo 32).
    pub bit: u32,
}

/// Samples per stream used for drift fingerprints. The cost per stage is a
/// strided read of at most this many elements — negligible next to the
/// stage's own recomputation, and deliberately *not* registered with the
/// activation meter (it is O(1) diagnostic state, not an activation cache).
pub const FP_SAMPLES: usize = 64;

fn fingerprint(xs: &[Tensor]) -> Vec<Vec<f32>> {
    xs.iter()
        .map(|x| {
            let d = x.data();
            let stride = (d.len() / FP_SAMPLES).max(1);
            d.iter().step_by(stride).take(FP_SAMPLES).copied().collect()
        })
        .collect()
}

fn flip_bit(t: &mut Tensor, index: usize, bit: u32) {
    let d = t.data_mut();
    let i = index % d.len();
    d[i] = f32::from_bits(d[i].to_bits() ^ (1u32 << (bit % 32)));
}

fn fingerprint_drift(fp: &[Vec<f32>], xs: &[Tensor]) -> f32 {
    let mut worst = 0.0f32;
    for (samples, x) in fp.iter().zip(xs) {
        let d = x.data();
        let stride = (d.len() / FP_SAMPLES).max(1);
        for (s, v) in samples.iter().zip(d.iter().step_by(stride)) {
            let diff = (s - v).abs();
            // A NaN reconstruction is infinite drift, not zero: naive
            // f32::max would silently ignore it.
            worst = worst.max(if diff.is_finite() { diff } else { f32::INFINITY });
        }
    }
    worst
}

/// Per-stage sentinel state (fingerprint, fallback status, statistics).
#[derive(Debug, Default)]
struct StageSentinel {
    fingerprint: Option<Vec<Vec<f32>>>,
    fallback: bool,
    /// Input streams stored when the stage runs in cached-fallback mode.
    /// Unlike fingerprints this is real activation memory, so it *is*
    /// registered with the meter.
    fallback_inputs: Cached<Vec<Tensor>>,
    max_drift: f32,
    checks: u64,
}

/// A chain of [`RevStage`]s with a single backward entry point that
/// dispatches on [`TrainMode`], guarded by a reversible-drift sentinel (see
/// [`DriftConfig`]).
#[derive(Debug, Default)]
pub struct ReversibleSequence {
    stages: Vec<Box<dyn RevStage>>,
    sentinels: Vec<StageSentinel>,
    drift: DriftConfig,
    recon_fault: Option<ReconFault>,
}

impl ReversibleSequence {
    /// An empty sequence (identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage.
    pub fn add(&mut self, stage: Box<dyn RevStage>) {
        if let Some(last) = self.stages.last() {
            assert_eq!(
                last.out_streams(),
                stage.in_streams(),
                "stage stream counts must chain: {} -> {}",
                last.out_streams(),
                stage.in_streams()
            );
        }
        self.stages.push(stage);
        self.sentinels.push(StageSentinel::default());
    }

    /// Replaces the drift-sentinel configuration and resets all sentinel
    /// state (fingerprints, fallback flags, statistics, pending faults).
    pub fn set_drift_config(&mut self, cfg: DriftConfig) {
        self.drift = cfg;
        self.recon_fault = None;
        for s in &mut self.sentinels {
            *s = StageSentinel::default();
        }
    }

    /// Current drift-sentinel configuration.
    pub fn drift_config(&self) -> DriftConfig {
        self.drift
    }

    /// Per-stage drift statistics.
    pub fn drift_report(&self) -> DriftReport {
        DriftReport {
            stages: self
                .stages
                .iter()
                .zip(&self.sentinels)
                .map(|(stage, s)| DriftStageReport {
                    name: stage.name().to_string(),
                    max_drift: s.max_drift,
                    checks: s.checks,
                    fallback: s.fallback,
                })
                .collect(),
        }
    }

    /// Arms a one-shot [`ReconFault`]: the next reversible backward flips the
    /// requested bit before the target stage's reconstruction. Test harness
    /// for the drift sentinel; a no-op for conventional backward.
    pub fn inject_recon_fault(&mut self, fault: ReconFault) {
        assert!(fault.stage < self.stages.len(), "fault stage {} out of range", fault.stage);
        self.recon_fault = Some(fault);
    }

    /// Visits all non-parameter persistent buffers, in stage order.
    pub fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for s in &mut self.stages {
            s.visit_buffers(f);
        }
    }

    /// Visits every BatchNorm layer, in stage order.
    pub fn visit_bn(&mut self, f: &mut dyn FnMut(&mut revbifpn_nn::layers::BatchNorm2d)) {
        for s in &mut self.stages {
            s.visit_bn(f);
        }
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` when no stages have been added.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Immutable stage access.
    pub fn stages(&self) -> &[Box<dyn RevStage>] {
        &self.stages
    }

    /// Consumes the sequence and returns its stages in forward order,
    /// discarding sentinel state, so a caller can drive and time the
    /// stages one at a time.
    pub fn into_stages(self) -> Vec<Box<dyn RevStage>> {
        self.stages
    }

    /// Inference-only frozen form of the whole chain: every stage frozen via
    /// [`RevStage::freeze`]. The result is *uncompiled*; call
    /// [`crate::FrozenSequence::compile`] to pack the conv weights.
    pub fn freeze(&self) -> Result<crate::FrozenSequence, revbifpn_nn::FreezeError> {
        let stages = self.stages.iter().map(|s| s.freeze()).collect::<Result<Vec<_>, _>>()?;
        Ok(crate::FrozenSequence::new(stages))
    }

    /// Forward through all stages. For training, pass `CacheMode::Stats`
    /// (reversible) or `CacheMode::Full` (conventional).
    ///
    /// In `Stats` mode the drift sentinel (when enabled) fingerprints each
    /// stage's input, and any stage in cached-fallback mode runs with `Full`
    /// caches plus a stored copy of its input (hybrid-reversible).
    pub fn forward(&mut self, xs: Vec<Tensor>, mode: CacheMode) -> Vec<Tensor> {
        let mut cur = xs;
        for (s, sent) in self.stages.iter_mut().zip(self.sentinels.iter_mut()) {
            if mode == CacheMode::Stats {
                if self.drift.enabled {
                    sent.fingerprint = Some(fingerprint(&cur));
                }
                if sent.fallback {
                    let bytes = cur.iter().map(Tensor::bytes).sum();
                    sent.fallback_inputs.put(cur.clone(), bytes);
                    cur = s.forward(&cur, CacheMode::Full);
                    continue;
                }
            }
            cur = s.forward(&cur, mode);
        }
        cur
    }

    /// Exact inverse through all stages (evaluation semantics).
    pub fn inverse(&mut self, ys: Vec<Tensor>) -> Vec<Tensor> {
        let mut cur = ys;
        for s in self.stages.iter_mut().rev() {
            cur = s.inverse(&cur);
        }
        cur
    }

    /// Backward pass.
    ///
    /// * `TrainMode::Reversible`: `ys` must be the outputs of the forward
    ///   pass; activations are reconstructed stage by stage. Returns
    ///   `(xs, dxs)` at the sequence input.
    /// * `TrainMode::Conventional`: uses the stages' `Full` caches; `ys` is
    ///   ignored (may be empty). Returns `(vec![], dxs)`.
    pub fn backward(&mut self, ys: &[Tensor], dys: Vec<Tensor>, mode: TrainMode) -> (Vec<Tensor>, Vec<Tensor>) {
        match mode {
            TrainMode::Reversible => {
                let mut cur_y: Vec<Tensor> = ys.to_vec();
                let mut cur_dy = dys;
                let cfg = self.drift;
                let fault = self.recon_fault.take();
                let iter = self.stages.iter_mut().zip(self.sentinels.iter_mut());
                for (i, (s, sent)) in iter.enumerate().rev() {
                    if sent.fallback {
                        // Hybrid-reversible: consume the Full caches and the
                        // stored input instead of reconstructing.
                        let dxs = s.backward_cached(&cur_dy);
                        cur_y = sent
                            .fallback_inputs
                            .take()
                            .expect("fallback stage has no stored input (Stats forward missing)");
                        cur_dy = dxs;
                        continue;
                    }
                    if let Some(f) = fault {
                        if f.stage == i {
                            let stream = f.stream % cur_y.len();
                            flip_bit(&mut cur_y[stream], f.index, f.bit);
                        }
                    }
                    let (xs, dxs) = s.backward_rev(&cur_y, &cur_dy);
                    if cfg.enabled {
                        if let Some(fp) = sent.fingerprint.take() {
                            let drift = fingerprint_drift(&fp, &xs);
                            sent.checks += 1;
                            sent.max_drift = sent.max_drift.max(drift);
                            if drift > cfg.tolerance {
                                match cfg.policy {
                                    DriftPolicy::Warn => meter::count("rev.drift_warn"),
                                    DriftPolicy::FallbackToCached => {
                                        sent.fallback = true;
                                        meter::count("rev.drift_fallback");
                                    }
                                    DriftPolicy::Abort => panic!(
                                        "reversible drift {drift:.3e} exceeds tolerance {:.3e} \
                                         at stage {i} ({})",
                                        cfg.tolerance,
                                        s.name()
                                    ),
                                }
                            }
                        }
                    }
                    cur_y = xs;
                    cur_dy = dxs;
                }
                (cur_y, cur_dy)
            }
            TrainMode::Conventional => {
                let mut cur_dy = dys;
                for s in self.stages.iter_mut().rev() {
                    cur_dy = s.backward_cached(&cur_dy);
                }
                (Vec::new(), cur_dy)
            }
        }
    }

    /// Output shapes for given input shapes.
    pub fn out_shapes(&self, xs: &[Shape]) -> Vec<Shape> {
        let mut cur = xs.to_vec();
        for s in &self.stages {
            cur = s.out_shapes(&cur);
        }
        cur
    }

    /// Total MAC count.
    pub fn macs(&self, xs: &[Shape]) -> u64 {
        let mut cur = xs.to_vec();
        let mut total = 0;
        for s in &self.stages {
            total += s.macs(&cur);
            cur = s.out_shapes(&cur);
        }
        total
    }

    /// Visits all parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for s in &mut self.stages {
            s.visit_params(f);
        }
    }

    /// Clears all stage caches, pending fingerprints, and stored fallback
    /// inputs. Fallback *flags* and drift statistics persist (a stage that
    /// tripped the sentinel stays on the cached path for the rest of the
    /// run); use [`ReversibleSequence::set_drift_config`] to fully reset.
    pub fn clear_cache(&mut self) {
        for s in &mut self.stages {
            s.clear_cache();
        }
        for sent in &mut self.sentinels {
            sent.fingerprint = None;
            sent.fallback_inputs.clear();
        }
    }

    /// Analytic cache bytes of a forward pass in `mode`, summed over stages.
    pub fn cache_bytes(&self, xs: &[Shape], mode: CacheMode) -> u64 {
        let mut cur = xs.to_vec();
        let mut total = 0;
        for s in &self.stages {
            total += s.cache_bytes(&cur, mode);
            cur = s.out_shapes(&cur);
        }
        total
    }

    /// Analytic *peak transient* cache bytes of the reversible backward: the
    /// largest single stage's `Full` cache (stages are recomputed one at a
    /// time and freed immediately).
    pub fn peak_transient_bytes(&self, xs: &[Shape]) -> u64 {
        let mut cur = xs.to_vec();
        let mut peak = 0;
        for s in &self.stages {
            peak = peak.max(s.cache_bytes(&cur, CacheMode::Full));
            cur = s.out_shapes(&cur);
        }
        peak
    }

    /// Analytic activation bytes of classic gradient checkpointing (Chen et
    /// al. 2016) over this sequence: the inputs of every `segment`-th stage
    /// are stored, and the largest segment is rematerialized with `Full`
    /// caches during backward. `segment = 1` degenerates to conventional
    /// training; `segment = len()` stores only the sequence input.
    /// With `segment ~ sqrt(len())` this is the O(sqrt(D)) regime the paper
    /// contrasts reversibility against (Appendix A).
    ///
    /// # Panics
    ///
    /// Panics if `segment == 0`.
    pub fn checkpoint_bytes(&self, xs: &[Shape], segment: usize) -> u64 {
        assert!(segment > 0, "segment length must be positive");
        let mut cur = xs.to_vec();
        let mut stored = 0u64;
        let mut seg_cache = 0u64;
        let mut max_seg = 0u64;
        for (i, s) in self.stages.iter().enumerate() {
            if i % segment == 0 {
                stored += cur.iter().map(|sh| sh.bytes() as u64).sum::<u64>();
                max_seg = max_seg.max(seg_cache);
                seg_cache = 0;
            }
            seg_cache += s.cache_bytes(&cur, CacheMode::Full);
            cur = s.out_shapes(&cur);
        }
        stored + max_seg.max(seg_cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use revbifpn_nn::layers::{MBConv, MBConvCfg};
    use revbifpn_nn::Layer;
    use revbifpn_tensor::Tensor;

    const C: [usize; 3] = [8, 12, 16];

    fn make_silo(n_in: usize, n_out: usize, seed: u64) -> RevSilo {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut down = |j: usize, i: usize| -> Box<dyn Layer> {
            Box::new(MBConv::new(MBConvCfg::down(C[j], C[i], (i - j) as u32, 1.5), &mut rng)) as Box<dyn Layer>
        };
        let mut rng2 = StdRng::seed_from_u64(seed + 1);
        let mut up = |j: usize, i: usize| -> Box<dyn Layer> {
            Box::new(MBConv::new(MBConvCfg::up(C[j], C[i], (j - i) as u32, 1.5), &mut rng2)) as Box<dyn Layer>
        };
        RevSilo::new(n_in, n_out, &mut down, &mut up)
    }

    fn make_blocks(streams: usize, seed: u64) -> BlockStage {
        let mut rng = StdRng::seed_from_u64(seed);
        let blocks = (0..streams)
            .map(|i| {
                let half = C[i] / 2;
                let f = MBConv::new(MBConvCfg::same(half, 3, 1.5).plain(), &mut rng);
                let g = MBConv::new(MBConvCfg::same(half, 3, 1.5).plain(), &mut rng);
                vec![RevBlock::new(C[i], Box::new(f), Box::new(g))]
            })
            .collect();
        BlockStage::new(blocks)
    }

    fn make_seq(seed: u64) -> ReversibleSequence {
        let mut seq = ReversibleSequence::new();
        seq.add(Box::new(make_silo(1, 2, seed)));
        seq.add(Box::new(make_blocks(2, seed + 10)));
        seq.add(Box::new(make_silo(2, 3, seed + 20)));
        seq.add(Box::new(make_blocks(3, seed + 30)));
        seq.add(Box::new(make_silo(3, 3, seed + 40)));
        seq
    }

    fn randomize_bn(seq: &mut ReversibleSequence, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        seq.visit_params(&mut |p| {
            if p.name == "bn.gamma" {
                p.value = Tensor::uniform(p.value.shape(), 0.5, 1.5, &mut rng);
            }
        });
    }

    #[test]
    fn sequence_shapes_chain() {
        let seq = make_seq(0);
        let shapes = seq.out_shapes(&[Shape::new(2, 8, 16, 16)]);
        assert_eq!(shapes.len(), 3);
        assert_eq!(shapes[0], Shape::new(2, 8, 16, 16));
        assert_eq!(shapes[1], Shape::new(2, 12, 8, 8));
        assert_eq!(shapes[2], Shape::new(2, 16, 4, 4));
    }

    #[test]
    fn sequence_inverse_reconstructs_input() {
        let mut seq = make_seq(1);
        randomize_bn(&mut seq, 100);
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn(Shape::new(1, 8, 16, 16), 1.0, &mut rng);
        let ys = seq.forward(vec![x.clone()], CacheMode::None);
        let back = seq.inverse(ys);
        assert_eq!(back.len(), 1);
        // The residual round-trip `(m + F) - F` is inexact in f32, and the
        // per-step rounding error is amplified through five stages of MBConv
        // transforms, so the reconstruction error is toolchain-dependent
        // (measured 1.66e-2 with rustc 1.95 on x86-64). Structural inversion
        // bugs produce O(1) errors; 5e-2 keeps the test meaningful without
        // asserting on codegen-specific rounding.
        assert!(back[0].max_abs_diff(&x) < 5e-2, "diff {}", back[0].max_abs_diff(&x));
    }

    #[test]
    fn reversible_equals_conventional_gradients() {
        let mut s1 = make_seq(3);
        randomize_bn(&mut s1, 300);
        let mut s2 = make_seq(3);
        randomize_bn(&mut s2, 300);

        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::randn(Shape::new(2, 8, 16, 16), 1.0, &mut rng);
        let out_shapes = s1.out_shapes(&[x.shape()]);
        let dys: Vec<Tensor> = out_shapes.iter().map(|&sh| Tensor::randn(sh, 1.0, &mut rng)).collect();

        let _y1 = s1.forward(vec![x.clone()], CacheMode::Full);
        s1.visit_params(&mut |p| p.zero_grad());
        let (_, dx1) = s1.backward(&[], dys.clone(), TrainMode::Conventional);

        let y2 = s2.forward(vec![x.clone()], CacheMode::Stats);
        s2.visit_params(&mut |p| p.zero_grad());
        let (x_rec, dx2) = s2.backward(&y2, dys, TrainMode::Reversible);

        assert!(x_rec[0].max_abs_diff(&x) < 1e-2, "input reconstruction {}", x_rec[0].max_abs_diff(&x));
        assert!(dx1[0].max_abs_diff(&dx2[0]) < 1e-2, "dx {}", dx1[0].max_abs_diff(&dx2[0]));

        let mut g1 = Vec::new();
        s1.visit_params(&mut |p| g1.push(p.grad.clone()));
        let mut g2 = Vec::new();
        s2.visit_params(&mut |p| g2.push(p.grad.clone()));
        let mut worst = 0.0f32;
        for (a, b) in g1.iter().zip(&g2) {
            worst = worst.max(a.max_abs_diff(b) / (1.0 + a.abs_max()));
        }
        assert!(worst < 1e-3, "worst relative param-grad diff {worst}");
    }

    #[test]
    fn reversible_memory_is_constant_in_depth() {
        // Measure Stats-mode cached bytes for 1 vs 4 fusion stages: adding
        // stages must not grow the activation cache (only O(c) stats).
        let shallow = {
            let mut seq = ReversibleSequence::new();
            seq.add(Box::new(make_silo(3, 3, 50)));
            seq
        };
        let deep = {
            let mut seq = ReversibleSequence::new();
            for k in 0..4 {
                seq.add(Box::new(make_silo(3, 3, 60 + k)));
            }
            seq
        };
        let shapes = [
            Shape::new(4, C[0], 16, 16),
            Shape::new(4, C[1], 8, 8),
            Shape::new(4, C[2], 4, 4),
        ];
        let _stats_shallow = shallow.cache_bytes(&shapes, CacheMode::Stats);
        let stats_deep = deep.cache_bytes(&shapes, CacheMode::Stats);
        let full_shallow = shallow.cache_bytes(&shapes, CacheMode::Full);
        let full_deep = deep.cache_bytes(&shapes, CacheMode::Full);
        // Full caches grow ~linearly with stage count; stats stay tiny.
        assert!(full_deep > 3 * full_shallow);
        assert!(stats_deep < full_shallow / 10);
        // Peak transient of the reversible backward equals one stage's Full cache.
        assert_eq!(deep.peak_transient_bytes(&shapes), full_shallow.max(full_deep / 4));
    }

    #[test]
    fn measured_meter_confirms_constant_memory() {
        revbifpn_nn::meter::reset();
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<Tensor> = (0..3)
            .map(|i| Tensor::randn(Shape::new(2, C[i], 16 >> i, 16 >> i), 1.0, &mut rng))
            .collect();
        let shapes: Vec<Shape> = xs.iter().map(|x| x.shape()).collect();

        let mut deep = ReversibleSequence::new();
        for k in 0..3 {
            deep.add(Box::new(make_silo(3, 3, 70 + k)));
        }
        let _ = deep.forward(xs.clone(), CacheMode::Stats);
        let measured = revbifpn_nn::meter::current() as u64;
        assert_eq!(measured, deep.cache_bytes(&shapes, CacheMode::Stats));
        deep.clear_cache();

        let _ = deep.forward(xs, CacheMode::Full);
        let measured_full = revbifpn_nn::meter::current() as u64;
        assert_eq!(measured_full, deep.cache_bytes(&shapes, CacheMode::Full));
        deep.clear_cache();
        assert_eq!(revbifpn_nn::meter::current(), 0);
    }

    #[test]
    fn checkpointing_interpolates_between_regimes() {
        let mut seq = ReversibleSequence::new();
        for k in 0..6 {
            seq.add(Box::new(make_silo(3, 3, 90 + k)));
        }
        let shapes = [
            Shape::new(2, C[0], 16, 16),
            Shape::new(2, C[1], 8, 8),
            Shape::new(2, C[2], 4, 4),
        ];
        let conventional = seq.cache_bytes(&shapes, CacheMode::Full);
        let ckpt_all = seq.checkpoint_bytes(&shapes, 1);
        // segment=1 stores every stage input on top of full caches' max
        // segment (one stage), so it is within the conventional ballpark.
        assert!(ckpt_all >= conventional / 6);
        let sqrt_ckpt = seq.checkpoint_bytes(&shapes, 3); // ~sqrt(6)
        let one_ckpt = seq.checkpoint_bytes(&shapes, 6);
        let reversible = seq.cache_bytes(&shapes, CacheMode::Stats) + seq.peak_transient_bytes(&shapes);
        // Ordering: conventional > sqrt-checkpointing > reversible.
        assert!(sqrt_ckpt < conventional, "{sqrt_ckpt} vs {conventional}");
        assert!(reversible < sqrt_ckpt, "{reversible} vs {sqrt_ckpt}");
        // A single segment rematerializes the whole network at once, so it
        // costs *more* than the sqrt schedule: sqrt is the optimum.
        assert!(one_ckpt >= sqrt_ckpt);
    }

    #[test]
    fn drift_sentinel_clean_path_is_quiet() {
        let mut seq = make_seq(11);
        randomize_bn(&mut seq, 110);
        let warns = revbifpn_nn::meter::event_count("rev.drift_warn");
        let mut rng = StdRng::seed_from_u64(12);
        let x = Tensor::randn(Shape::new(1, 8, 16, 16), 1.0, &mut rng);
        let out_shapes = seq.out_shapes(&[x.shape()]);
        let ys = seq.forward(vec![x], CacheMode::Stats);
        let dys: Vec<Tensor> =
            out_shapes.iter().map(|&sh| Tensor::randn(sh, 1.0, &mut rng)).collect();
        let _ = seq.backward(&ys, dys, TrainMode::Reversible);
        let report = seq.drift_report();
        assert_eq!(report.stages.len(), 5);
        assert!(report.stages.iter().all(|s| s.checks == 1 && !s.fallback));
        assert!(
            report.max_drift() < seq.drift_config().tolerance,
            "clean drift {} >= tolerance",
            report.max_drift()
        );
        assert_eq!(revbifpn_nn::meter::event_count("rev.drift_warn"), warns);
    }

    #[test]
    fn injected_fault_trips_warn_policy() {
        let mut seq = make_seq(13);
        randomize_bn(&mut seq, 130);
        let warns = revbifpn_nn::meter::event_count("rev.drift_warn");
        let mut rng = StdRng::seed_from_u64(14);
        let x = Tensor::randn(Shape::new(1, 8, 16, 16), 1.0, &mut rng);
        let out_shapes = seq.out_shapes(&[x.shape()]);
        let ys = seq.forward(vec![x], CacheMode::Stats);
        let dys: Vec<Tensor> =
            out_shapes.iter().map(|&sh| Tensor::randn(sh, 1.0, &mut rng)).collect();
        seq.inject_recon_fault(ReconFault { stage: 0, stream: 0, index: 0, bit: 30 });
        let _ = seq.backward(&ys, dys, TrainMode::Reversible);
        let report = seq.drift_report();
        assert!(report.max_drift() > seq.drift_config().tolerance);
        assert_eq!(report.fallback_count(), 0, "Warn policy must not switch stages");
        assert!(revbifpn_nn::meter::event_count("rev.drift_warn") > warns);
    }

    #[test]
    fn injected_fault_with_fallback_switches_stage_to_cached() {
        let mut seq = make_seq(15);
        randomize_bn(&mut seq, 150);
        seq.set_drift_config(DriftConfig {
            policy: DriftPolicy::FallbackToCached,
            ..DriftConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(16);
        let x = Tensor::randn(Shape::new(1, 8, 16, 16), 1.0, &mut rng);
        let out_shapes = seq.out_shapes(&[x.shape()]);
        let dys: Vec<Tensor> =
            out_shapes.iter().map(|&sh| Tensor::randn(sh, 1.0, &mut rng)).collect();

        // Faulted step: stage 0 trips and is switched to the cached path.
        let ys = seq.forward(vec![x.clone()], CacheMode::Stats);
        seq.inject_recon_fault(ReconFault { stage: 0, stream: 0, index: 0, bit: 30 });
        let _ = seq.backward(&ys, dys.clone(), TrainMode::Reversible);
        assert_eq!(seq.drift_report().fallback_count(), 1);
        assert!(seq.drift_report().stages[0].fallback);
        seq.clear_cache();
        assert_eq!(seq.drift_report().fallback_count(), 1, "fallback must survive clear_cache");

        // Next step runs hybrid: stage 0 cached, the rest reversible. The
        // stored fallback input is an exact clone, so the sequence input is
        // reconstructed bit-exactly.
        seq.visit_params(&mut |p| p.zero_grad());
        let ys = seq.forward(vec![x.clone()], CacheMode::Stats);
        let (x_rec, _) = seq.backward(&ys, dys, TrainMode::Reversible);
        assert_eq!(x_rec[0], x);
        // The fallback stage skips drift checks from then on.
        assert_eq!(seq.drift_report().stages[0].checks, 1);
        assert_eq!(seq.drift_report().stages[1].checks, 2);
        let mut finite = true;
        seq.visit_params(&mut |p| finite &= p.grad.is_finite());
        assert!(finite, "hybrid backward produced non-finite gradients");
    }

    #[test]
    #[should_panic(expected = "exceeds tolerance")]
    fn abort_policy_panics_on_drift() {
        let mut seq = make_seq(17);
        randomize_bn(&mut seq, 170);
        seq.set_drift_config(DriftConfig { policy: DriftPolicy::Abort, ..DriftConfig::default() });
        let mut rng = StdRng::seed_from_u64(18);
        let x = Tensor::randn(Shape::new(1, 8, 16, 16), 1.0, &mut rng);
        let out_shapes = seq.out_shapes(&[x.shape()]);
        let ys = seq.forward(vec![x], CacheMode::Stats);
        let dys: Vec<Tensor> =
            out_shapes.iter().map(|&sh| Tensor::randn(sh, 1.0, &mut rng)).collect();
        seq.inject_recon_fault(ReconFault { stage: 0, stream: 0, index: 0, bit: 30 });
        let _ = seq.backward(&ys, dys, TrainMode::Reversible);
    }

    #[test]
    fn disabled_sentinel_skips_checks() {
        let mut seq = make_seq(19);
        randomize_bn(&mut seq, 190);
        seq.set_drift_config(DriftConfig { enabled: false, ..DriftConfig::default() });
        let mut rng = StdRng::seed_from_u64(20);
        let x = Tensor::randn(Shape::new(1, 8, 16, 16), 1.0, &mut rng);
        let out_shapes = seq.out_shapes(&[x.shape()]);
        let ys = seq.forward(vec![x], CacheMode::Stats);
        let dys: Vec<Tensor> =
            out_shapes.iter().map(|&sh| Tensor::randn(sh, 1.0, &mut rng)).collect();
        let _ = seq.backward(&ys, dys, TrainMode::Reversible);
        assert!(seq.drift_report().stages.iter().all(|s| s.checks == 0));
    }

    #[test]
    fn sequence_visits_bn_buffers() {
        let mut seq = make_seq(21);
        let mut n = 0usize;
        seq.visit_buffers(&mut |_| n += 1);
        assert!(n > 0, "expected BatchNorm running stats to be visited");
        assert_eq!(n % 2, 0, "buffers come in mean/var pairs");
    }

    #[test]
    fn empty_sequence_is_identity() {
        let mut seq = ReversibleSequence::new();
        assert!(seq.is_empty());
        let x = Tensor::ones(Shape::new(1, 2, 2, 2));
        let ys = seq.forward(vec![x.clone()], CacheMode::None);
        assert_eq!(ys[0], x);
    }

    #[test]
    #[should_panic(expected = "stream counts must chain")]
    fn mismatched_stages_panic() {
        let mut seq = ReversibleSequence::new();
        seq.add(Box::new(make_silo(1, 2, 80)));
        seq.add(Box::new(make_silo(3, 3, 81)));
    }
}
