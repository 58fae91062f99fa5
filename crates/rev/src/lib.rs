//! # revbifpn-rev
//!
//! Reversible building blocks and the reversible-backprop engine:
//!
//! * [`RevBlock`] — the reversible residual block (Gomez et al. 2017) used
//!   for same-resolution transforms;
//! * [`RevSilo`] — the paper's contribution: the first invertible module for
//!   **bidirectional multi-scale feature fusion** (Equations 1–16), with
//!   pyramid-expansion support;
//! * [`ReversibleSequence`] — chains [`RevStage`]s and performs
//!   backpropagation without storing activations: only the final feature
//!   pyramid is kept, every hidden state is reconstructed stage-by-stage
//!   during the backward pass.
//!
//! ```
//! use revbifpn_rev::{RevSilo, ReversibleSequence, TrainMode};
//! use revbifpn_nn::{layers::{MBConv, MBConvCfg}, CacheMode, Layer};
//! use revbifpn_tensor::{Shape, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let c = [8usize, 16];
//! let mut down = |j: usize, i: usize| -> Box<dyn Layer> {
//!     Box::new(MBConv::new(MBConvCfg::down(c[j], c[i], (i - j) as u32, 2.0), &mut rng))
//! };
//! let mut rng2 = StdRng::seed_from_u64(1);
//! let mut up = |j: usize, i: usize| -> Box<dyn Layer> {
//!     Box::new(MBConv::new(MBConvCfg::up(c[j], c[i], (j - i) as u32, 2.0), &mut rng2))
//! };
//! let mut silo = RevSilo::new(2, 2, &mut down, &mut up);
//! let xs = vec![
//!     Tensor::randn(Shape::new(1, 8, 8, 8), 1.0, &mut rng2),
//!     Tensor::randn(Shape::new(1, 16, 4, 4), 1.0, &mut rng2),
//! ];
//! let ys = silo.forward(&xs, CacheMode::None);
//! let back = silo.inverse(&ys);
//! assert!(back[0].max_abs_diff(&xs[0]) < 1e-3);
//! let _ = TrainMode::Reversible;
//! let _ = ReversibleSequence::new();
//! ```

#![warn(missing_docs)]

pub mod artifact;
mod freeze;
mod revblock;
mod silo;
mod stage;

pub use freeze::{FreezeResult, FrozenRevBlock, FrozenSequence, FrozenSilo, FrozenStage};
pub use revblock::RevBlock;
pub use silo::{RevSilo, TransformFactory};
pub use stage::{
    BlockStage, DriftConfig, DriftPolicy, DriftReport, DriftStageReport, ReconFault, RevStage,
    ReversibleSequence, TrainMode, FP_SAMPLES,
};
