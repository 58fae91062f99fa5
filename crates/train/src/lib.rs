//! # revbifpn-train
//!
//! Training harness matching the structure of the paper's recipe (Appendix
//! D.1): SGD with momentum and selective weight decay, warmup + cosine +
//! constant-tail learning-rate schedule, parameter EMA, label smoothing and
//! augmentation, plus per-epoch metrics and activation-memory capture.
//!
//! The central entry point is [`train_classifier`], which trains a
//! `RevBiFPNClassifier` on SynthScale in either reversible or conventional
//! mode — the engine behind the Figure 14 equivalence experiment.
//! [`train_classifier_with`] adds the resilience layer's run options:
//! deterministic fault injection ([`FaultPlan`]), crash-safe periodic
//! checkpointing ([`CheckpointCfg`]), and auto-resume.

#![warn(missing_docs)]

mod ema;
pub mod faults;
mod metrics;
pub mod resume;
mod schedule;
mod sgd;
mod shard;
mod trainer;

pub use ema::Ema;
pub use faults::{tear_file, Fault, FaultPlan, ServeFault, ServeFaultPlan};
pub use metrics::{top1_accuracy, topk_accuracy, AverageMeter, PhaseBreakdown};
pub use shard::{ShardEngine, ShardStepFaults, ShardStepOutput};
pub use resume::{auto_resume, load_train_state, save_train_state, CheckpointCfg, ResumeMeta};
pub use schedule::LrSchedule;
pub use sgd::{clip_grad_norm, Sgd};
pub use trainer::{
    evaluate, train_classifier, train_classifier_with, EpochStats, ResilienceConfig, RunOptions,
    TrainConfig, TrainHistory,
};
