//! Train a RevBiFPN classifier on the SynthScale multi-scale task with the
//! paper's full recipe structure: SGD + momentum, warmup + cosine + tail
//! learning rate, label smoothing, flips/jitter/mixup/CutMix augmentation,
//! parameter EMA — all with reversible recomputation.
//!
//! Run with: `cargo run --release --example classify_synthetic`
//! (set `EPOCHS=8 TRAIN=1024` for a longer run).

use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_data::augment::AugmentPolicy;
use revbifpn_data::{SynthScale, SynthScaleConfig};
use revbifpn_train::{train_classifier, ResilienceConfig, TrainConfig};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    let epochs = env_usize("EPOCHS", 4);
    let train_size = env_usize("TRAIN", 512);

    let data = SynthScale::new(SynthScaleConfig::new(32), 7);
    let mut model = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(data.num_classes()));
    println!(
        "training {} ({} params) on SynthScale ({} classes) for {epochs} epochs x {train_size} samples",
        model.cfg().name.clone(),
        model.param_count(),
        data.num_classes()
    );

    let cfg = TrainConfig {
        epochs,
        train_size,
        val_size: 256,
        batch_size: 16,
        lr: 0.08,
        momentum: 0.9,
        weight_decay: 4e-5,
        label_smoothing: 0.1,
        ema_decay: 0.95,
        augment: AugmentPolicy { hflip: true, jitter: 0.1, cutout: 0, mixup: 0.1, cutmix: 0.5 },
        seed: 0,
        resilience: ResilienceConfig::default(),
        shards: 0,
    };
    let history = train_classifier(&mut model, &data, &cfg, RunMode::TrainReversible);
    println!("\nepoch  train-loss  train-acc  val-acc(EMA)  peak-act-bytes");
    for e in &history.epochs {
        println!(
            "{:>5}  {:>10.4}  {:>9.3}  {:>12.3}  {:>14}",
            e.epoch, e.train_loss, e.train_acc, e.val_acc, e.peak_activation_bytes
        );
    }
    println!(
        "\nfinal EMA validation accuracy: {:.1}% (chance: {:.1}%)",
        history.final_val_acc() * 100.0,
        100.0 / data.num_classes() as f64
    );
}
