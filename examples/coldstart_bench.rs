//! Cold-start benchmark for the `RBFNFRZ1` artifact path: in-memory
//! freeze-from-config vs copy-deserialization vs mmap, at f32 and int8
//! tiers, and writes `results/BENCH_cold_start.json`.
//!
//! The serving claim under test (ISSUE 7): a worker cold-starting from an
//! mmap'd artifact must be at least 5x faster than copy deserialization at
//! the S3 scale, and the loaded model's forward must be bitwise equal to
//! the in-memory `freeze()` / `freeze_int8()` result. The bench enforces
//! both and exits non-zero on violation, so CI can gate on it directly.
//!
//! The hard floor applies to the S3 **f32** artifact. The int8 row is
//! measured and reported but not ratio-gated: its file is ~2.5x smaller
//! (that is the point of int8), so its copy baseline is proportionally
//! cheap, while both paths share the same owned-decode floor (dominated by
//! the classifier head's f32 `Linear`, which has no zero-copy
//! representation). The ratio there is a property of the small baseline,
//! not of mmap slowness — the int8 absolute mmap cold start is the fastest
//! row in the table.
//!
//! `--smoke` restricts to the tiny config (no S3 build, no threshold) for
//! quick local runs, and prints the JSON to stdout instead of overwriting
//! the committed full-length result.

use revbifpn::artifact::{load_classifier_artifact, save_classifier_artifact};
use revbifpn::{FrozenClassifier, RevBiFPNClassifier, RevBiFPNConfig};
use revbifpn_tensor::{Shape, Tensor};
use std::path::Path;
use std::time::Instant;

const MMAP_SPEEDUP_FLOOR_S3: f64 = 5.0;

struct Row {
    id: String,
    tier: &'static str,
    artifact_bytes: u64,
    freeze_ms: f64,
    copy_load_ms: f64,
    mmap_load_ms: f64,
    mmap_speedup: f64,
    bitwise_equal: bool,
}

/// Medians `iters` cold loads of `path`, each in a fresh child process
/// (re-exec of this binary with `--load-once`): a real cold start has a
/// cold allocator and no warm in-process buffers, while the page cache —
/// shared across processes — stays warm, so the children measure exactly
/// "new worker process deserializes an already-fetched artifact".
fn median_cold_load_ms(iters: usize, path: &Path, mode: &str) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--load-once", path.to_str().unwrap(), mode])
                .output()
                .expect("spawn load child");
            assert!(out.status.success(), "child load failed: {}", String::from_utf8_lossy(&out.stderr));
            let stdout = String::from_utf8_lossy(&out.stdout);
            stdout
                .lines()
                .find_map(|l| l.strip_prefix("LOAD_MS="))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .expect("child must report LOAD_MS")
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Child mode: one timed load, result printed for the parent.
fn load_once(path: &Path, mode: &str) {
    let prefer_map = match mode {
        "map" => true,
        "copy" => false,
        other => panic!("bad --load-once mode {other}"),
    };
    let t = Instant::now();
    let (m, _r) = load_classifier_artifact(path, prefer_map).expect("load artifact");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(&m);
    println!("LOAD_MS={ms:.4}");
}

fn bench_config(name: &str, cfg: RevBiFPNConfig, int8: bool, dir: &Path) -> Row {
    let tier = if int8 { "int8" } else { "f32" };
    eprintln!("building {name} ({tier})...");
    let t = Instant::now();
    let model = RevBiFPNClassifier::new(cfg.clone());
    let frozen: FrozenClassifier =
        if int8 { model.freeze_int8().unwrap() } else { model.freeze().unwrap() };
    let freeze_ms = t.elapsed().as_secs_f64() * 1e3;

    let path = dir.join(format!("{name}_{tier}.frz"));
    save_classifier_artifact(&path, &frozen).expect("save artifact");
    let artifact_bytes = std::fs::metadata(&path).unwrap().len();

    // Warm the page cache so both paths measure deserialization, not disk.
    let _ = std::fs::read(&path).unwrap();

    let copy_load_ms = median_cold_load_ms(3, &path, "copy");
    let mmap_load_ms = median_cold_load_ms(5, &path, "map");

    // Bitwise parity of the mmap-served forward against the in-memory
    // frozen model, on a deterministic input.
    let x = Tensor::full(Shape::new(1, 3, cfg.resolution, cfg.resolution), 0.125);
    let want = frozen.forward(&x);
    let (mapped, reader) = load_classifier_artifact(&path, true).unwrap();
    reader.verify_sections().expect("payload CRCs");
    let got = mapped.forward(&x);
    let bitwise_equal = want.data() == got.data();

    let mmap_speedup = copy_load_ms / mmap_load_ms.max(1e-6);
    eprintln!(
        "{name} {tier}: artifact {:.1} MiB, freeze {freeze_ms:.0} ms, copy {copy_load_ms:.2} ms, \
         mmap {mmap_load_ms:.2} ms ({mmap_speedup:.1}x), bitwise_equal={bitwise_equal}",
        artifact_bytes as f64 / (1 << 20) as f64
    );
    Row {
        id: format!("{name}_{tier}"),
        tier,
        artifact_bytes,
        freeze_ms,
        copy_load_ms,
        mmap_load_ms,
        mmap_speedup,
        bitwise_equal,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 4 && args[1] == "--load-once" {
        load_once(Path::new(&args[2]), &args[3]);
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let dir = std::env::temp_dir().join(format!("revbifpn_coldstart_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");

    let mut rows = vec![bench_config("tiny", RevBiFPNConfig::tiny(10), false, &dir)];
    if !smoke {
        let s3 = RevBiFPNConfig::scaled(3, 1000);
        rows.push(bench_config("s3", s3.clone(), false, &dir));
        rows.push(bench_config("s3", s3, true, &dir));
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"id\": \"{}\", \"tier\": \"{}\", \"artifact_bytes\": {}, \
                 \"freeze_ms\": {:.3}, \"copy_load_ms\": {:.3}, \"mmap_load_ms\": {:.3}, \
                 \"mmap_speedup\": {:.3}, \"bitwise_equal\": {} }}",
                r.id,
                r.tier,
                r.artifact_bytes,
                r.freeze_ms,
                r.copy_load_ms,
                r.mmap_load_ms,
                r.mmap_speedup,
                r.bitwise_equal
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"mmap_speedup_floor_s3\": {MMAP_SPEEDUP_FLOOR_S3},\n  \"floor_applies_to\": \"s3_f32\",\n  \"cold_starts\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    if smoke {
        print!("{json}");
    } else {
        std::fs::create_dir_all("results").expect("create results dir");
        std::fs::write("results/BENCH_cold_start.json", json).expect("write bench json");
        println!("wrote results/BENCH_cold_start.json");
    }

    let _ = std::fs::remove_dir_all(&dir);

    let mut failed = false;
    for r in &rows {
        if !r.bitwise_equal {
            eprintln!("FAIL: {} mmap-loaded forward is not bitwise equal", r.id);
            failed = true;
        }
        if !smoke && r.id == "s3_f32" && r.mmap_speedup < MMAP_SPEEDUP_FLOOR_S3 {
            eprintln!(
                "FAIL: {} mmap speedup {:.2}x below the {MMAP_SPEEDUP_FLOOR_S3}x floor",
                r.id, r.mmap_speedup
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
