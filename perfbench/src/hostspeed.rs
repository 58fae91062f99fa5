//! Host-speed reference for the timed workloads.
//!
//! On the shared reference host (2 vCPUs of a Xeon whose other cores run
//! other tenants' jobs) neighbours' load slows a single-threaded batch-1
//! forward by up to 1.7x, in phases that last from seconds to minutes and
//! show no CPU steal. A run's raw median then depends on how much of it fell
//! in busy phases. So the inference loop times this fixed kernel right
//! before every call and scales the call's wall time by
//! `NOMINAL_MS / reference time`. The result is the call's latency at the
//! speed the host has when it is quiet. The training loop runs on both
//! CPUs, so it times two copies at once, one per thread, between its
//! calls.
//!
//! The kernel is the benchmark's own AVX2/FMA register-blocked GEMM on
//! panels that stay in L2. No change to the workspace crates can alter it.
//! On a quiet host it takes about [`NOMINAL_MS`], so scaled time reads as
//! wall time there. A change to the program moves the scaled figure by the
//! same ratio as the raw one.

use std::time::Instant;

/// Rows of the A panel (a multiple of the 6-row micro-tile).
const M: usize = 48;
/// Shared dimension.
const K: usize = 256;
/// Columns of the B panel (a multiple of the 16-column micro-tile).
const N: usize = 512;
/// GEMMs per timing, about 50 M multiply-adds.
const REPS: usize = 8;

/// The reference's median time on the quiet reference host: the scale
/// that makes scaled time read as wall time there.
pub const NOMINAL_MS: f64 = 1.5;

/// The median of [`time_pair_ms`] on the quiet reference host. Two copies
/// at once run about 15% slower than one alone there.
pub const NOMINAL_PAIR_MS: f64 = 1.7;

/// The reference kernel and its fixed operands.
pub struct HostSpeed {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed {
            a: (0..M * K).map(|i| (i % 7) as f32 * 0.01).collect(),
            b: (0..K * N).map(|i| (i % 5) as f32 * 0.01).collect(),
            c: vec![0.0; M * N],
        }
    }
}

impl HostSpeed {
    /// Wall time of one reference timing, in ms.
    pub fn time_ms(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..REPS {
            gemm(&self.a, &self.b, &mut self.c);
        }
        std::hint::black_box(&self.c);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Sum of the product matrix, for checking the two kernel paths agree.
    #[cfg(test)]
    fn checksum(&self) -> f64 {
        self.c.iter().map(|&v| f64::from(v)).sum()
    }
}

/// Times the two references at once, one on a spawned thread and one on
/// the caller's, and returns the mean of their times in ms.
pub fn time_pair_ms(pair: &mut [HostSpeed; 2]) -> f64 {
    let [a, b] = pair;
    std::thread::scope(|s| {
        let other = s.spawn(|| b.time_ms());
        let mine = a.time_ms();
        0.5 * (mine + other.join().expect("reference thread"))
    })
}

/// A wall time scaled to the quiet host's speed, given the reference time
/// `ref_ms` measured next to it. Any unit of `wall` is kept.
pub fn scaled(wall: f64, ref_ms: f64) -> f64 {
    wall * NOMINAL_MS / ref_ms
}

/// `c = a * b` for the fixed `M x K` and `K x N` row-major panels.
fn gemm(a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() == M * K && b.len() == K * N && c.len() == M * N);
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        // SAFETY: the features are present and the slice lengths are
        // checked above.
        unsafe { gemm_avx2(a, b, c) };
        return;
    }
    gemm_scalar(a, b, c);
}

fn gemm_scalar(a: &[f32], b: &[f32], c: &mut [f32]) {
    for (i, row) in c.chunks_exact_mut(N).enumerate() {
        row.fill(0.0);
        for p in 0..K {
            let av = a[i * K + p];
            for (cv, bv) in row.iter_mut().zip(&b[p * N..(p + 1) * N]) {
                *cv += av * bv;
            }
        }
    }
}

/// 6 x 16 micro-tiles: twelve 8-lane accumulators, B rows loaded once per
/// step of the shared dimension, A elements broadcast.
///
/// # Safety
/// AVX2 and FMA must be available; `a`, `b` and `c` must hold `M * K`,
/// `K * N` and `M * N` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_avx2(a: &[f32], b: &[f32], c: &mut [f32]) {
    use std::arch::x86_64::*;
    let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    for i0 in (0..M).step_by(6) {
        for j0 in (0..N).step_by(16) {
            let mut acc = [_mm256_setzero_ps(); 12];
            for p in 0..K {
                let b0 = _mm256_loadu_ps(bp.add(p * N + j0));
                let b1 = _mm256_loadu_ps(bp.add(p * N + j0 + 8));
                for r in 0..6 {
                    let av = _mm256_set1_ps(*ap.add((i0 + r) * K + p));
                    acc[2 * r] = _mm256_fmadd_ps(av, b0, acc[2 * r]);
                    acc[2 * r + 1] = _mm256_fmadd_ps(av, b1, acc[2 * r + 1]);
                }
            }
            for r in 0..6 {
                _mm256_storeu_ps(cp.add((i0 + r) * N + j0), acc[2 * r]);
                _mm256_storeu_ps(cp.add((i0 + r) * N + j0 + 8), acc[2 * r + 1]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_the_reference_ratio() {
        // A quiet host: scaled time is wall time.
        assert_eq!(scaled(80.0, NOMINAL_MS), 80.0);
        // A host running the reference 1.5x slower: the call is scaled
        // back by the same factor.
        assert!((scaled(120.0, 1.5 * NOMINAL_MS) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn kernel_paths_agree() {
        let mut h = HostSpeed::default();
        let t = h.time_ms();
        assert!(t > 0.0);
        let fast = h.checksum();
        gemm_scalar(&h.a, &h.b, &mut h.c);
        let slow = h.checksum();
        // Both paths sum the same products; only rounding order differs.
        assert!((fast - slow).abs() <= 1e-4 * slow.abs(), "{fast} vs {slow}");
        assert!(slow > 0.0);
    }
}
