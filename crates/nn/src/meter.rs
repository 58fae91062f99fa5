//! Byte-exact accounting of activations cached for the backward pass.
//!
//! Every layer that retains state between forward and backward registers the
//! retained bytes here (via [`Cached`]). The meter therefore measures exactly
//! the quantity the RevBiFPN paper's memory figures are about: how many
//! activation bytes must be *resident simultaneously* to run backprop.
//!
//! The meter is thread-local, so parallel tests do not interfere.
//!
//! Alongside activation accounting, this module re-exports the kernel
//! scratch-arena counters from `revbifpn_tensor` (see [`scratch_stats`]) so
//! training loops can assert that steady-state conv/GEMM calls perform zero
//! heap allocations, and [`report`] bundles both views into one snapshot.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub use revbifpn_tensor::scratch::{
    reset_stats as reset_scratch_stats, stats as scratch_stats, ScratchStats,
};

thread_local! {
    // Signed so that an *isolated* task (see [`isolated`]) may release a
    // cache entry that was registered on a different thread: inside an
    // isolation scope the local counter is a delta, and deltas go negative.
    // Outside isolation the counter never drops below zero (debug-asserted).
    static CURRENT: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
    static PACKED: Cell<usize> = const { Cell::new(0) };
    static QUANT_PACKED: Cell<usize> = const { Cell::new(0) };
    static EVENTS: RefCell<BTreeMap<&'static str, u64>> = const { RefCell::new(BTreeMap::new()) };
    /// Nesting depth of [`isolated`] scopes on this thread.
    static ISOLATION: Cell<u32> = const { Cell::new(0) };
}

/// Resets both the current and peak counters to zero.
///
/// Named event counters are *not* cleared: training loops call [`reset`]
/// every step to re-arm the peak tracker, while events (drift warnings,
/// skipped steps, ...) are run-level statistics. Use [`reset_events`] for
/// those.
pub fn reset() {
    CURRENT.with(|c| c.set(0));
    PEAK.with(|p| p.set(0));
}

/// Increments the named event counter by one.
///
/// Events are thread-local run-level counters (e.g. `"rev.drift_warn"`,
/// `"train.nonfinite_step"`) that survive the per-step byte-meter [`reset`].
pub fn count(name: &'static str) {
    count_n(name, 1);
}

/// Increments the named event counter by `n`.
pub fn count_n(name: &'static str, n: u64) {
    EVENTS.with(|e| *e.borrow_mut().entry(name).or_insert(0) += n);
}

/// Current value of the named event counter (0 if never incremented).
pub fn event_count(name: &str) -> u64 {
    EVENTS.with(|e| e.borrow().get(name).copied().unwrap_or(0))
}

/// Snapshot of all named event counters, sorted by name.
pub fn events() -> Vec<(&'static str, u64)> {
    EVENTS.with(|e| e.borrow().iter().map(|(&k, &v)| (k, v)).collect())
}

/// Clears all named event counters.
pub fn reset_events() {
    EVENTS.with(|e| e.borrow_mut().clear());
}

/// Registers `bytes` of newly cached activation state.
pub fn add(bytes: usize) {
    CURRENT.with(|c| {
        let v = c.get() + bytes as i64;
        c.set(v);
        PEAK.with(|p| {
            if v > p.get() {
                p.set(v);
            }
        });
    });
}

/// Releases `bytes` of cached activation state.
///
/// # Panics
///
/// Debug builds panic on under-release (a layer freeing more than it
/// registered), which would indicate an accounting bug. Inside an
/// [`isolated`] scope the check is waived: a task may legitimately release
/// state registered on the dispatching thread, which shows up locally as a
/// negative delta that [`absorb`] later reconciles.
pub fn sub(bytes: usize) {
    CURRENT.with(|c| {
        debug_assert!(
            ISOLATION.with(|d| d.get()) > 0 || c.get() >= bytes as i64,
            "memory meter under-release: {} < {}",
            c.get(),
            bytes
        );
        c.set(c.get() - bytes as i64);
    });
}

/// Bytes currently registered as cached.
pub fn current() -> usize {
    CURRENT.with(|c| c.get().max(0) as usize)
}

/// Registers `bytes` of persistently packed inference weights (frozen-model
/// GEMM panels). Tracked separately from the per-step activation counters:
/// packed weights live for the lifetime of a frozen model and must survive
/// the per-step [`reset`].
pub fn add_packed(bytes: usize) {
    PACKED.with(|p| p.set(p.get() + bytes));
}

/// Releases `bytes` of packed inference weights (frozen model dropped).
pub fn sub_packed(bytes: usize) {
    PACKED.with(|p| p.set(p.get().saturating_sub(bytes)));
}

/// Bytes of packed inference weights currently resident on this thread.
pub fn packed_current() -> usize {
    PACKED.with(|p| p.get())
}

/// Registers `bytes` of quantized (int8) packed inference weights. Same
/// drop-released gauge discipline as [`add_packed`], tracked separately so
/// f32-vs-int8 residency can be compared (e.g. in serve health snapshots).
pub fn add_quant_packed(bytes: usize) {
    QUANT_PACKED.with(|p| p.set(p.get() + bytes));
}

/// Releases `bytes` of quantized packed inference weights.
pub fn sub_quant_packed(bytes: usize) {
    QUANT_PACKED.with(|p| p.set(p.get().saturating_sub(bytes)));
}

/// Bytes of quantized packed inference weights currently resident on this
/// thread.
pub fn quant_packed_current() -> usize {
    QUANT_PACKED.with(|p| p.get())
}

/// High-water mark since the last [`reset`].
pub fn peak() -> usize {
    PEAK.with(|p| p.get().max(0) as usize)
}

/// Byte/event deltas produced by one [`isolated`] task, ready to be
/// [`absorb`]ed into the dispatching thread's meter.
#[derive(Clone, Debug, Default)]
pub struct TaskMeter {
    /// Net change in cached activation bytes (may be negative when the task
    /// released caches registered by the dispatcher).
    pub cached_delta: i64,
    /// The task's own cached-bytes high-water mark, relative to the bytes
    /// resident when the task started. Never negative.
    pub peak_above_start: i64,
    /// Per-name event-counter increments recorded during the task.
    pub events: Vec<(&'static str, u64)>,
}

/// Runs `f` with this thread's meter state fenced off: on return the
/// thread's counters are exactly as they were before the call, and the
/// task's net effect is returned as a [`TaskMeter`] delta.
///
/// This is the bridge between the thread-local meter and task parallelism:
/// a worker executing a borrowed task must not leak meter state into
/// whatever job the pool hands it next, and the dispatching thread — which
/// owns the model being worked on — wants the task's accounting as if it
/// had run locally. Wrap the task body in `isolated`, send the `TaskMeter`
/// back, and [`absorb`] it on the dispatcher in task order: the resulting
/// `current()` trace is byte-identical to running the tasks sequentially
/// on the dispatcher, for any thread count.
pub fn isolated<R>(f: impl FnOnce() -> R) -> (R, TaskMeter) {
    struct Guard {
        current: i64,
        peak: i64,
        packed: usize,
        quant_packed: usize,
        events: BTreeMap<&'static str, u64>,
    }
    impl Drop for Guard {
        fn drop(&mut self) {
            ISOLATION.with(|d| d.set(d.get() - 1));
            CURRENT.with(|c| c.set(self.current));
            PEAK.with(|p| p.set(self.peak));
            PACKED.with(|p| p.set(self.packed));
            QUANT_PACKED.with(|p| p.set(self.quant_packed));
            EVENTS.with(|e| *e.borrow_mut() = std::mem::take(&mut self.events));
        }
    }
    let guard = Guard {
        current: CURRENT.with(|c| c.get()),
        peak: PEAK.with(|p| p.get()),
        packed: PACKED.with(|p| p.get()),
        quant_packed: QUANT_PACKED.with(|p| p.get()),
        events: EVENTS.with(|e| e.borrow().clone()),
    };
    ISOLATION.with(|d| d.set(d.get() + 1));
    // Track the task's own excursion: re-arm the peak tracker at the
    // current level so PEAK − start measures this task alone.
    PEAK.with(|p| p.set(guard.current));
    EVENTS.with(|e| e.borrow_mut().clear());
    let r = f();
    let cached_delta = CURRENT.with(|c| c.get()) - guard.current;
    let peak_above_start = (PEAK.with(|p| p.get()) - guard.current).max(0);
    let events: Vec<(&'static str, u64)> =
        EVENTS.with(|e| e.borrow().iter().map(|(&k, &v)| (k, v)).collect());
    drop(guard);
    (r, TaskMeter { cached_delta, peak_above_start, events })
}

/// Applies one [`isolated`] task's deltas to this thread's meter.
///
/// Absorbing in task order reproduces the byte trace of a sequential run:
/// the peak is advanced as if the task's excursion happened at the absorb
/// point, on top of whatever is currently resident. (Physical concurrent
/// residency can exceed this serial-equivalent model by up to the number
/// of simultaneously active tasks; the meter deliberately reports the
/// schedule-independent quantity so tests stay exact.)
pub fn absorb(m: &TaskMeter) {
    CURRENT.with(|c| {
        let candidate = c.get() + m.peak_above_start;
        PEAK.with(|p| {
            if candidate > p.get() {
                p.set(candidate);
            }
        });
        let v = c.get() + m.cached_delta;
        debug_assert!(
            ISOLATION.with(|d| d.get()) > 0 || v >= 0,
            "memory meter under-release on absorb: {} + {} < 0",
            c.get(),
            m.cached_delta
        );
        c.set(v);
    });
    for &(name, n) in &m.events {
        count_n(name, n);
    }
}

/// Training-step phases timed by [`time_phase`]. The wall-clock spent in
/// each phase accumulates into process-wide counters (sharded steps run
/// phases on pool workers, so thread-local storage would lose them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Batch forward pass (loss included).
    Forward,
    /// Reversible re-forward used to reconstruct activations in backward.
    Reconstruct,
    /// Gradient (transpose) computation.
    Backward,
    /// Cross-shard / cross-sample gradient tree reduction.
    Reduce,
    /// Optimizer update (SGD step, EMA, clipping).
    Optimizer,
}

const PHASE_COUNT: usize = 5;
static PHASE_NANOS: [AtomicU64; PHASE_COUNT] =
    [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

/// Wall-clock nanoseconds accumulated per phase since the last
/// [`reset_phase_timers`]. Copyable snapshot; subtract two snapshots to
/// time a region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Time in [`Phase::Forward`].
    pub forward_nanos: u64,
    /// Time in [`Phase::Reconstruct`].
    pub reconstruct_nanos: u64,
    /// Time in [`Phase::Backward`].
    pub backward_nanos: u64,
    /// Time in [`Phase::Reduce`].
    pub reduce_nanos: u64,
    /// Time in [`Phase::Optimizer`].
    pub optimizer_nanos: u64,
}

impl PhaseTimes {
    /// Element-wise `self - earlier` (saturating), for timing a region
    /// between two snapshots.
    pub fn since(&self, earlier: &PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            forward_nanos: self.forward_nanos.saturating_sub(earlier.forward_nanos),
            reconstruct_nanos: self.reconstruct_nanos.saturating_sub(earlier.reconstruct_nanos),
            backward_nanos: self.backward_nanos.saturating_sub(earlier.backward_nanos),
            reduce_nanos: self.reduce_nanos.saturating_sub(earlier.reduce_nanos),
            optimizer_nanos: self.optimizer_nanos.saturating_sub(earlier.optimizer_nanos),
        }
    }

    /// Sum of all phase counters, in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.forward_nanos
            + self.reconstruct_nanos
            + self.backward_nanos
            + self.reduce_nanos
            + self.optimizer_nanos
    }
}

/// Adds `nanos` to a phase counter directly (for callers that time with
/// their own clock).
pub fn phase_add_nanos(phase: Phase, nanos: u64) {
    PHASE_NANOS[phase as usize].fetch_add(nanos, Ordering::Relaxed);
}

/// Runs `f`, charging its wall-clock time to `phase`.
///
/// Phase counters are process-global and additive: concurrent tasks in the
/// same phase each charge their own wall time, so a counter reads as
/// *aggregate thread-time* in that phase, not elapsed time.
pub fn time_phase<R>(phase: Phase, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    phase_add_nanos(phase, t0.elapsed().as_nanos() as u64);
    r
}

/// Nanoseconds accumulated in one phase since the last
/// [`reset_phase_timers`].
pub fn phase_nanos(phase: Phase) -> u64 {
    PHASE_NANOS[phase as usize].load(Ordering::Relaxed)
}

/// Snapshot of all phase counters.
pub fn phase_times() -> PhaseTimes {
    PhaseTimes {
        forward_nanos: phase_nanos(Phase::Forward),
        reconstruct_nanos: phase_nanos(Phase::Reconstruct),
        backward_nanos: phase_nanos(Phase::Backward),
        reduce_nanos: phase_nanos(Phase::Reduce),
        optimizer_nanos: phase_nanos(Phase::Optimizer),
    }
}

/// Zeroes all phase counters (process-wide).
pub fn reset_phase_timers() {
    for c in &PHASE_NANOS {
        c.store(0, Ordering::Relaxed);
    }
}

/// One snapshot of both memory views: cached activations (this module) and
/// the kernel scratch arena (`revbifpn_tensor::scratch`).
#[derive(Clone, Copy, Debug)]
pub struct MemoryReport {
    /// Bytes of activation state currently cached for backward.
    pub cached_current: usize,
    /// High-water mark of cached activation bytes since the last [`reset`].
    pub cached_peak: usize,
    /// Bytes of persistently packed frozen-model weight panels resident on
    /// this thread (survives the per-step [`reset`]).
    pub packed_weight_bytes: usize,
    /// Bytes of quantized (int8) packed weight panels resident on this
    /// thread — the int8 counterpart of `packed_weight_bytes`.
    pub quant_packed_weight_bytes: usize,
    /// Kernel scratch-arena counters (borrows, heap growths, peak/resident
    /// bytes). `heap_growths` staying flat across steps means conv/GEMM calls
    /// are allocation-free at steady state.
    pub scratch: ScratchStats,
}

/// Captures a [`MemoryReport`] for the current thread.
pub fn report() -> MemoryReport {
    MemoryReport {
        cached_current: current(),
        cached_peak: peak(),
        packed_weight_bytes: packed_current(),
        quant_packed_weight_bytes: quant_packed_current(),
        scratch: scratch_stats(),
    }
}

/// A slot for backward-pass state whose size is tracked by the meter.
///
/// Layers store their cached inputs/masks/statistics in `Cached` slots; the
/// meter's `current()` then reports the total cached activation footprint,
/// and `peak()` its high-water mark (which is what bounds accelerator
/// memory).
#[derive(Debug)]
pub struct Cached<T> {
    value: Option<T>,
    bytes: usize,
}

impl<T> Cached<T> {
    /// An empty slot.
    pub const fn empty() -> Self {
        Self { value: None, bytes: 0 }
    }

    /// Stores `value`, registering `bytes` with the meter (replacing and
    /// unregistering any previous occupant).
    pub fn put(&mut self, value: T, bytes: usize) {
        self.clear();
        add(bytes);
        self.value = Some(value);
        self.bytes = bytes;
    }

    /// Removes and returns the value, releasing its bytes.
    pub fn take(&mut self) -> Option<T> {
        if self.value.is_some() {
            sub(self.bytes);
            self.bytes = 0;
        }
        self.value.take()
    }

    /// Immutable access without releasing.
    pub fn get(&self) -> Option<&T> {
        self.value.as_ref()
    }

    /// `true` if the slot holds a value.
    pub fn is_some(&self) -> bool {
        self.value.is_some()
    }

    /// Registered size of the current occupant (0 when empty).
    pub fn bytes(&self) -> usize {
        if self.value.is_some() {
            self.bytes
        } else {
            0
        }
    }

    /// Drops the occupant, releasing its bytes.
    pub fn clear(&mut self) {
        if self.value.take().is_some() {
            sub(self.bytes);
        }
        self.bytes = 0;
    }
}

impl<T> Default for Cached<T> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<T> Drop for Cached<T> {
    fn drop(&mut self) {
        self.clear();
    }
}

impl Cached<revbifpn_tensor::Tensor> {
    /// Stores a tensor, registering its buffer size automatically.
    pub fn put_tensor(&mut self, t: revbifpn_tensor::Tensor) {
        let b = t.bytes();
        self.put(t, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revbifpn_tensor::{Shape, Tensor};

    #[test]
    fn add_sub_peak() {
        reset();
        add(100);
        add(50);
        assert_eq!(current(), 150);
        sub(100);
        assert_eq!(current(), 50);
        assert_eq!(peak(), 150);
        reset();
        assert_eq!(current(), 0);
        assert_eq!(peak(), 0);
    }

    #[test]
    fn cached_tracks_tensor_bytes() {
        reset();
        let mut slot = Cached::empty();
        slot.put_tensor(Tensor::zeros(Shape::new(1, 1, 2, 2)));
        assert_eq!(current(), 16);
        assert_eq!(slot.bytes(), 16);
        let t = slot.take().unwrap();
        assert_eq!(t.shape(), Shape::new(1, 1, 2, 2));
        assert_eq!(current(), 0);
        assert!(!slot.is_some());
    }

    #[test]
    fn put_replaces_previous_occupant() {
        reset();
        let mut slot = Cached::empty();
        slot.put(vec![0u8; 10], 10);
        slot.put(vec![0u8; 30], 30);
        assert_eq!(current(), 30);
        slot.clear();
        assert_eq!(current(), 0);
    }

    #[test]
    fn event_counters_survive_byte_reset() {
        reset_events();
        count("test.alpha");
        count_n("test.alpha", 2);
        count("test.beta");
        reset(); // must not clear events
        assert_eq!(event_count("test.alpha"), 3);
        assert_eq!(event_count("test.beta"), 1);
        assert_eq!(event_count("test.never"), 0);
        let all = events();
        assert!(all.contains(&("test.alpha", 3)));
        reset_events();
        assert_eq!(event_count("test.alpha"), 0);
        assert!(events().is_empty());
    }

    #[test]
    fn isolated_reverts_thread_state_and_reports_delta() {
        reset();
        add(100);
        let ((), m) = isolated(|| {
            add(70);
            sub(20);
            count("test.iso");
        });
        // Thread state reverted: the task's ops are invisible locally.
        assert_eq!(current(), 100);
        assert_eq!(event_count("test.iso"), 0);
        assert_eq!(m.cached_delta, 50);
        assert_eq!(m.peak_above_start, 70);
        assert_eq!(m.events, vec![("test.iso", 1)]);
        absorb(&m);
        assert_eq!(current(), 150);
        assert_eq!(peak(), 170, "peak = current at absorb + task excursion");
        assert_eq!(event_count("test.iso"), 1);
        sub(150);
        reset_events();
    }

    #[test]
    fn isolated_task_may_release_foreign_bytes() {
        reset();
        add(40);
        let ((), m) = isolated(|| {
            // Releases state registered outside the scope: local delta goes
            // negative without tripping the under-release assert.
            sub(30);
        });
        assert_eq!(m.cached_delta, -30);
        assert_eq!(m.peak_above_start, 0);
        absorb(&m);
        assert_eq!(current(), 10);
        sub(10);
    }

    #[test]
    fn absorb_in_order_matches_sequential_trace() {
        reset();
        let deltas: Vec<TaskMeter> = (0..4)
            .map(|i| isolated(|| {
                add(100 * (i + 1));
                sub(50 * (i + 1));
            }))
            .map(|(_, m)| m)
            .collect();
        for m in &deltas {
            absorb(m);
        }
        // Sequential run: current climbs 50, 100, 150, 200 → 500 total;
        // peak reached inside task 4: 50+100+150 resident + 400 excursion.
        assert_eq!(current(), 500);
        assert_eq!(peak(), 700);
        sub(500);
    }

    #[test]
    fn phase_timers_accumulate() {
        let before = phase_times();
        let v = time_phase(Phase::Reduce, || {
            std::hint::black_box(42u64)
        });
        assert_eq!(v, 42);
        phase_add_nanos(Phase::Forward, 1000);
        let delta = phase_times().since(&before);
        assert!(delta.forward_nanos >= 1000);
        assert!(delta.total_nanos() >= delta.forward_nanos);
    }

    #[test]
    fn drop_releases_bytes() {
        reset();
        {
            let mut slot = Cached::empty();
            slot.put(42u32, 4);
            assert_eq!(current(), 4);
        }
        assert_eq!(current(), 0);
    }
}
