//! Speed calibration: how fast is this box *right now*?
//!
//! The shared VM this runs on switches pace every few seconds. A
//! latency-bound ALU chain keeps its pace (2–5 % spread over 150–200 s of
//! 5-second windows), while anything with a high instruction rate — a
//! hash-map loop, allocator churn, the interpreter, the compiler — slows
//! down by up to 40 % together (15–28 % spread over the same windows), in
//! steps: a busy sibling hardware thread, not steal time or clock speed.
//! Against the loop below (hash-map look-ups plus allocator churn) an
//! interpreter launch stayed within 2.5–3.6 % and a compile within 5.5–7 %
//! over those windows.
//!
//! So the load generator runs that loop between operations (at most once
//! per [`TICK`]), and every wall-clock reading is scaled by
//! `REFERENCE_S / measured` of the two calibration runs around it: seconds
//! as they would read on this box at its reference pace. The loop is the
//! benchmark's own code, compiled with the same toolchain and flags on both
//! sides of any comparison, and calls nothing of the system under test, so
//! a change to the system cannot move the yardstick. The raw readings are
//! printed beside the scaled ones.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// What one run of [`kernel`] takes on this box at the pace the scaled
/// metrics are expressed in (its median while the box was undisturbed).
pub const REFERENCE_S: f64 = 0.0060;

/// Shortest stretch of operations between two calibration runs.
const TICK: Duration = Duration::from_millis(20);

const KEYS: u64 = 512;
const LOOKUPS: usize = 250_000;
const ALLOCATIONS: usize = 40_000;
/// Blocks the churn keeps alive.
const LIVE_BLOCKS: usize = 2_000;

fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state
}

/// The calibration loop, two halves of about equal length. A quarter of a
/// million look-ups and updates in a small `HashMap` with the standard
/// hasher: hashing, probing, branches and float arithmetic at a high
/// instruction rate, like the interpreter's environment and the compiler's
/// interning. Then forty thousand short-lived heap blocks of 64 B to 1 KiB
/// with the odd formatted string: the allocator churn of building and
/// printing IR. Each half alone tracked one of the two (launch, compile)
/// worse than both together.
fn kernel() -> f64 {
    let mut state = 1u64;
    let mut map: HashMap<u64, f64> = (0..KEYS).map(|i| (i * 7919, i as f64)).collect();
    let mut acc = 0.0f64;
    for _ in 0..LOOKUPS {
        let key = (next(&mut state) >> 33) % KEYS * 7919;
        if let Some(v) = map.get_mut(&key) {
            *v = *v * 0.999 + 1.0;
            acc += *v;
        }
    }
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(LIVE_BLOCKS + 1);
    for i in 0..ALLOCATIONS {
        let r = next(&mut state);
        live.push(vec![r; 8 + ((r >> 40) % 120) as usize]);
        if live.len() > LIVE_BLOCKS {
            let victim = (r >> 20) as usize % live.len();
            acc += live.swap_remove(victim).len() as f64;
        }
        if i % 64 == 0 {
            acc += format!("op{i}_{r}").len() as f64;
        }
    }
    std::hint::black_box(acc + live.len() as f64)
}

/// Seconds one run of the calibration loop takes now.
pub fn measure() -> f64 {
    let t = Instant::now();
    kernel();
    t.elapsed().as_secs_f64()
}

/// The factor that scales a wall-clock reading taken between two
/// calibration runs (`before`, `after`, in seconds) to the reference pace.
pub fn factor(before: f64, after: f64) -> f64 {
    REFERENCE_S / (0.5 * (before + after))
}

/// One timed operation: seconds as read off the clock and as scaled to the
/// reference pace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timed {
    pub raw_s: f64,
    pub scaled_s: f64,
}

/// Scales a stream of timed operations: calibrates before the first, then
/// again whenever [`TICK`] has passed, and scales every operation by the two
/// calibration runs around it.
pub struct Pacer {
    /// Seconds of the calibration run before the pending operations.
    before: f64,
    last: Instant,
    /// Every calibration run so far, seconds.
    calibrations: Vec<f64>,
    done: Vec<Timed>,
    /// Operations recorded since the last calibration run.
    pending: Vec<f64>,
}

impl Pacer {
    /// Calibrate once and start recording.
    pub fn start() -> Pacer {
        let before = measure();
        Pacer {
            before,
            last: Instant::now(),
            calibrations: vec![before],
            done: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Record one operation that took `raw_s` seconds; returns its index in
    /// [`Paced::ops`]. Call right after the operation, off its clock.
    pub fn record(&mut self, raw_s: f64) -> usize {
        self.pending.push(raw_s);
        let index = self.done.len() + self.pending.len() - 1;
        if self.last.elapsed() >= TICK {
            self.calibrate();
        }
        index
    }

    fn calibrate(&mut self) {
        let after = measure();
        let f = factor(self.before, after);
        self.done.extend(self.pending.drain(..).map(|raw_s| Timed {
            raw_s,
            scaled_s: raw_s * f,
        }));
        self.calibrations.push(after);
        self.before = after;
        self.last = Instant::now();
    }

    /// Calibrate a last time and return everything recorded.
    pub fn finish(mut self) -> Paced {
        if !self.pending.is_empty() {
            self.calibrate();
        }
        let n = self.calibrations.len() as f64;
        Paced {
            ops: self.done,
            cal_s: self.calibrations.iter().sum::<f64>() / n,
        }
    }
}

/// What a [`Pacer`] recorded.
pub struct Paced {
    pub ops: Vec<Timed>,
    /// Mean seconds of the calibration runs: the box's pace over the stretch.
    pub cal_s: f64,
}

impl Paced {
    /// Sum of all operations: the stretch's wall seconds, raw and scaled.
    pub fn total(&self) -> Timed {
        self.ops.iter().fold(Timed::default(), |sum, t| Timed {
            raw_s: sum.raw_s + t.raw_s,
            scaled_s: sum.scaled_s + t.scaled_s,
        })
    }
}

/// Time `f` repeatedly and return each call's reading: at least `min_k`
/// calls, then more until `max_k` calls were made or `budget` has elapsed.
/// Slow probes therefore stop at `min_k`, fast ones reach `max_k`.
pub fn repeat(min_k: usize, max_k: usize, budget: Duration, mut f: impl FnMut()) -> Vec<Timed> {
    let started = Instant::now();
    let mut pacer = Pacer::start();
    let mut calls = 0;
    while calls < max_k && (calls < min_k || started.elapsed() < budget) {
        let t = Instant::now();
        f();
        pacer.record(t.elapsed().as_secs_f64());
        calls += 1;
    }
    pacer.finish().ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_honours_min_and_max() {
        let mut calls = 0;
        let s = repeat(3, 5, Duration::ZERO, || calls += 1);
        assert_eq!((s.len(), calls), (3, 3));
        let s = repeat(1, 4, Duration::from_secs(60), || {});
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn factor_is_one_at_the_reference_pace_and_shrinks_when_slow() {
        assert_eq!(factor(REFERENCE_S, REFERENCE_S), 1.0);
        assert!(factor(2.0 * REFERENCE_S, 2.0 * REFERENCE_S) < 0.51);
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn pacer_scales_every_operation_and_keeps_their_order() {
        let mut pacer = Pacer::start();
        assert_eq!(pacer.record(1.0), 0);
        assert_eq!(pacer.record(2.0), 1);
        std::thread::sleep(TICK);
        assert_eq!(pacer.record(3.0), 2, "this one triggers a calibration");
        assert_eq!(pacer.record(4.0), 3);
        let paced = pacer.finish();
        let raw: Vec<f64> = paced.ops.iter().map(|t| t.raw_s).collect();
        assert_eq!(raw, [1.0, 2.0, 3.0, 4.0]);
        assert!(paced.ops.iter().all(|t| t.scaled_s > 0.0));
        // Operations between the same two calibration runs share a factor.
        let f = |t: &Timed| t.scaled_s / t.raw_s;
        assert!((f(&paced.ops[0]) - f(&paced.ops[1])).abs() < 1e-12);
        assert_eq!(paced.total().raw_s, 10.0);
        assert!(paced.cal_s > 0.0);
    }
}
