//! Host-speed gauge. The benchmark's host shares its cores: the same binary
//! on the same seed ran 20-35% slower for minutes at a time, in CPU time as
//! much as in wall time. A fixed reference kernel, owned by the benchmark
//! and run every few milliseconds between units of measured work, slows
//! with that drift, so CPU cost counted in kernel runs stays put while CPU
//! seconds do not. The kernel is not the program's code, so a change to
//! the program moves the cost and not the gauge.

use crate::stats::{median, thread_cpu_seconds};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Least time between two gauge runs.
const EVERY: Duration = Duration::from_millis(10);

struct State {
    last: Option<Instant>,
    run_us: Vec<f64>,
    cpu_s: f64,
}

static STATE: Mutex<State> = Mutex::new(State {
    last: None,
    run_us: Vec::new(),
    cpu_s: 0.0,
});

fn state() -> std::sync::MutexGuard<'static, State> {
    STATE.lock().expect("gauge lock poisoned")
}

/// The reference work, about 0.15 ms on an idle core: paint a 240 x 135
/// RGB buffer and twelve boxes on it, and take a 4-bit-per-channel
/// histogram of each box, the kind of memory traffic frame rendering and
/// the colour model make.
fn kernel() -> u32 {
    const W: usize = 240;
    const H: usize = 135;
    let mut buf = vec![0u8; W * H * 3];
    let mut acc = 0;
    for pass in 0..2 {
        for y in 0..H {
            for x in 0..W {
                let i = (y * W + x) * 3;
                buf[i] = (x * 3 + pass) as u8;
                buf[i + 1] = (y * 2) as u8;
                buf[i + 2] = 90;
            }
        }
        for b in 0..12 {
            let (x0, y0) = ((b * 17 + pass * 5) % 200, (b * 11) % 100);
            let rows = || (y0..y0 + 20).flat_map(|y| (x0..x0 + 30).map(move |x| (y * W + x) * 3));
            for i in rows() {
                buf[i] = (b * 20) as u8;
                buf[i + 1] = 40;
                buf[i + 2] = (b * 7) as u8;
            }
            let mut hist = [0u32; 4096];
            for i in rows() {
                let key = ((buf[i] as usize >> 4) << 8)
                    | ((buf[i + 1] as usize >> 4) << 4)
                    | (buf[i + 2] as usize >> 4);
                hist[key] += 1;
            }
            acc += hist.iter().max().copied().unwrap_or(0);
        }
    }
    acc
}

/// Runs the kernel once if at least `EVERY` has passed since the last run,
/// and returns the CPU seconds it took this thread (0 when it did not run).
/// Callers subtract the gauge's CPU time from any CPU time they measure.
pub fn tick() -> f64 {
    let now = Instant::now();
    if state().last.is_some_and(|t| now < t + EVERY) {
        return 0.0;
    }
    let cpu0 = thread_cpu_seconds();
    let t = Instant::now();
    std::hint::black_box(kernel());
    let run_us = t.elapsed().as_secs_f64() * 1e6;
    let cpu_s = thread_cpu_seconds() - cpu0;
    let mut s = state();
    s.last = Some(Instant::now());
    s.run_us.push(run_us);
    s.cpu_s += cpu_s;
    cpu_s
}

/// CPU seconds every gauge run so far has taken.
pub fn cpu_s() -> f64 {
    state().cpu_s
}

/// Median microseconds of one kernel run since the last call, and the
/// number of runs; the gauge starts over.
pub fn take() -> (f64, usize) {
    let mut s = state();
    let runs = std::mem::take(&mut s.run_us);
    s.last = None;
    (median(&runs), runs.len())
}
