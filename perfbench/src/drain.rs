//! The consumer side of served workloads: one thread sweeps every
//! subscription, stamps each hit on arrival, and times it from the
//! frame's due time.

use crate::gauge;
use crate::stats::{quantile, thread_cpu_seconds};
use crate::ties::differing_frames;
use crate::trace::ObservedVideo;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vqpy_core::scoring::f1_frames;
use vqpy_core::FrameHit;
use vqpy_serve::{ServeEvent, Subscription};

/// Checks served hits against the offline answer. Returns the frames that
/// break the check, and the served hit frames' F1 against the offline
/// ones. The hits must be equal, except that hits of events the server
/// reports as dropped may be missing.
pub fn check_hits(
    served: &[FrameHit],
    reference: &[FrameHit],
    lossy: bool,
) -> (BTreeSet<u64>, f64) {
    let frames = |h: &[FrameHit]| h.iter().map(|h| h.frame).collect::<BTreeSet<u64>>();
    let f1 = f1_frames(&frames(served), &frames(reference)).f1;
    if !lossy {
        return (differing_frames(served, reference), f1);
    }
    let mut r = reference.iter();
    let bad = served
        .iter()
        .filter(|h| !r.any(|x| x == *h))
        .map(|h| h.frame)
        .collect();
    (bad, f1)
}

/// When a stream's frames are due.
pub enum Due {
    /// Open loop: frame `f` is due `f / fps` after `start`.
    Paced { start: Instant, fps: f64 },
    /// Closed loop: a frame is due when the system pulls it.
    Pulled(Arc<ObservedVideo>),
}

impl Due {
    fn of(&self, frame: u64) -> Option<Instant> {
        match self {
            Due::Paced { start, fps } => Some(*start + Duration::from_secs_f64(frame as f64 / fps)),
            Due::Pulled(v) => v.pulled_at(frame),
        }
    }
}

struct Stream {
    due: Due,
    subs: Vec<Subscription>,
    /// Hits per subscription, in arrival order.
    hits: Vec<Vec<FrameHit>>,
    open: Vec<bool>,
}

/// Every subscription of a served run, with the hits and latencies
/// received so far.
#[derive(Default)]
pub struct Drain {
    streams: Vec<Stream>,
    pub latencies_ms: Vec<f64>,
    /// Worker-fault notices received (each is a failed operation).
    pub faults: u64,
    /// Wall time of each sweep that received events: how long an event
    /// can wait on this thread before it is stamped.
    pub sweep_ms: Vec<f64>,
    /// When the last terminal event arrived.
    pub last_end: Option<Instant>,
    /// CPU seconds this consumer spent receiving and stamping events. It
    /// is the benchmark's work, not the program's, and is subtracted from
    /// the process CPU time.
    pub cpu_s: f64,
}

impl Drain {
    pub fn add(&mut self, due: Due, subs: Vec<Subscription>) {
        let n = subs.len();
        self.streams.push(Stream {
            due,
            subs,
            hits: vec![Vec::new(); n],
            open: vec![true; n],
        });
    }

    /// Records one event of subscription `i` of stream `s`, received at
    /// `now`.
    fn take(&mut self, s: usize, i: usize, event: ServeEvent, now: Instant) {
        let stream = &mut self.streams[s];
        match event {
            ServeEvent::Hit(hit) => {
                let due = stream
                    .due
                    .of(hit.frame)
                    .expect("a delivered frame was pulled");
                self.latencies_ms
                    .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
                stream.hits[i].push(hit);
            }
            ServeEvent::StreamFault(_) | ServeEvent::StoreFault(_) => self.faults += 1,
            ServeEvent::End { .. } | ServeEvent::Detached { .. } => {
                stream.open[i] = false;
                self.last_end = Some(now);
            }
        }
    }

    /// Receives everything that is waiting; returns the number of events.
    pub fn sweep(&mut self) -> usize {
        let cpu0 = thread_cpu_seconds();
        let events = self.receive();
        self.cpu_s += thread_cpu_seconds() - cpu0;
        events
    }

    fn receive(&mut self) -> usize {
        let start = Instant::now();
        let mut events = 0;
        for s in 0..self.streams.len() {
            for i in 0..self.streams[s].subs.len() {
                while self.streams[s].open[i] {
                    match self.streams[s].subs[i].try_recv() {
                        Ok(Some(event)) => {
                            events += 1;
                            self.take(s, i, event, Instant::now());
                        }
                        Ok(None) => break,
                        Err(_) => self.streams[s].open[i] = false,
                    }
                }
            }
        }
        if events > 0 {
            self.sweep_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        events
    }

    /// Whether every added subscription has ended.
    pub fn done(&self) -> bool {
        self.streams.iter().all(|s| s.open.iter().all(|o| !o))
    }

    /// Sweeps until every subscription has ended. When nothing is waiting
    /// it blocks on the first open subscription for at most a
    /// millisecond, rather than spinning.
    pub fn run_to_end(&mut self) {
        let cpu0 = thread_cpu_seconds();
        let mut gauge_s = 0.0;
        while !self.done() {
            gauge_s += gauge::tick();
            if self.receive() > 0 {
                continue;
            }
            let Some((s, i)) = self
                .streams
                .iter()
                .enumerate()
                .find_map(|(s, st)| st.open.iter().position(|&o| o).map(|i| (s, i)))
            else {
                break;
            };
            match self.streams[s].subs[i].recv_timeout(Duration::from_millis(1)) {
                Ok(Some(event)) => self.take(s, i, event, Instant::now()),
                Ok(None) => {}
                Err(_) => self.streams[s].open[i] = false,
            }
        }
        self.cpu_s += thread_cpu_seconds() - cpu0 - gauge_s;
    }

    /// Hits of stream `s` (in `add` order), one list per subscription.
    pub fn hits(&self, s: usize) -> &[Vec<FrameHit>] {
        &self.streams[s].hits
    }

    pub fn generator_late_p99(&self, extra_ms: &[f64]) -> f64 {
        quantile(&self.sweep_ms, 0.99).max(quantile(extra_ms, 0.99))
    }
}
