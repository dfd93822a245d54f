//! The staged pipeline executor ([`ExecMode::Pipelined`]).
//!
//! Real video-analytics engines overlap decode, detection, and downstream
//! relational work instead of interpreting one frame at a time. This
//! executor splits the operator chain into six stages connected by
//! bounded channels:
//!
//! ```text
//!  decode workers ─▶ frame filters ─▶ detect workers ─▶ track/prep ─▶ enrich workers ─▶ tail
//!   (parallel,        (single thread,   (parallel,       (single thread,  (parallel,      (caller
//!    unordered)        frame order)      unordered)       frame order)     unordered)      thread,
//!                                                                                          frame order)
//! ```
//!
//! - **Decode** fans out across `workers` threads: each claims the next
//!   batch index, renders its frames, and charges decode cost. Decoding is
//!   pure, so order does not matter here.
//! - **Frame filters** (differencing, binary classifiers) are stateful
//!   across frames, so one thread reorders batches by sequence number and
//!   applies them in frame order.
//! - **Detect** fans out again: detection is deterministic per frame, so
//!   `workers` threads each run their own detect operators on whole
//!   batches.
//! - **Track/prep** runs the ordered pre-enrich tail segment — the tracker
//!   plus every stateful or reuse-cache-touching projection
//!   ([`crate::backend::plan::PlanDag::partition_tail`]) — on one thread in
//!   frame order: it owns the real reuse cache, so hit/eviction order is
//!   byte-identical to sequential execution.
//! - **Enrich** fans the hoisted per-object projections and filters (e.g.
//!   non-memoizable classifier properties) across `workers` threads, each
//!   owning its operator chain as a reusable workspace. These ops are
//!   order-free and cache-free by the planner's hoisting rule, so batches
//!   process unordered; while enrich chews on batch *b*, prep is already
//!   sequencing batch *b+1* — the stage that used to dominate the tail
//!   overlaps with everything else.
//! - **Tail** (relation projections, joins) runs on the calling thread,
//!   reordering batches back into frame order for result delivery.
//!
//! Every stage after decode, the tail included, is the same receive loop;
//! stages differ only in whether it restores frame order. Stage bodies run
//! through the same stage runner as the sequential driver, so a stage has
//! one span and one `stage_wall_ms` bucket in both modes.
//!
//! Slots recycle through a return channel, so the steady state allocates no
//! new frame workspaces. Cancellation is cooperative: every blocking send /
//! receive polls a shared flag, so an error in any stage (or plain
//! completion) winds down all threads without deadlock. Results are
//! byte-identical to [`ExecMode::Sequential`]; see the parity tests.
//!
//! Since the serving refactor this module exposes a *segment* runner: all
//! cross-frame operator state lives in a caller-owned [`StageOps`], so a
//! long-lived stream can alternate pipelined segments with plan recompiles
//! (query attach/detach) without losing tracker or filter state.
//!
//! [`ExecMode::Pipelined`]: crate::backend::exec::ExecMode::Pipelined
//! [`ExecMode::Sequential`]: crate::backend::exec::ExecMode::Sequential

use crate::backend::exec::{ExecMetrics, ResultSink, Stage, StageOps, StageRunner};
use crate::backend::ops::{FrameSlot, Operator};
use crate::backend::reuse::ReuseCache;
use crate::error::{panic_message, Result, VqpyError};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::time::Duration;

/// A batch of slots tagged with its sequence number.
type Batch = (u64, Vec<FrameSlot>);

/// The stages fed through a channel, in pipeline order: channel `i` of the
/// chain carries batches into `FED[i]`, and decode feeds channel 0.
const FED: [Stage; 5] = [
    Stage::FrameFilters,
    Stage::Detect,
    Stage::Track,
    Stage::Enrich,
    Stage::Tail,
];

const POLL: Duration = Duration::from_millis(1);
const RECV_POLL: Duration = Duration::from_millis(20);

/// Sends cooperatively: polls so a cancelled pipeline never deadlocks on a
/// full bounded channel. Returns `false` when cancelled or disconnected.
fn send_coop<T>(tx: &SyncSender<T>, mut msg: T, cancel: &AtomicBool) -> bool {
    loop {
        if cancel.load(Ordering::Relaxed) {
            return false;
        }
        match tx.try_send(msg) {
            Ok(()) => return true,
            Err(TrySendError::Full(m)) => {
                msg = m;
                std::thread::sleep(POLL);
            }
            Err(TrySendError::Disconnected(_)) => return false,
        }
    }
}

/// Receives cooperatively from a shared receiver. Returns `None` when
/// cancelled or when all senders disconnected.
fn recv_coop<T>(rx: &Mutex<Receiver<T>>, cancel: &AtomicBool) -> Option<T> {
    loop {
        if cancel.load(Ordering::Relaxed) {
            return None;
        }
        match rx.lock().recv_timeout(RECV_POLL) {
            Ok(v) => return Some(v),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return None,
        }
    }
}

/// Holds sequence-tagged batches until a stage takes them.
struct Reorder {
    pending: BTreeMap<u64, Vec<FrameSlot>>,
    next: u64,
}

impl Reorder {
    fn new() -> Self {
        Self {
            pending: BTreeMap::new(),
            next: 0,
        }
    }

    fn push(&mut self, batch: Batch) {
        self.pending.insert(batch.0, batch.1);
    }

    /// The next batch in sequence order when `ordered` (`None` until it
    /// arrives), else any held batch.
    fn pop(&mut self, ordered: bool) -> Option<Batch> {
        if !ordered {
            return self.pending.pop_first();
        }
        let slots = self.pending.remove(&self.next)?;
        self.next += 1;
        Some((self.next - 1, slots))
    }
}

/// Cooperative cancellation plus the first error any stage hit.
#[derive(Default)]
struct Control {
    cancel: AtomicBool,
    error: Mutex<Option<VqpyError>>,
}

impl Control {
    /// Records `e` unless an earlier error was recorded, and cancels every
    /// stage.
    fn fail(&self, e: VqpyError) {
        let mut guard = self.error.lock();
        if guard.is_none() {
            *guard = Some(e);
        }
        self.cancel.store(true, Ordering::Relaxed);
    }
}

/// Runs a stage body, converting a panic into a typed
/// [`VqpyError::StagePanic`]. Stage threads must not unwind through the
/// scope: a panicking scoped thread would re-raise at scope exit *after*
/// the other stages wind down on channel disconnects — but a thread parked
/// on a channel whose peer is still alive would never observe the
/// disconnect, so containment-plus-[`Control::fail`] (which cancels) is
/// the only ordering that is deadlock-free for every stage.
fn contain<R>(stage: Stage, f: impl FnOnce() -> Result<R>) -> Result<R> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        Err(VqpyError::StagePanic {
            stage: stage.label(),
            message: panic_message(&*p),
        })
    })
}

/// Drives one stage on one thread: takes batches off `rx` — in sequence
/// order when the stage is [ordered](Stage::ordered) — runs `body` on each
/// under panic containment, and hands the batch to `emit`. Returns when
/// the input runs dry or is cancelled, when `emit` refuses, or when a body
/// fails, which records the error and cancels the pipeline.
fn pump(
    stage: Stage,
    rx: &Mutex<Receiver<Batch>>,
    ctl: &Control,
    mut body: impl FnMut(&mut Batch) -> Result<()>,
    mut emit: impl FnMut(Batch) -> bool,
) {
    let mut reorder = Reorder::new();
    while let Some(batch) = recv_coop(rx, &ctl.cancel) {
        reorder.push(batch);
        while let Some(mut batch) = reorder.pop(stage.ordered()) {
            if let Err(e) = contain(stage, || body(&mut batch)) {
                ctl.fail(e);
                return;
            }
            if !emit(batch) {
                return;
            }
        }
    }
}

/// Runs one contiguous frame segment through the staged pipeline. Called by
/// [`crate::backend::exec::run_segment`] for [`Pipelined`] mode; operator
/// state, the reuse cache, and metrics persist in the caller across calls.
///
/// The worker count is `ops.detects.len()` (fixed at instantiation).
///
/// [`Pipelined`]: crate::backend::exec::ExecMode::Pipelined
pub(crate) fn run_segment_pipelined(
    runner: &StageRunner,
    range: Range<u64>,
    ops: &mut StageOps,
    reuse: &mut ReuseCache,
    metrics: &mut ExecMetrics,
    sink: &mut dyn ResultSink,
) -> Result<()> {
    let workers = ops.detects.len().max(1);
    let batch = runner.config.batch_size.max(1) as u64;
    let (first, end) = (range.start, range.end);
    let num_batches = (end - first).div_ceil(batch);
    let start = move |seq: u64| first + seq * batch;

    let depth = workers * 2 + 2;
    let (txs, rxs): (Vec<SyncSender<Batch>>, Vec<_>) =
        FED.iter().map(|_| sync_channel::<Batch>(depth)).unzip();
    let rxs: Vec<Mutex<Receiver<Batch>>> = rxs.into_iter().map(Mutex::new).collect();
    let (recycle_tx, recycle_rx) = std::sync::mpsc::channel::<Vec<FrameSlot>>();
    let recycle_rx = Mutex::new(recycle_rx);

    let ctl = Control::default();
    let next_batch = AtomicU64::new(0);
    let frames_processed = AtomicU64::new(0);
    let delivered_before = metrics.frames_total;

    let StageOps {
        filters,
        detects,
        prep,
        enrichs,
        tail,
        ..
    } = ops;
    // One operator chain per thread of each stage between decode and tail.
    let lanes: [Vec<&mut Vec<Box<dyn Operator>>>; 4] = [
        vec![filters],
        detects.iter_mut().collect(),
        vec![prep],
        enrichs.iter_mut().collect(),
    ];
    // The track stage owns the stream's real reuse cache for the segment:
    // it sees frames in order, so the cache's hit/eviction sequence stays
    // byte-identical to sequential execution. The other stages never
    // consult the cache and run with an empty stand-in.
    let mut track_reuse = Some(reuse);

    std::thread::scope(|scope| {
        // Decode workers (parallel, unordered): each claims the next batch
        // index and ships the batch's decodable frames.
        for _ in 0..workers {
            let tx = txs[0].clone();
            let (ctl, next_batch, recycle_rx) = (&ctl, &next_batch, &recycle_rx);
            scope.spawn(move || loop {
                if ctl.cancel.load(Ordering::Relaxed) {
                    break;
                }
                let b = next_batch.fetch_add(1, Ordering::Relaxed);
                if b >= num_batches {
                    break;
                }
                let lo = start(b);
                let hi = (lo + batch).min(end);
                let mut slots = recycle_rx.lock().try_recv().unwrap_or_default();
                match contain(Stage::Decode, || Ok(runner.decode(lo..hi, &mut slots))) {
                    Ok(n) => slots.truncate(n),
                    Err(e) => {
                        ctl.fail(e);
                        break;
                    }
                }
                if !send_coop(&tx, (b, slots), &ctl.cancel) {
                    break;
                }
            });
        }

        for (i, chains) in lanes.into_iter().enumerate() {
            let stage = FED[i];
            for chain in chains {
                let (rx, tx) = (&rxs[i], txs[i + 1].clone());
                let (ctl, frames_processed) = (&ctl, &frames_processed);
                let shared = if stage == Stage::Track {
                    track_reuse.take()
                } else {
                    None
                };
                scope.spawn(move || {
                    let mut stand_in = ReuseCache::new();
                    let reuse = shared.unwrap_or(&mut stand_in);
                    let body = |(seq, slots): &mut Batch| {
                        runner.run(stage, start(*seq), chain, slots, reuse)?;
                        if stage == Stage::FrameFilters {
                            // Frames alive past the frame filters count as
                            // processed.
                            let alive = slots.iter().filter(|s| s.alive).count();
                            frames_processed.fetch_add(alive as u64, Ordering::Relaxed);
                        }
                        Ok(())
                    };
                    pump(stage, rx, ctl, body, |b| send_coop(&tx, b, &ctl.cancel));
                });
            }
        }
        drop(txs);

        // Tail (this thread, frame order): joins and relation projections,
        // then delivery to the sink.
        let mut stand_in = ReuseCache::new();
        let body = |(seq, slots): &mut Batch| {
            metrics.frames_total += slots.len() as u64;
            runner.run(Stage::Tail, start(*seq), tail, slots, &mut stand_in)?;
            slots
                .iter()
                .try_for_each(|slot| sink.on_frame(runner.plan, slot))
        };
        let recycle = |(_, slots): Batch| {
            let _ = recycle_tx.send(slots); // decode may have exited
            true
        };
        pump(Stage::Tail, &rxs[FED.len() - 1], &ctl, body, recycle);
        // Unblock any worker still parked on a full channel.
        ctl.cancel.store(true, Ordering::Relaxed);
    });

    if let Some(e) = ctl.error.into_inner() {
        return Err(e);
    }
    metrics.frames_processed += frames_processed.into_inner();
    // Every batch reached the tail, so each frame of the segment that the
    // tail did not see failed to decode.
    metrics.decode_failures += (end - first) - (metrics.frames_total - delivered_before);
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::backend::exec::{execute_plan, ExecConfig, ExecMode};
    use crate::backend::plan::{build_plan, PlanOptions};
    use crate::frontend::library;
    use crate::frontend::predicate::Pred;
    use crate::frontend::query::Query;
    use std::sync::Arc;
    use vqpy_models::ModelZoo;
    use vqpy_video::presets;
    use vqpy_video::scene::Scene;
    use vqpy_video::source::SyntheticVideo;

    fn red_car_query() -> Arc<Query> {
        Query::builder("RedCar")
            .vobj("car", library::vehicle_schema_intrinsic())
            .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
            .frame_output(&[("car", "track_id")])
            .build()
            .unwrap()
    }

    #[test]
    fn pipelined_matches_sequential_results_and_costs() {
        let zoo = ModelZoo::standard();
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 404, 15.0));
        let plan = build_plan(&[red_car_query()], &zoo, &PlanOptions::vqpy_default()).unwrap();

        let c_seq = vqpy_models::Clock::new();
        let seq = execute_plan(&plan, &v, &zoo, &c_seq, &ExecConfig::default()).unwrap();

        let c_pipe = vqpy_models::Clock::new();
        let pipe = execute_plan(
            &plan,
            &v,
            &zoo,
            &c_pipe,
            &ExecConfig {
                exec_mode: ExecMode::Pipelined { workers: 3 },
                ..ExecConfig::default()
            },
        )
        .unwrap();

        assert_eq!(seq[0].hit_frames(), pipe[0].hit_frames());
        assert_eq!(seq[0].metrics.frames_total, pipe[0].metrics.frames_total);
        assert_eq!(
            seq[0].metrics.frames_processed,
            pipe[0].metrics.frames_processed
        );
        assert_eq!(seq[0].metrics.reuse, pipe[0].metrics.reuse);
        // Virtual cost is order-independent, so both modes charge the same.
        assert!(
            (c_seq.virtual_ms() - c_pipe.virtual_ms()).abs() < 1e-6,
            "seq {} vs pipe {}",
            c_seq.virtual_ms(),
            c_pipe.virtual_ms()
        );
    }

    #[test]
    fn pipelined_reports_stage_walltimes() {
        let zoo = ModelZoo::standard();
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 7, 5.0));
        let plan = build_plan(&[red_car_query()], &zoo, &PlanOptions::vqpy_default()).unwrap();
        // Both drivers time every stage through the same runner.
        for exec_mode in [ExecMode::Sequential, ExecMode::Pipelined { workers: 2 }] {
            let clock = vqpy_models::Clock::new();
            let config = ExecConfig {
                exec_mode,
                ..ExecConfig::default()
            };
            let results = execute_plan(&plan, &v, &zoo, &clock, &config).unwrap();
            let stages: Vec<&str> = results[0]
                .metrics
                .stage_wall_ms
                .iter()
                .map(|(n, _)| n.as_str())
                .collect();
            assert_eq!(
                stages,
                vec![
                    "decode",
                    "frame_filters",
                    "detect",
                    "track",
                    "enrich",
                    "tail",
                    "total"
                ],
                "{exec_mode:?}"
            );
            assert!(results[0]
                .metrics
                .stage_wall_ms
                .iter()
                .all(|(_, ms)| *ms >= 0.0));
        }
    }

    #[test]
    fn pipelined_surfaces_errors() {
        // A plan referencing a model that exists at plan time but not at
        // execution time (different zoo) must error cleanly, not hang.
        let zoo = ModelZoo::standard();
        let plan = build_plan(&[red_car_query()], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let empty_zoo = ModelZoo::new();
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 7, 2.0));
        let clock = vqpy_models::Clock::new();
        let err = execute_plan(
            &plan,
            &v,
            &empty_zoo,
            &clock,
            &ExecConfig {
                exec_mode: ExecMode::Pipelined { workers: 2 },
                ..ExecConfig::default()
            },
        );
        assert!(err.is_err());
    }
}
