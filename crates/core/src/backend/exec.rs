//! The execution engine: instantiates a [`PlanDag`] into live operators and
//! streams frames through them in batches, collecting per-query frame hits
//! and video aggregates.
//!
//! Every driver runs the same six stages over each batch: decode, frame
//! filters, detect, track (the tracker plus every stateful or
//! reuse-cache-touching projection), enrich (hoisted order-free
//! projections and filters) and tail (relation projections and joins). One
//! stage runner serves both drivers: it opens the stage's `"exec"` span,
//! runs the stage's operator chain and adds the elapsed wall time to the
//! stage's [`ExecMetrics::stage_wall_ms`] bucket.
//!
//! - **Sequential** ([`ExecMode::Sequential`]): one thread processes the
//!   video in batches of [`ExecConfig::batch_size`] frames, *op-major* —
//!   each operator's [`Operator::process_batch`] runs over the whole batch
//!   before the next operator starts, so model-backed operators issue one
//!   physical batched invocation per batch (§4.1).
//! - **Pipelined** ([`ExecMode::Pipelined`]): the staged executor in
//!   [`crate::backend::pipeline`] runs the stages on dedicated threads
//!   connected by bounded channels. Decode, detect and enrich fan out
//!   across worker threads; frame filters, track and tail each run on one
//!   thread in frame order, because differencing filters, trackers,
//!   sliding windows, the reuse cache and joins are stateful.
//!
//! Both modes produce byte-identical query results: every simulated model
//! answers deterministically per `(frame, entity)`, stateful operators see
//! frames in order in both drivers, and batching only changes *charged
//! cost* (amortized dispatch overhead), never values.
//!
//! Frame slots are workspaces ([`FrameSlot::reset`]) and the reuse cache is
//! keyed by interned symbols, so the steady-state hot loop performs no
//! per-frame allocations for caching or match bookkeeping.

use crate::backend::dispatch::{DirectDispatch, ModelDispatch};
use crate::backend::ops::{
    BinaryFilterOp, DetectOp, DiffFrameFilter, ExecCtx, FilterOp, FrameSlot, JoinOp, OpState,
    Operator, ProjectOp, RelationProjectOp, TrackOp,
};
use crate::backend::plan::{JoinSpec, OpSpec, PlanDag};
use crate::backend::reuse::{ReuseCache, ReuseStats};
use crate::backend::symbols::SymbolTable;
use crate::error::{Result, VqpyError};
use crate::frontend::query::{Aggregate, Query};
use crate::frontend::vobj::ResolvedProperty;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vqpy_models::{Clock, ModelZoo, Value};
use vqpy_video::source::VideoSource;

/// How the operator chain is driven over the video.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Single-threaded, batch-at-a-time (the default).
    #[default]
    Sequential,
    /// Staged pipeline: decode → frame filters → detect → track → enrich →
    /// tail, on dedicated threads with bounded channels. `workers` threads
    /// each fan out the decode, detect and enrich stages (clamped to at
    /// least 1).
    Pipelined {
        /// Worker threads per parallel stage.
        workers: usize,
    },
}

impl ExecMode {
    /// Worker threads per parallel stage this mode asks for (1 for
    /// sequential driving).
    pub fn workers(&self) -> usize {
        match self {
            ExecMode::Sequential => 1,
            ExecMode::Pipelined { workers } => (*workers).max(1),
        }
    }
}

/// Execution configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Frames per execution batch (the user-defined batch size of §4.1).
    /// Model-backed operators amortize per-invocation overhead across the
    /// batch; results are identical for every batch size.
    pub batch_size: usize,
    /// Sequential or pipelined driving (see [`ExecMode`]).
    pub exec_mode: ExecMode,
    /// Object-level computation reuse (§4.2) toggle.
    pub enable_intrinsic_reuse: bool,
    /// Optional reuse-cache entry bound; least-recently-used track
    /// properties are evicted past it (long videos, bounded memory).
    pub reuse_capacity: Option<usize>,
    /// Record per-frame virtual cost (Figure 13(b) series). Cost is
    /// attributed evenly within each batch (execution itself is unchanged);
    /// ignored (left empty) in pipelined mode.
    pub record_per_frame_ms: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            batch_size: 8,
            exec_mode: ExecMode::Sequential,
            enable_intrinsic_reuse: true,
            reuse_capacity: None,
            record_per_frame_ms: false,
        }
    }
}

impl ExecConfig {
    /// The reuse cache this configuration asks for.
    pub fn make_reuse(&self) -> ReuseCache {
        match self.reuse_capacity {
            Some(cap) => ReuseCache::with_capacity(cap),
            None => ReuseCache::new(),
        }
    }
}

/// Execution counters.
#[derive(Debug, Clone, Default)]
pub struct ExecMetrics {
    pub frames_total: u64,
    /// Frames surviving the frame filters (i.e. reaching detectors).
    pub frames_processed: u64,
    /// Frames whose decode failed ([`vqpy_video::DecodeFault`]) and were
    /// skipped instead of aborting the segment. Not counted in
    /// `frames_total`: a skipped frame never enters the super-plan.
    pub decode_failures: u64,
    pub reuse: ReuseStats,
    /// Virtual ms spent on each frame (only when
    /// [`ExecConfig::record_per_frame_ms`] is set; sequential mode only).
    pub per_frame_ms: Vec<f64>,
    /// Wall-clock milliseconds per stage (`decode`, `frame_filters`,
    /// `detect`, `track`, `enrich`, `tail`) in both exec modes, plus a
    /// `"total"` entry from [`execute_plan`]. Parallel stages report the
    /// *sum* of their workers' busy time.
    pub stage_wall_ms: Vec<(String, f64)>,
}

impl ExecMetrics {
    /// Adds wall time to a named stage bucket, creating it on first use
    /// (segment runs accumulate into the same buckets).
    pub fn add_stage_wall(&mut self, name: &str, ms: f64) {
        match self.stage_wall_ms.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += ms,
            None => self.stage_wall_ms.push((name.to_owned(), ms)),
        }
    }

    /// Accumulates another run's counters into this one (a serving layer
    /// merges metrics of retired engines with the live engine's).
    pub fn absorb(&mut self, other: &ExecMetrics) {
        self.frames_total += other.frames_total;
        self.frames_processed += other.frames_processed;
        self.decode_failures += other.decode_failures;
        self.reuse.hits += other.reuse.hits;
        self.reuse.misses += other.reuse.misses;
        self.reuse.evictions += other.reuse.evictions;
        self.reuse.tier_hits += other.reuse.tier_hits;
        self.per_frame_ms.extend_from_slice(&other.per_frame_ms);
        for (name, ms) in &other.stage_wall_ms {
            self.add_stage_wall(name, *ms);
        }
    }

    /// One-line summary of the counters that matter for perf triage:
    /// frame counts, reuse-cache hit rate, and per-stage wall times. Bench
    /// reports embed this string so `BENCH_*.json` files record the cache
    /// and stage behavior behind each throughput number.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "frames {}/{} processed | reuse {:.1}% ({} hits, {} misses, {} evictions)",
            self.frames_processed,
            self.frames_total,
            self.reuse.hit_rate() * 100.0,
            self.reuse.hits,
            self.reuse.misses,
            self.reuse.evictions,
        );
        if self.decode_failures > 0 {
            s.push_str(&format!(
                " | {} decode failures skipped",
                self.decode_failures
            ));
        }
        if !self.stage_wall_ms.is_empty() {
            let stages: Vec<String> = self
                .stage_wall_ms
                .iter()
                .map(|(n, ms)| format!("{n} {ms:.1}ms"))
                .collect();
            s.push_str(&format!(" | stages: {}", stages.join(", ")));
        }
        s
    }
}

/// A frame satisfying a query, with its projected outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameHit {
    pub frame: u64,
    pub time_s: f64,
    /// One output row per matching combo: `(alias.prop, value)` pairs.
    pub outputs: Vec<Vec<(String, Value)>>,
}

/// The result of one query's execution.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub query_name: String,
    pub frame_hits: Vec<FrameHit>,
    /// Video-level aggregate (Figure 7), if the query declared one.
    pub video_value: Option<Value>,
    pub metrics: ExecMetrics,
    /// Virtual milliseconds charged during execution.
    pub virtual_ms: f64,
}

impl QueryResult {
    /// Sorted hit frame indices.
    pub fn hit_frames(&self) -> Vec<u64> {
        self.frame_hits.iter().map(|h| h.frame).collect()
    }

    /// Hit frames as a set, for scoring.
    pub fn hit_frame_set(&self) -> BTreeSet<u64> {
        self.frame_hits.iter().map(|h| h.frame).collect()
    }
}

/// Instantiates operator specs, interning names into `syms`. Reuse-cache
/// keys are derived from these symbols, so a long-lived stream must pass
/// the *same* table for every (re)instantiation or cached values would be
/// read back under the wrong `(alias, prop)` identity.
pub fn instantiate_ops_with(
    plan: &PlanDag,
    specs: &[OpSpec],
    zoo: &ModelZoo,
    syms: &mut SymbolTable,
) -> Result<Vec<Box<dyn Operator>>> {
    let mut ops: Vec<Box<dyn Operator>> = Vec::with_capacity(specs.len());
    for spec in specs {
        let op: Box<dyn Operator> = match spec {
            OpSpec::DiffFilter { threshold } => Box::new(DiffFrameFilter::new(*threshold)),
            OpSpec::BinaryFilter { model } => {
                Box::new(BinaryFilterOp::new(zoo.frame_classifier(model)?))
            }
            OpSpec::Detect { detector, aliases } => {
                Box::new(DetectOp::new(zoo.detector(detector)?, aliases.clone()))
            }
            OpSpec::Track { alias } => Box::new(TrackOp::new(alias.clone())),
            OpSpec::Project { alias, prop } => {
                let (a, p) = (syms.intern(alias), syms.intern(prop));
                Box::new(ProjectOp::new(
                    alias.clone(),
                    resolve_def(plan, alias, prop)?,
                    a,
                    p,
                ))
            }
            OpSpec::FusedProjectFilter {
                alias,
                prop,
                pred,
                required,
            } => {
                let (a, p) = (syms.intern(alias), syms.intern(prop));
                Box::new(
                    ProjectOp::new(alias.clone(), resolve_def(plan, alias, prop)?, a, p)
                        .with_fused_filter(pred.clone(), *required),
                )
            }
            OpSpec::Filter {
                alias,
                pred,
                required,
            } => Box::new(FilterOp::new(alias.clone(), pred.clone(), *required)),
            OpSpec::ProjectRelation { index } => {
                Box::new(RelationProjectOp::new(plan.relations[*index].clone()))
            }
            OpSpec::Join { index } => {
                let j = &plan.joins[*index];
                let aliases: Vec<String> =
                    j.query.vobjs().iter().map(|v| v.alias.clone()).collect();
                Box::new(JoinOp::new(
                    *index,
                    j.query.name().to_owned(),
                    aliases,
                    j.query.relations().to_vec(),
                    j.pred.clone(),
                    j.kills_frame,
                ))
            }
        };
        ops.push(op);
    }
    Ok(ops)
}

fn resolve_def(
    plan: &PlanDag,
    alias: &str,
    prop: &str,
) -> Result<crate::frontend::property::PropertyDef> {
    let schema = plan
        .schemas
        .get(alias)
        .ok_or_else(|| VqpyError::UnknownAlias(alias.to_owned()))?;
    match schema.resolve_property(prop) {
        Some(ResolvedProperty::Defined(def)) => Ok(def.clone()),
        _ => Err(VqpyError::UnknownProperty {
            schema: schema.name().to_owned(),
            property: prop.to_owned(),
        }),
    }
}

/// Consumes finished frame slots in frame order: the tail of every
/// execution driver. The offline path accumulates a [`QueryResult`] per
/// query ([`Collector`]); the serving layer demultiplexes matches to
/// per-query subscribers incrementally.
pub trait ResultSink {
    /// Observes one finished slot. Called in frame order.
    fn on_frame(&mut self, plan: &PlanDag, slot: &FrameSlot) -> Result<()>;
}

/// Per-query streaming accumulator: video-aggregate bookkeeping plus
/// extraction of a frame's hit row. Uses O(1) state per query (no
/// per-frame history), so it can run over unbounded live streams.
#[derive(Debug, Default)]
pub struct QueryAccum {
    /// The alias whose nodes feed the video aggregate, if any.
    agg_alias: Option<String>,
    distinct_tracks: BTreeSet<i64>,
    frames_seen: u64,
    frames_hit: u64,
    count_sum: u64,
    count_max: u64,
}

impl QueryAccum {
    /// An accumulator for one query (the serving layer builds accumulators
    /// before the super-plan containing the query exists).
    pub fn new(query: &Query) -> Self {
        let agg_alias = match query.video_output() {
            Some(Aggregate::CountDistinctTracks { alias })
            | Some(Aggregate::AvgPerFrame { alias })
            | Some(Aggregate::MaxPerFrame { alias }) => Some(alias.clone()),
            _ => None,
        };
        Self {
            agg_alias,
            ..Self::default()
        }
    }

    /// Observes join `ji`'s matches on a finished slot (must be called in
    /// frame order), returning the frame's hit row when any combo matched.
    pub fn observe(&mut self, join: &JoinSpec, slot: &FrameSlot, ji: usize) -> Option<FrameHit> {
        static EMPTY: Vec<crate::backend::ops::MatchCombo> = Vec::new();
        let combos = slot.matches.get(ji).unwrap_or(&EMPTY);
        self.frames_seen += 1;
        // Aggregation bookkeeping (count per frame even when zero).
        let frame_count = if let Some(alias) = &self.agg_alias {
            let mut frame_nodes = BTreeSet::new();
            for c in combos {
                if let Some(&node) = c.bindings.get(alias) {
                    frame_nodes.insert(node);
                    if let Value::Int(t) = slot.graph.nodes[node].value_of("track_id") {
                        self.distinct_tracks.insert(t);
                    }
                }
            }
            frame_nodes.len() as u64
        } else {
            u64::from(!combos.is_empty())
        };
        self.count_sum += frame_count;
        self.count_max = self.count_max.max(frame_count);
        if combos.is_empty() {
            return None;
        }
        self.frames_hit += 1;
        let outputs: Vec<Vec<(String, Value)>> = combos
            .iter()
            .map(|c| {
                join.query
                    .frame_output()
                    .iter()
                    .filter_map(|p| {
                        c.bindings.get(&p.alias).map(|&node| {
                            (
                                format!("{}.{}", p.alias, p.prop),
                                slot.graph.nodes[node].value_of(&p.prop),
                            )
                        })
                    })
                    .collect()
            })
            .collect();
        Some(FrameHit {
            frame: slot.frame.index,
            time_s: slot.frame.time_s,
            outputs,
        })
    }

    /// The query's video-level aggregate over the frames observed so far.
    pub fn video_value(&self, query: &Query) -> Option<Value> {
        query.video_output().map(|a| match a {
            Aggregate::CountDistinctTracks { .. } => Value::Int(self.distinct_tracks.len() as i64),
            Aggregate::AvgPerFrame { .. } => {
                Value::Float(self.count_sum as f64 / self.frames_seen.max(1) as f64)
            }
            Aggregate::MaxPerFrame { .. } => Value::Int(self.count_max as i64),
            Aggregate::CountFrames => Value::Int(self.frames_hit as i64),
        })
    }
}

/// Accumulates per-join hits and aggregates as finished slots stream out of
/// a driver (always in frame order): the batch/offline [`ResultSink`].
pub struct Collector {
    hits: Vec<Vec<FrameHit>>,
    accums: Vec<QueryAccum>,
}

impl Collector {
    /// An empty collector for a plan's query set.
    pub fn new(plan: &PlanDag) -> Self {
        Self {
            hits: plan.joins.iter().map(|_| Vec::new()).collect(),
            accums: plan
                .joins
                .iter()
                .map(|j| QueryAccum::new(&j.query))
                .collect(),
        }
    }

    /// Records one finished slot's matches. Must be called in frame order.
    pub fn collect(&mut self, plan: &PlanDag, slot: &FrameSlot) {
        for (ji, j) in plan.joins.iter().enumerate() {
            if let Some(hit) = self.accums[ji].observe(j, slot, ji) {
                self.hits[ji].push(hit);
            }
        }
    }

    /// Builds the per-query results.
    pub fn finalize(self, plan: &PlanDag, metrics: ExecMetrics, total_ms: f64) -> Vec<QueryResult> {
        let mut results = Vec::with_capacity(plan.joins.len());
        for ((j, accum), hits) in plan.joins.iter().zip(&self.accums).zip(self.hits) {
            results.push(QueryResult {
                query_name: j.query.name().to_owned(),
                frame_hits: hits,
                video_value: accum.video_value(&j.query),
                metrics: metrics.clone(),
                virtual_ms: total_ms,
            });
        }
        results
    }
}

impl ResultSink for Collector {
    fn on_frame(&mut self, plan: &PlanDag, slot: &FrameSlot) -> Result<()> {
        self.collect(plan, slot);
        Ok(())
    }
}

/// The operator-chain split every driver uses: frame filters (stateful,
/// frame order) → detectors (stateless, parallelizable) → tail (stateful
/// relational work). `(frame_specs, detect_specs, tail_specs)`.
pub fn split_stage_specs(plan: &PlanDag) -> (&[OpSpec], &[OpSpec], &[OpSpec]) {
    let first_detect = plan
        .ops
        .iter()
        .position(|o| matches!(o, OpSpec::Detect { .. }));
    match first_detect {
        Some(first_detect) => {
            let after_detect = plan.ops[first_detect..]
                .iter()
                .position(|o| !matches!(o, OpSpec::Detect { .. }))
                .map(|p| first_detect + p)
                .unwrap_or(plan.ops.len());
            (
                &plan.ops[..first_detect],
                &plan.ops[first_detect..after_detect],
                &plan.ops[after_detect..],
            )
        }
        None => (&plan.ops[..0], &plan.ops[..0], &plan.ops[..]),
    }
}

/// Live operator chains, split at stage boundaries. `detects` holds one
/// chain per pipeline worker (detectors are stateless, so each worker owns
/// instances); sequential driving uses worker 0 only.
///
/// A `StageOps` owns all cross-frame operator state for a stream, so a
/// serving layer can persist it across [`run_segment`] calls — and, via
/// [`StageOps::export_states`] / [`StageOps::import_states`], across plan
/// recompiles when queries attach or detach.
pub struct StageOps {
    pub filters: Vec<Box<dyn Operator>>,
    pub detects: Vec<Vec<Box<dyn Operator>>>,
    /// Ordered pre-enrich segment of the tail: the tracker plus every
    /// stateful or reuse-cache-touching projection, in plan order (see
    /// [`PlanDag::partition_tail`]). Runs in frame order in both drivers.
    pub prep: Vec<Box<dyn Operator>>,
    /// Hoisted enrich chains, one per pipeline worker: order-free,
    /// cache-free per-object projections and filters the planner lifted
    /// out of the tail. Each worker owns its chain as a reusable workspace
    /// (operators here are stateless, so chains never need state
    /// carry-over but are still consulted by
    /// [`StageOps::import_states`] for forward compatibility). Sequential
    /// driving uses chain 0 only.
    pub enrichs: Vec<Vec<Box<dyn Operator>>>,
    /// The thin, genuinely order-dependent tail: relation projections and
    /// joins.
    pub tail: Vec<Box<dyn Operator>>,
    /// The model-dispatch boundary every driver routes detect-,
    /// binary-filter-, and classify-stage model invocations through (see
    /// [`crate::backend::dispatch`]). Defaults to [`DirectDispatch`]; a
    /// serving supervisor replaces it with a shared cross-stream batcher.
    /// Owned here — rather than passed per segment — so the boundary
    /// survives exactly as long as the stream's operator state does.
    pub dispatch: Arc<dyn ModelDispatch>,
    /// Span tracer both drivers open stage spans on (decode,
    /// frame_filter, detect, track, enrich, tail) and hand to operators via
    /// [`ExecCtx`] for dispatch-level spans. Defaults to a disabled tracer
    /// — one atomic load per would-be span — and is owned here for the
    /// same reason `dispatch` is: the serving layer installs an enabled,
    /// per-stream handle once and it survives plan recompiles.
    pub tracer: vqpy_obs::Tracer,
    /// Frame-slot workspace the sequential driver fills per batch. Owned
    /// here so re-entrant segment stepping — a shard worker running one
    /// short segment per scheduler turn — reuses the allocations across
    /// calls instead of rebuilding slot buffers every step. Purely a
    /// workspace: its contents between calls carry no semantic state.
    pub slots: Vec<FrameSlot>,
}

impl StageOps {
    /// Extracts every stateful operator's cross-frame state, keyed by
    /// [`Operator::state_key`]. Detect workers beyond the first hold no
    /// state (detection is stateless), so only worker 0 is consulted.
    pub fn export_states(&mut self) -> HashMap<String, OpState> {
        let mut out = HashMap::new();
        let chains = self
            .filters
            .iter_mut()
            .chain(self.detects.first_mut().into_iter().flatten())
            .chain(self.prep.iter_mut())
            .chain(self.enrichs.first_mut().into_iter().flatten())
            .chain(self.tail.iter_mut());
        for op in chains {
            if let (Some(key), Some(state)) = (op.state_key(), op.export_state()) {
                out.insert(key, state);
            }
        }
        out
    }

    /// Installs previously exported state into operators with matching
    /// state keys; unmatched entries are dropped (their operator left the
    /// plan) and unmatched operators start fresh (they just joined).
    pub fn import_states(&mut self, states: &mut HashMap<String, OpState>) {
        let chains = self
            .filters
            .iter_mut()
            .chain(self.detects.iter_mut().flatten())
            .chain(self.prep.iter_mut())
            .chain(self.enrichs.iter_mut().flatten())
            .chain(self.tail.iter_mut());
        for op in chains {
            if let Some(key) = op.state_key() {
                if let Some(state) = states.remove(&key) {
                    op.import_state(state);
                }
            }
        }
    }
}

/// Instantiates a plan's operators split by stage, with `workers` detect
/// chains, interning execution symbols into `symbols` (see
/// [`instantiate_ops_with`] for why the table must outlive recompiles).
pub fn instantiate_stage_ops(
    plan: &PlanDag,
    zoo: &ModelZoo,
    workers: usize,
    symbols: &mut SymbolTable,
) -> Result<StageOps> {
    let workers = workers.max(1);
    let (frame_specs, detect_specs, tail_all) = split_stage_specs(plan);
    let (prep_specs, enrich_specs, tail_specs) = plan.partition_tail(tail_all);
    Ok(StageOps {
        filters: instantiate_ops_with(plan, frame_specs, zoo, symbols)?,
        detects: (0..workers)
            .map(|_| instantiate_ops_with(plan, detect_specs, zoo, symbols))
            .collect::<Result<_>>()?,
        prep: instantiate_ops_with(plan, prep_specs, zoo, symbols)?,
        enrichs: (0..workers)
            .map(|_| instantiate_ops_with(plan, enrich_specs, zoo, symbols))
            .collect::<Result<_>>()?,
        tail: instantiate_ops_with(plan, tail_specs, zoo, symbols)?,
        dispatch: Arc::new(DirectDispatch),
        tracer: vqpy_obs::Tracer::disabled(),
        slots: Vec::new(),
    })
}

/// Executes a plan over a video, producing one result per query in the
/// plan, in plan order. Dispatches on [`ExecConfig::exec_mode`]; both modes
/// produce identical results.
///
/// # Errors
///
/// Fails when plan operators reference unknown models or properties.
pub fn execute_plan(
    plan: &PlanDag,
    source: &dyn VideoSource,
    zoo: &ModelZoo,
    clock: &Clock,
    config: &ExecConfig,
) -> Result<Vec<QueryResult>> {
    let workers = config.exec_mode.workers();
    let mut symbols = plan.symbols.clone();
    let mut ops = instantiate_stage_ops(plan, zoo, workers, &mut symbols)?;
    let mut reuse = config.make_reuse();
    let mut metrics = ExecMetrics::default();
    let mut collector = Collector::new(plan);
    let start_ms = clock.virtual_ms();
    let wall_start = Instant::now();
    run_segment(
        plan,
        source,
        zoo,
        clock,
        config,
        0..source.frame_count(),
        &mut ops,
        &mut reuse,
        &mut metrics,
        &mut collector,
    )?;
    metrics.reuse = reuse.stats();
    metrics
        .stage_wall_ms
        .push(("total".into(), wall_start.elapsed().as_secs_f64() * 1e3));
    let total_ms = clock.virtual_ms() - start_ms;
    Ok(collector.finalize(plan, metrics, total_ms))
}

/// Streams the contiguous frame `range` of `source` through `ops`,
/// delivering every finished slot to `sink` in frame order. All cross-call
/// state lives in `ops`/`reuse`/`metrics`, so callers may interleave
/// segments with plan recompiles (the serving layer's attach/detach) or run
/// one whole-video segment (the offline path). `metrics.reuse` is *not*
/// refreshed here — callers snapshot `reuse.stats()` when they finish.
#[allow(clippy::too_many_arguments)]
pub fn run_segment(
    plan: &PlanDag,
    source: &dyn VideoSource,
    zoo: &ModelZoo,
    clock: &Clock,
    config: &ExecConfig,
    range: Range<u64>,
    ops: &mut StageOps,
    reuse: &mut ReuseCache,
    metrics: &mut ExecMetrics,
    sink: &mut dyn ResultSink,
) -> Result<()> {
    if range.is_empty() {
        return Ok(());
    }
    let runner = StageRunner {
        plan,
        config,
        clock,
        source,
        zoo,
        dispatch: Arc::clone(&ops.dispatch),
        tracer: ops.tracer.clone(),
        busy_ns: Default::default(),
    };
    match config.exec_mode {
        ExecMode::Sequential => {
            run_segment_sequential(&runner, range, ops, reuse, metrics, sink)?;
        }
        ExecMode::Pipelined { .. } => crate::backend::pipeline::run_segment_pipelined(
            &runner, range, ops, reuse, metrics, sink,
        )?,
    }
    for stage in Stage::ALL {
        let ns = runner.busy_ns[stage as usize].load(Ordering::Relaxed);
        metrics.add_stage_wall(stage.label(), ns as f64 / 1e6);
    }
    Ok(())
}

/// A stage of the operator chain, in pipeline order. Each has one span
/// name, one `stage_wall_ms` bucket and one panic label in both drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    Decode,
    FrameFilters,
    Detect,
    Track,
    Enrich,
    Tail,
}

impl Stage {
    const ALL: [Stage; 6] = [
        Stage::Decode,
        Stage::FrameFilters,
        Stage::Detect,
        Stage::Track,
        Stage::Enrich,
        Stage::Tail,
    ];

    /// The stage's `stage_wall_ms` bucket, also the label of a contained
    /// stage panic.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::FrameFilters => "frame_filters",
            Stage::Detect => "detect",
            Stage::Track => "track",
            Stage::Enrich => "enrich",
            Stage::Tail => "tail",
        }
    }

    /// The stage's span name (category `"exec"`).
    fn span(self) -> &'static str {
        match self {
            Stage::FrameFilters => "frame_filter",
            stage => stage.label(),
        }
    }

    /// Whether the stage's operators carry state across frames (frame
    /// filters; the tracker and the reuse cache; joins), so batches must
    /// reach it in frame order. Other stages take batches as they come.
    pub(crate) fn ordered(self) -> bool {
        matches!(self, Stage::FrameFilters | Stage::Track | Stage::Tail)
    }
}

/// Everything the stages of one segment run share, and the one instrument
/// point of both drivers: [`StageRunner::decode`] and [`StageRunner::run`]
/// open the stage's span, do its work and add the elapsed wall time to the
/// stage's bucket. Parallel stages share one runner across their workers,
/// so a bucket sums the workers' busy time.
pub(crate) struct StageRunner<'a> {
    pub(crate) plan: &'a PlanDag,
    pub(crate) config: &'a ExecConfig,
    clock: &'a Clock,
    source: &'a dyn VideoSource,
    zoo: &'a ModelZoo,
    dispatch: Arc<dyn ModelDispatch>,
    tracer: vqpy_obs::Tracer,
    /// Busy nanoseconds per [`Stage`], indexed by discriminant.
    busy_ns: [AtomicU64; Stage::ALL.len()],
}

impl StageRunner<'_> {
    /// Decodes `frames` into the front of `slots`, reusing their buffers,
    /// and returns how many decoded. Every frame is charged decode cost; an
    /// undecodable one ([`vqpy_video::DecodeFault`]) is skipped, because a
    /// decode fault is a per-frame event, not a stream-fatal one.
    pub(crate) fn decode(&self, frames: Range<u64>, slots: &mut Vec<FrameSlot>) -> usize {
        let started = Instant::now();
        let mut span = self
            .tracer
            .span("exec", Stage::Decode.span())
            .arg("start", frames.start)
            .arg("end", frames.end);
        let mut n = 0usize;
        for f in frames {
            self.clock
                .charge_labeled("video_decode", vqpy_models::zoo::COST_VIDEO_DECODE);
            let Ok(frame) = self.source.try_frame(f) else {
                continue;
            };
            if n < slots.len() {
                slots[n].reset(frame);
            } else {
                slots.push(FrameSlot::new(frame));
            }
            slots[n].prepare_joins(self.plan.joins.len());
            n += 1;
        }
        span.add_arg("decoded", n);
        self.add_busy(Stage::Decode, started);
        n
    }

    /// Runs `stage`'s operator `chain` over the batch whose first frame
    /// index is `start`.
    pub(crate) fn run(
        &self,
        stage: Stage,
        start: u64,
        chain: &mut [Box<dyn Operator>],
        slots: &mut [FrameSlot],
        reuse: &mut ReuseCache,
    ) -> Result<()> {
        let started = Instant::now();
        let _span = self
            .tracer
            .span("exec", stage.span())
            .arg("start", start)
            .arg("frames", slots.len());
        let mut ctx = ExecCtx {
            dispatch: &*self.dispatch,
            tracer: &self.tracer,
            zoo: self.zoo,
            clock: self.clock,
            fps: self.source.fps(),
            reuse,
            enable_reuse: self.config.enable_intrinsic_reuse,
        };
        for op in chain.iter_mut() {
            op.process_batch(slots, &mut ctx)?;
        }
        self.add_busy(stage, started);
        Ok(())
    }

    fn add_busy(&self, stage: Stage, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        self.busy_ns[stage as usize].fetch_add(ns, Ordering::Relaxed);
    }
}

/// Runs a segment on the calling thread in batches, op-major: each stage
/// runs over the whole batch before the next starts, so model-backed
/// operators issue one physical batched invocation per batch.
fn run_segment_sequential(
    runner: &StageRunner,
    range: Range<u64>,
    ops: &mut StageOps,
    reuse: &mut ReuseCache,
    metrics: &mut ExecMetrics,
    sink: &mut dyn ResultSink,
) -> Result<()> {
    let StageOps {
        filters,
        detects,
        prep,
        enrichs,
        tail,
        slots,
        ..
    } = ops;
    let batch_size = runner.config.batch_size.max(1) as u64;
    let mut index = range.start;
    while index < range.end {
        let end = (index + batch_size).min(range.end);
        let batch_start_ms = runner.clock.virtual_ms();
        let n = runner.decode(index..end, slots);
        metrics.frames_total += n as u64;
        metrics.decode_failures += (end - index) - n as u64;
        if n > 0 {
            let batch = &mut slots[..n];
            runner.run(Stage::FrameFilters, index, filters, batch, reuse)?;
            // Frames alive past the frame filters count as processed.
            metrics.frames_processed += batch.iter().filter(|s| s.alive).count() as u64;
            runner.run(Stage::Detect, index, &mut detects[0], batch, reuse)?;
            runner.run(Stage::Track, index, prep, batch, reuse)?;
            runner.run(Stage::Enrich, index, &mut enrichs[0], batch, reuse)?;
            runner.run(Stage::Tail, index, tail, batch, reuse)?;
            for slot in batch.iter() {
                sink.on_frame(runner.plan, slot)?;
            }
            if runner.config.record_per_frame_ms {
                // Op-major batching interleaves charges across the batch's
                // frames, so attribute the batch's cost evenly:
                // instrumentation must not change what is being measured
                // (batch amortization stays on), and quarter-averaged series
                // (Figure 13(b)) are unaffected by the within-batch
                // smoothing.
                let per_frame = (runner.clock.virtual_ms() - batch_start_ms) / n as f64;
                metrics
                    .per_frame_ms
                    .extend(std::iter::repeat_n(per_frame, n));
            }
        }
        index = end;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::plan::{build_plan, PlanOptions};
    use crate::frontend::library;
    use crate::frontend::predicate::Pred;
    use crate::frontend::query::Query;
    use std::sync::Arc;
    use vqpy_video::color::NamedColor;
    use vqpy_video::presets;
    use vqpy_video::scene::Scene;
    use vqpy_video::source::SyntheticVideo;

    fn video(seconds: f64) -> SyntheticVideo {
        SyntheticVideo::new(Scene::generate(presets::jackson(), 5150, seconds))
    }

    fn red_car_query() -> Arc<Query> {
        Query::builder("RedCar")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
            .frame_output(&[("car", "track_id"), ("car", "bbox")])
            .build()
            .unwrap()
    }

    #[test]
    fn red_car_query_finds_red_cars() {
        let zoo = ModelZoo::standard();
        let v = video(30.0);
        let plan = build_plan(&[red_car_query()], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let clock = Clock::new();
        let results = execute_plan(&plan, &v, &zoo, &clock, &ExecConfig::default()).unwrap();
        assert_eq!(results.len(), 1);
        let r = &results[0];

        // Compare against ground truth: frames with a visible red vehicle.
        let scene = v.scene().unwrap();
        let truth: BTreeSet<u64> = (0..scene.frame_count())
            .filter(|&f| {
                scene.truth_at(f).visible.iter().any(|e| {
                    e.attrs
                        .as_vehicle()
                        .map(|a| a.color == NamedColor::Red)
                        .unwrap_or(false)
                })
            })
            .collect();
        let predicted = r.hit_frame_set();
        if truth.is_empty() {
            assert!(predicted.len() < 10, "no red cars but many hits?");
            return;
        }
        let tp = predicted.intersection(&truth).count() as f64;
        let precision = tp / predicted.len().max(1) as f64;
        let recall = tp / truth.len() as f64;
        assert!(precision > 0.7, "precision {precision}");
        assert!(recall > 0.6, "recall {recall}");
        assert!(r.virtual_ms > 0.0);
    }

    #[test]
    fn results_are_invariant_to_batch_size() {
        let zoo = ModelZoo::standard();
        let v = video(12.0);
        let plan = build_plan(&[red_car_query()], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let mut reference: Option<Vec<u64>> = None;
        for batch_size in [1usize, 3, 8, 64] {
            let clock = Clock::new();
            let results = execute_plan(
                &plan,
                &v,
                &zoo,
                &clock,
                &ExecConfig {
                    batch_size,
                    ..ExecConfig::default()
                },
            )
            .unwrap();
            let hits = results[0].hit_frames();
            match &reference {
                None => reference = Some(hits),
                Some(r) => assert_eq!(r, &hits, "batch size {batch_size} changed results"),
            }
        }
    }

    #[test]
    fn batching_amortizes_model_overhead() {
        let zoo = ModelZoo::standard();
        let v = video(10.0);
        let plan = build_plan(&[red_car_query()], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let clock_b1 = Clock::new();
        execute_plan(
            &plan,
            &v,
            &zoo,
            &clock_b1,
            &ExecConfig {
                batch_size: 1,
                ..ExecConfig::default()
            },
        )
        .unwrap();
        let clock_b16 = Clock::new();
        execute_plan(
            &plan,
            &v,
            &zoo,
            &clock_b16,
            &ExecConfig {
                batch_size: 16,
                ..ExecConfig::default()
            },
        )
        .unwrap();
        assert!(
            clock_b16.virtual_ms() < clock_b1.virtual_ms(),
            "batched execution must be cheaper: {} vs {}",
            clock_b16.virtual_ms(),
            clock_b1.virtual_ms()
        );
    }

    #[test]
    fn reuse_reduces_model_invocations() {
        let zoo = ModelZoo::standard();
        let v = video(30.0);
        // Intrinsic annotations (the §4.2 user opt-in) enable memoization.
        let q = Query::builder("RedCarIntrinsic")
            .vobj("car", library::vehicle_schema_intrinsic())
            .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
            .build()
            .unwrap();
        let plan = build_plan(&[q], &zoo, &PlanOptions::vqpy_default()).unwrap();

        let clock_on = Clock::new();
        let on = execute_plan(
            &plan,
            &v,
            &zoo,
            &clock_on,
            &ExecConfig {
                enable_intrinsic_reuse: true,
                ..ExecConfig::default()
            },
        )
        .unwrap();

        let clock_off = Clock::new();
        let off = execute_plan(
            &plan,
            &v,
            &zoo,
            &clock_off,
            &ExecConfig {
                enable_intrinsic_reuse: false,
                ..ExecConfig::default()
            },
        )
        .unwrap();

        let calls_on = clock_on
            .stat("color_detect")
            .map(|s| s.invocations)
            .unwrap_or(0);
        let calls_off = clock_off
            .stat("color_detect")
            .map(|s| s.invocations)
            .unwrap_or(0);
        assert!(
            calls_on * 3 < calls_off,
            "reuse should slash color model calls: {calls_on} vs {calls_off}"
        );
        // Nearly identical frames either way: memoization pins one sample
        // of the per-frame classifier noise, so a handful of borderline
        // frames may flip, but accuracy must not degrade materially.
        let f1 = crate::scoring::f1_frames(&on[0].hit_frame_set(), &off[0].hit_frame_set()).f1;
        assert!(f1 > 0.9, "reuse changed results too much: F1 {f1}");
    }

    #[test]
    fn aggregate_count_distinct_tracks() {
        let zoo = ModelZoo::standard();
        let v = video(20.0);
        let q = Query::builder("CountCars")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::gt("car", "score", 0.5))
            .video_output(Aggregate::CountDistinctTracks {
                alias: "car".into(),
            })
            .build()
            .unwrap();
        let plan = build_plan(&[q], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let clock = Clock::new();
        let results = execute_plan(&plan, &v, &zoo, &clock, &ExecConfig::default()).unwrap();
        let count = results[0].video_value.clone().unwrap().as_i64().unwrap();
        // Roughly the number of distinct vehicles in the scene (tracker
        // fragmentation can inflate slightly; detection misses deflate).
        let scene_vehicles = v
            .scene()
            .unwrap()
            .entities()
            .iter()
            .filter(|e| matches!(e.attrs, vqpy_video::EntityAttrs::Vehicle(_)))
            .count() as i64;
        assert!(count > 0);
        assert!(
            (count as f64) < (scene_vehicles as f64) * 2.5 + 5.0,
            "count {count} vs scene {scene_vehicles}"
        );
    }

    #[test]
    fn per_frame_series_is_recorded_on_request() {
        let zoo = ModelZoo::standard();
        let v = video(5.0);
        let plan = build_plan(&[red_car_query()], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let clock = Clock::new();
        let results = execute_plan(
            &plan,
            &v,
            &zoo,
            &clock,
            &ExecConfig {
                record_per_frame_ms: true,
                ..ExecConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            results[0].metrics.per_frame_ms.len() as u64,
            results[0].metrics.frames_total
        );
        assert!(results[0].metrics.per_frame_ms.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn shared_execution_matches_individual_results() {
        let zoo = ModelZoo::standard();
        let v = video(20.0);
        let q_red = red_car_query();
        let q_black = Query::builder("BlackCar")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "black"))
            .build()
            .unwrap();

        // Individually.
        let c1 = Clock::new();
        let plan_red =
            build_plan(&[Arc::clone(&q_red)], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let red_alone = execute_plan(&plan_red, &v, &zoo, &c1, &ExecConfig::default()).unwrap();
        let plan_black =
            build_plan(&[Arc::clone(&q_black)], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let black_alone = execute_plan(&plan_black, &v, &zoo, &c1, &ExecConfig::default()).unwrap();

        // Shared.
        let c2 = Clock::new();
        let plan_shared = build_plan(
            &[Arc::clone(&q_red), Arc::clone(&q_black)],
            &zoo,
            &PlanOptions::vqpy_default(),
        )
        .unwrap();
        let shared = execute_plan(&plan_shared, &v, &zoo, &c2, &ExecConfig::default()).unwrap();

        assert_eq!(shared[0].hit_frame_set(), red_alone[0].hit_frame_set());
        assert_eq!(shared[1].hit_frame_set(), black_alone[0].hit_frame_set());
        // Sharing the detector must be cheaper than running twice.
        assert!(
            c2.virtual_ms() < c1.virtual_ms() * 0.75,
            "shared {} vs individual {}",
            c2.virtual_ms(),
            c1.virtual_ms()
        );
    }
}
