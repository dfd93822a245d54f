//! Per-layer metrics shared by the workloads: read from the benchmark's
//! own spans and from counters the layers already expose.

use crate::stats::{median, quantile, ratio, Metrics};
use crate::trace::{self_times, Span, MODEL_PREFIX, VIDEO_FRAME};
use crate::{gauge, Measured};
use std::collections::HashMap;
use vqpy_core::ExecMetrics;
use vqpy_models::ChargeStat;
use vqpy_obs::SpanRecord;

/// Span name the workloads put around `VqpySession::execute`.
pub const CORE_EXECUTE: &str = "core.execute";

/// Clock labels reported as `models.calls.<label>` / `models.sim_ms.<label>`.
const LABELS: &[(&str, &str, &str)] = &[
    (
        "video_decode",
        "models.calls.video_decode",
        "models.sim_ms.video_decode",
    ),
    ("tracker", "models.calls.tracker", "models.sim_ms.tracker"),
    (
        "native_prop",
        "models.calls.native_prop",
        "models.sim_ms.native_prop",
    ),
    (
        "dispatch",
        "models.calls.dispatch",
        "models.sim_ms.dispatch",
    ),
    ("yolox", "models.calls.yolox", "models.sim_ms.yolox"),
    (
        "cityflow_tracks",
        "models.calls.cityflow_tracks",
        "models.sim_ms.cityflow_tracks",
    ),
    (
        "color_detect",
        "models.calls.color_detect",
        "models.sim_ms.color_detect",
    ),
    (
        "vtype_detect",
        "models.calls.vtype_detect",
        "models.sim_ms.vtype_detect",
    ),
    (
        "direction_model",
        "models.calls.direction_model",
        "models.sim_ms.direction_model",
    ),
    (
        "store_read",
        "models.calls.store_read",
        "models.sim_ms.store_read",
    ),
];

/// Video, model and core-execute numbers from the benchmark's spans,
/// normalised by the `frames` the timed section processed.
pub fn from_spans(spans: &[Span], frames: u64, m: &mut Metrics) {
    let frames = frames as f64;
    let self_ns = self_times(spans);
    let (mut render_ns, mut renders) = (0u64, 0u64);
    let (mut model_ns, mut calls, mut items) = (0u64, 0u64, 0u64);
    let mut exec_self_ns = 0u64;
    for s in spans {
        if s.name == VIDEO_FRAME {
            render_ns += s.dur_ns();
            renders += 1;
        } else if s.name.starts_with(MODEL_PREFIX) {
            model_ns += self_ns[&s.id];
            calls += 1;
            items += s.items;
        } else if s.name == CORE_EXECUTE {
            exec_self_ns += self_ns[&s.id];
        }
    }
    m.set(
        "video.render_us_per_frame",
        ratio(render_ns as f64 / 1e3, renders as f64),
    );
    m.set(
        "video.frames_rendered_per_frame",
        ratio(renders as f64, frames),
    );
    m.set(
        "models.host_us_per_call",
        ratio(model_ns as f64 / 1e3, calls as f64),
    );
    m.set("models.items_per_call", ratio(items as f64, calls as f64));
    if exec_self_ns > 0 {
        m.set(
            "core.exec_self_us_per_frame",
            ratio(exec_self_ns as f64 / 1e3, frames),
        );
    }
}

/// `models.calls.*` and `models.sim_ms.*` per frame from the clock's
/// per-label charge statistics.
pub fn from_clock(stats: &HashMap<String, ChargeStat>, frames: u64, m: &mut Metrics) {
    for &(label, calls, sim) in LABELS {
        let s = stats.get(label).copied().unwrap_or_default();
        m.set(calls, ratio(s.invocations as f64, frames as f64));
        m.set(sim, ratio(s.units, frames as f64));
    }
}

/// Device occupancy from per-device busy ms: busy share of the timed
/// wall time, imbalance (busiest device over the mean, minus 1: 0 when
/// balanced, 1 when one of two devices does everything), and the busy ms
/// themselves.
pub fn from_devices(busy: &[f64], wall_s: f64, m: &mut Metrics) {
    if busy.is_empty() {
        return;
    }
    let total: f64 = busy.iter().sum();
    let max = busy.iter().copied().fold(f64::MIN, f64::max);
    m.set(
        "models.device_busy_share",
        ratio(total, wall_s * 1e3 * busy.len() as f64),
    );
    m.set(
        "models.device_imbalance",
        ratio(max * busy.len() as f64, total) - 1.0,
    );
    for (name, ms) in ["models.device_busy_ms.d0", "models.device_busy_ms.d1"]
        .into_iter()
        .zip(busy)
    {
        m.set(name, *ms);
    }
}

/// Reuse-cache numbers summed over executions, and the share of
/// `query_frames` (frames times queries evaluated on them) that were hits.
pub fn from_exec<'a>(
    runs: impl IntoIterator<Item = &'a ExecMetrics>,
    hits: u64,
    query_frames: u64,
    m: &mut Metrics,
) {
    let (mut rh, mut rm) = (0u64, 0u64);
    for r in runs {
        rh += r.reuse.hits;
        rm += r.reuse.misses;
    }
    m.set("core.reuse_hits", rh as f64);
    m.set("core.reuse_misses", rm as f64);
    m.set("core.reuse_hit_rate", ratio(rh as f64, (rh + rm) as f64));
    m.set(
        "core.filter_pass_ratio",
        ratio(hits as f64, query_frames as f64),
    );
}

/// Shard step latency percentiles from the `shard`/`step` spans the serve
/// layer already emits when its tracer is on.
pub fn from_step_spans(spans: &[SpanRecord], m: &mut Metrics) {
    let steps: Vec<f64> = spans
        .iter()
        .filter(|s| s.cat == "shard" && s.name == "step")
        .map(|s| s.dur_us as f64 / 1e3)
        .collect();
    m.set("serve.step_ms_p50", quantile(&steps, 0.5));
    m.set("serve.step_ms_p99", quantile(&steps, 0.99));
}

/// The numbers every workload reports: the share of attempted operations
/// that failed, the delivery tail and its sample count, and the median
/// plan compilation time of the run's set-ups.
pub fn common(failed: u64, attempted: u64, latencies_ms: &[f64], plan_ms: &[f64], m: &mut Metrics) {
    m.set("bench.failed_ratio", ratio(failed as f64, attempted as f64));
    m.set("bench.delivery_p50_ms", quantile(latencies_ms, 0.5));
    m.set("bench.delivery_p99_ms", quantile(latencies_ms, 0.99));
    m.set("bench.delivery_p999_ms", quantile(latencies_ms, 0.999));
    m.set("bench.delivery_samples", latencies_ms.len() as f64);
    m.set("core.plan_ms", median(plan_ms));
}

/// The run's host figures. Host seconds drift with the shared host's speed
/// (see `gauge`), so throughput, CPU per frame and delivery times are
/// per-layer figures, printed but not gated; the gated end-to-end figure is
/// the program's CPU per frame counted in gauge runs. Call it once per
/// measured pass, after the timed section: it restarts the gauge.
pub fn host(out: &mut Measured, frames_per_s: f64, cpu_us_per_frame: f64, latencies_ms: &[f64]) {
    let (gauge_us, runs) = gauge::take();
    out.e2e
        .set("cpu_cost_per_frame", ratio(cpu_us_per_frame, gauge_us));
    out.layers.set("bench.frames_per_s", frames_per_s);
    out.layers.set("bench.cpu_us_per_frame", cpu_us_per_frame);
    out.layers.set("bench.gauge_us", gauge_us);
    out.notes.push(format!(
        "host: {frames_per_s:.1} frames/s, {cpu_us_per_frame:.2} us CPU per frame, delivery p50 {:.2} ms, p99 {:.2} ms; gauge run {gauge_us:.2} us (median of {runs})",
        quantile(latencies_ms, 0.5),
        quantile(latencies_ms, 0.99)
    ));
}

/// Busiest over least busy shard by steps executed, minus 1.
pub fn shard_imbalance(steps: &[u64]) -> f64 {
    let max = steps.iter().copied().max().unwrap_or(0) as f64;
    let min = steps.iter().copied().min().unwrap_or(0) as f64;
    ratio(max, min) - 1.0
}
