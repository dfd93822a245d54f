//! The repository's benchmark: four named workloads over the VQPy
//! workspace, end-to-end metrics from untraced runs, per-layer metrics
//! from a separate traced run, and output checks that fail the run on a
//! mismatch.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline_cvip|live_paced|gpu_pool|replay_backfill> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` in this
//! directory for what each metric means and which layer metric should
//! move which end-to-end metric.

mod drain;
mod gauge;
mod gpu;
mod layers;
mod live;
mod offline;
mod replay;
mod stats;
mod ties;
mod trace;

use stats::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use vqpy_core::{ExecConfig, SessionConfig, VqpySession};
use vqpy_models::ModelZoo;

/// End-to-end metrics: every workload reports every one, from an
/// untraced run. `(name, unit)`; `sim_ms` is simulated cost charged to
/// the model clock, not measured time, and `gauge` counts runs of the
/// benchmark's reference kernel (see `gauge.rs`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_cost_per_frame", "gauge"),
    ("sim_ms_per_frame", "sim_ms"),
    ("answer_f1", "ratio"),
];

/// Per-layer metrics, from the traced run. A layer a workload leaves idle
/// reads 0 there. `(name, unit)`.
const PER_LAYER: &[(&str, &str)] = &[
    ("video.render_us_per_frame", "us"),
    ("video.frames_rendered_per_frame", "ratio"),
    ("models.calls.video_decode", "count"),
    ("models.calls.tracker", "count"),
    ("models.calls.native_prop", "count"),
    ("models.calls.dispatch", "count"),
    ("models.calls.yolox", "count"),
    ("models.calls.cityflow_tracks", "count"),
    ("models.calls.color_detect", "count"),
    ("models.calls.vtype_detect", "count"),
    ("models.calls.direction_model", "count"),
    ("models.calls.store_read", "count"),
    ("models.sim_ms.video_decode", "sim_ms"),
    ("models.sim_ms.tracker", "sim_ms"),
    ("models.sim_ms.native_prop", "sim_ms"),
    ("models.sim_ms.dispatch", "sim_ms"),
    ("models.sim_ms.yolox", "sim_ms"),
    ("models.sim_ms.cityflow_tracks", "sim_ms"),
    ("models.sim_ms.color_detect", "sim_ms"),
    ("models.sim_ms.vtype_detect", "sim_ms"),
    ("models.sim_ms.direction_model", "sim_ms"),
    ("models.sim_ms.store_read", "sim_ms"),
    ("models.host_us_per_call", "us"),
    ("models.items_per_call", "count"),
    ("models.device_busy_share", "ratio"),
    ("models.device_imbalance", "ratio"),
    ("models.device_busy_ms.d0", "sim_ms"),
    ("models.device_busy_ms.d1", "sim_ms"),
    ("core.plan_ms", "ms"),
    ("core.exec_self_us_per_frame", "us"),
    ("core.reuse_hit_rate", "ratio"),
    ("core.reuse_hits", "count"),
    ("core.reuse_misses", "count"),
    ("core.filter_pass_ratio", "ratio"),
    ("serve.step_ms_p50", "ms"),
    ("serve.step_ms_p99", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.ticks_shed", "count"),
    ("serve.dropped_events", "count"),
    ("serve.shard_step_imbalance", "ratio"),
    ("serve.batcher.coalesced.detect", "ratio"),
    ("serve.batcher.coalesced.classify", "ratio"),
    ("serve.batcher.physical_batches", "count"),
    ("store.bytes_per_frame", "B"),
    ("store.appended_frames", "count"),
    ("store.segments", "count"),
    ("store.replay_hit_ratio", "ratio"),
    ("store.corrupt_segments", "count"),
    ("store.record_frames_per_s", "1/s"),
    ("store.replay_frames_per_s", "1/s"),
    ("obs.trace_overhead", "ratio"),
    ("bench.frames_per_s", "1/s"),
    ("bench.cpu_us_per_frame", "us"),
    ("bench.delivery_p50_ms", "ms"),
    ("bench.delivery_p99_ms", "ms"),
    ("bench.gauge_us", "us"),
    ("bench.failed_ratio", "ratio"),
    ("bench.generator_late_ms_p99", "ms"),
    ("bench.delivery_p999_ms", "ms"),
    ("bench.delivery_samples", "count"),
    ("bench.tie_excused_frames", "count"),
];

/// What one workload is and why the benchmark runs it.
struct Workload {
    name: &'static str,
    why: &'static str,
    measure: fn(&Params) -> Measured,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "offline_cvip",
        why: offline::WHY,
        measure: offline::measure,
    },
    Workload {
        name: "live_paced",
        why: live::WHY,
        measure: live::measure,
    },
    Workload {
        name: "gpu_pool",
        why: gpu::WHY,
        measure: gpu::measure,
    },
    Workload {
        name: "replay_backfill",
        why: replay::WHY,
        measure: replay::measure,
    },
];

/// Hardware threads available to this process: the shard count of the
/// served workloads and the thread budget of the reference checks.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Scene seed of video `k` for workload seed `seed`.
pub fn scene_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        >> 16
}

/// Session settings of every workload: the result cache is off, so each
/// pass executes rather than answering from an earlier one.
pub fn session_config(exec: ExecConfig) -> SessionConfig {
    SessionConfig {
        exec,
        enable_result_cache: false,
        ..SessionConfig::default()
    }
}

/// A fresh sequential session over `zoo`: the offline reference that
/// served and replayed answers are checked against.
pub fn reference_session(zoo: Arc<ModelZoo>) -> VqpySession {
    VqpySession::with_config(zoo, session_config(ExecConfig::default()))
}

/// Inputs of one measured pass.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    /// Wrap the layers and record spans during the timed section.
    pub traced: bool,
}

/// Everything one pass of a workload produced.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layers: Metrics,
    /// Busy time per unit of work, compared between the untraced and the
    /// traced pass for `obs.trace_overhead`.
    pub busy_per_unit: f64,
    /// One-line facts about the pass: input size, sample counts.
    pub notes: Vec<String>,
    /// Output-check failures, one line each.
    pub mismatches: Vec<String>,
    pub spans: Vec<trace::Span>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
            },
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Prints one `name value unit` line per metric and returns the JSON
/// `metrics` object. Every declared metric must be present unless
/// `idle_is_zero`, in which case a missing one reads 0.
fn render(declared: &[(&str, &str)], got: &Metrics, idle_is_zero: bool) -> String {
    let mut cells = Vec::new();
    for &(name, unit) in declared {
        let value = match got.0.get(name) {
            Some(v) => *v,
            None if idle_is_zero => 0.0,
            None => panic!("workload did not report {name}"),
        };
        let value = if value.is_finite() { value } else { 0.0 };
        println!("  {name:<36} {value:>16.6} {unit}");
        cells.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(extra) = got
        .0
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        panic!("workload reported undeclared metric {extra}");
    }
    format!("{{{}}}", cells.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "workload {} (seed {}, {} s{}): {}",
        workload.name,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        workload.why
    );
    println!("host: {} hardware threads", hardware_threads());

    let seconds = args.seconds as f64;
    let (outcome, metrics_json) = if args.trace {
        // The untraced half gives the baseline the overhead is read
        // against; every per-layer number comes from the traced half.
        let half = |traced| Params {
            seed: args.seed,
            seconds: seconds / 2.0,
            traced,
        };
        let base = (workload.measure)(&half(false));
        let mut traced = (workload.measure)(&half(true));
        traced.layers.set(
            "obs.trace_overhead",
            stats::ratio(traced.busy_per_unit, base.busy_per_unit) - 1.0,
        );
        let path = PathBuf::from(".perfbench_out")
            .join(format!("spans-{}-{}.jsonl", workload.name, args.seed));
        match trace::write_spans(&path, &traced.spans) {
            Ok(()) => println!("{} spans written to {}", traced.spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        for n in &traced.notes {
            println!("  {n}");
        }
        println!("per-layer metrics:");
        let json = render(PER_LAYER, &traced.layers, true);
        traced.attempted += base.attempted;
        traced.failed += base.failed;
        traced.mismatches.extend(base.mismatches);
        (traced, json)
    } else {
        let m = (workload.measure)(&Params {
            seed: args.seed,
            seconds,
            traced: false,
        });
        for n in &m.notes {
            println!("  {n}");
        }
        println!("end-to-end metrics:");
        let json = render(END_TO_END, &m.e2e, false);
        (m, json)
    };
    for m in &outcome.mismatches {
        println!("OUTPUT MISMATCH: {m}");
    }
    let correct = outcome.mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
