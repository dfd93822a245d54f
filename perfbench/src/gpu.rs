//! `gpu_pool`: a closed loop of 4 unpaced jackson streams running
//! StraightCar through pipelined engines, a shared `ModelBatcher`, and a
//! Latency clock with a pool of two simulated devices.

use crate::drain::{check_hits, Drain, Due};
use crate::stats::{cpu_seconds, median, ratio};
use crate::trace::{instrument_zoo, recorder, ObservedVideo};
use crate::{gauge, layers};
use crate::{hardware_threads, reference_session, scene_seed, session_config, Measured, Params};
use std::sync::Arc;
use std::time::Instant;
use vqpy_bench::workloads::straight_car_query;
use vqpy_core::{ExecConfig, ExecMetrics, ExecMode, VqpySession};
use vqpy_models::{Clock, ClockMode, DeviceModel, ModelZoo, PlacementPolicy};
use vqpy_obs::Telemetry;
use vqpy_serve::{
    Backpressure, BatcherConfig, BatcherStats, PaceMode, ServeConfig, StreamSupervisor,
    SupervisorConfig,
};
use vqpy_video::{presets, Scene, SyntheticVideo, VideoSource};

pub const WHY: &str = "closed loop of 4 unpaced jackson streams (StraightCar) through pipelined \
engines, the shared batcher and a 2-device Latency-clock pool: the only workload where the \
accelerator model, batcher, enrich stage and pipelined executor set the pace";

const STREAMS: u64 = 4;
const DEVICES: usize = 2;
const BATCH: usize = 2;
const BATCHES_PER_STEP: u64 = 4;
/// Jobs per run; each is sized to take its share of the run at the
/// nominal throughput below.
const JOBS: usize = 4;
/// Frames per second the whole job nominally sustains; it only sizes the
/// input.
const NOMINAL_FPS: f64 = 18.0;

struct Job {
    setup_s: f64,
    plan_ms: f64,
    wall_s: f64,
    cpu_s: f64,
    frames: u64,
    sim_ms: f64,
    busy_ms: Vec<f64>,
    batcher: BatcherStats,
    exec: Vec<ExecMetrics>,
    steps: Vec<u64>,
    step_spans: Vec<vqpy_obs::SpanRecord>,
    latencies_ms: Vec<f64>,
    late_ms: f64,
    faults: u64,
    dropped: u64,
    clock: std::collections::HashMap<String, vqpy_models::ChargeStat>,
    mismatches: Vec<String>,
    f1: Vec<f64>,
}

fn job(p: &Params, zoo: &Arc<ModelZoo>, index: usize, video_s: f64) -> Job {
    let query = straight_car_query();
    let telemetry = if p.traced {
        Telemetry::with_span_capacity(1 << 16)
    } else {
        Telemetry::disabled()
    };
    let t = Instant::now();
    let videos: Vec<Arc<ObservedVideo>> = (0..STREAMS)
        .map(|k| {
            let v: Arc<dyn VideoSource> = Arc::new(SyntheticVideo::new(Scene::generate(
                presets::jackson(),
                scene_seed(p.seed, 1000 * index as u64 + k),
                video_s,
            )));
            ObservedVideo::wrap(v)
        })
        .collect();
    let clock = Arc::new(
        Clock::with_mode(ClockMode::Latency)
            .with_device(DeviceModel::Devices(DEVICES))
            .with_placement(PlacementPolicy::LeastLoaded),
    );
    let session = Arc::new(VqpySession::with_clock(
        Arc::clone(zoo),
        session_config(ExecConfig {
            batch_size: BATCH,
            exec_mode: ExecMode::Pipelined { workers: 2 },
            ..ExecConfig::default()
        }),
        clock,
    ));
    let tp = Instant::now();
    session
        .plan_for(std::slice::from_ref(&query), &*videos[0])
        .expect("StraightCar plans");
    let plan_ms = tp.elapsed().as_secs_f64() * 1e3;
    let supervisor = StreamSupervisor::new(
        Arc::clone(&session),
        SupervisorConfig {
            serve: ServeConfig {
                shards: hardware_threads(),
                channel_capacity: 4096,
                backpressure: Backpressure::Drop,
                batches_per_step: BATCHES_PER_STEP,
                telemetry: telemetry.clone(),
                ..ServeConfig::default()
            },
            batcher: Some(BatcherConfig::default()),
            ..SupervisorConfig::default()
        },
    );
    let setup_s = t.elapsed().as_secs_f64();

    recorder().set_on(p.traced);
    let (cpu0, gauge0) = (cpu_seconds(), gauge::cpu_s());
    let t0 = Instant::now();
    let mut drain = Drain::default();
    let mut ids = Vec::new();
    for v in &videos {
        let (id, subs) = recorder()
            .span("serve.add_stream", v.video_id(), 0, 1, || {
                supervisor.add_stream(
                    Arc::clone(v) as Arc<dyn VideoSource>,
                    PaceMode::Unpaced,
                    std::slice::from_ref(&query),
                )
            })
            .expect("permissive policy admits every stream");
        ids.push(id);
        drain.add(Due::Pulled(Arc::clone(v)), subs);
    }
    drain.run_to_end();
    let wall_s = drain
        .last_end
        .expect("streams ended")
        .duration_since(t0)
        .as_secs_f64();
    // The program's CPU time: the consumer's and the gauge's are the
    // benchmark's.
    let cpu_s = cpu_seconds() - cpu0 - drain.cpu_s - (gauge::cpu_s() - gauge0);
    recorder().set_on(false);

    let mut mismatches = Vec::new();
    let mut exec = Vec::new();
    for &id in &ids {
        if let Err(e) = supervisor.join_stream(id) {
            mismatches.push(format!("stream {id} failed: {e}"));
        }
        exec.push(
            supervisor
                .server()
                .exec_metrics(id)
                .expect("joined stream has metrics"),
        );
    }
    let load = supervisor.load();
    let steps = supervisor.shard_loads().iter().map(|l| l.steps).collect();
    let batcher = supervisor.batcher_stats().unwrap_or_default();
    let frames = supervisor.server().aggregate().frames_total;
    supervisor.shutdown();

    // Output check: served hits against an offline execute of the same
    // query and video.
    let reference = reference_session(ModelZoo::standard());
    let mut f1 = Vec::new();
    for (k, v) in videos.iter().enumerate() {
        let r = reference
            .execute(&query, &**v)
            .expect("StraightCar executes");
        let (bad, score) = check_hits(&drain.hits(k)[0], &r.frame_hits, load.dropped > 0);
        f1.push(score);
        if !bad.is_empty() {
            mismatches.push(format!(
                "job {index} stream {k}: served StraightCar differs from offline"
            ));
        }
    }
    Job {
        setup_s,
        plan_ms,
        wall_s,
        cpu_s,
        frames,
        sim_ms: session.clock().virtual_ms(),
        busy_ms: session
            .clock()
            .device_stats()
            .iter()
            .map(|d| d.busy_ms)
            .collect(),
        batcher,
        exec,
        steps,
        step_spans: telemetry.tracer().spans(),
        late_ms: drain.generator_late_p99(&[]),
        latencies_ms: std::mem::take(&mut drain.latencies_ms),
        faults: drain.faults,
        dropped: load.dropped + load.ticks_shed,
        clock: session.clock().labeled_stats(),
        mismatches,
        f1,
    }
}

pub fn measure(p: &Params) -> Measured {
    let zoo = ModelZoo::standard();
    if p.traced {
        instrument_zoo(&zoo);
    }
    let job_s = p.seconds / JOBS as f64;
    let video_s = (NOMINAL_FPS * job_s / STREAMS as f64 / 15.0).max(0.5);
    let jobs: Vec<Job> = (0..JOBS).map(|i| job(p, &zoo, i, video_s)).collect();
    let spans = recorder().take();

    let mut out = Measured::default();
    let frames: u64 = jobs.iter().map(|j| j.frames).sum();
    let wall_s: f64 = jobs.iter().map(|j| j.wall_s).sum();
    let per = |f: fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    let lat: Vec<f64> = jobs.iter().flat_map(|j| j.latencies_ms.clone()).collect();
    let f1: Vec<f64> = jobs.iter().flat_map(|j| j.f1.clone()).collect();
    let e = &mut out.e2e;
    // Rates are pooled over the jobs: four short jobs' median swings with
    // the content of whichever scenes it lands on.
    let total = |f: fn(&Job) -> f64| jobs.iter().map(f).sum::<f64>();
    e.set("setup_s", per(|j| j.setup_s));
    e.set("sim_ms_per_frame", total(|j| j.sim_ms) / frames as f64);
    e.set("answer_f1", f1.iter().sum::<f64>() / f1.len() as f64);

    out.attempted = frames;
    out.failed = jobs.iter().map(|j| j.dropped + j.faults).sum();
    out.busy_per_unit = wall_s / frames as f64;
    out.mismatches = jobs.iter().flat_map(|j| j.mismatches.clone()).collect();
    let mut busy = vec![0.0; DEVICES];
    for j in &jobs {
        for (b, x) in busy.iter_mut().zip(&j.busy_ms) {
            *b += x;
        }
    }
    out.notes = vec![
        format!(
            "input: {JOBS} jobs x {STREAMS} jackson streams x {} frames, pipelined(2), batch {BATCH} x {BATCHES_PER_STEP} per step, {DEVICES} devices, {} shards",
            jobs[0].frames / STREAMS,
            hardware_threads()
        ),
        format!("device busy ms per device: {busy:?} over {wall_s:.3} s of jobs"),
        format!("delivery samples (hits): {}", lat.len()),
    ];

    layers::host(
        &mut out,
        frames as f64 / wall_s,
        total(|j| j.cpu_s) * 1e6 / frames as f64,
        &lat,
    );
    let l = &mut out.layers;
    layers::from_spans(&spans, frames, l);
    layers::from_clock(&jobs[0].clock, jobs[0].frames, l);
    layers::from_devices(&busy, wall_s, l);
    layers::from_exec(
        jobs.iter().flat_map(|j| &j.exec),
        lat.len() as u64,
        frames,
        l,
    );
    let step_spans: Vec<_> = jobs.iter().flat_map(|j| j.step_spans.clone()).collect();
    layers::from_step_spans(&step_spans, l);
    l.set(
        "serve.shard_step_imbalance",
        per(|j| layers::shard_imbalance(&j.steps)),
    );
    l.set("serve.dropped_events", out.failed as f64);
    let sum = |f: fn(&BatcherStats) -> f64| jobs.iter().map(|j| f(&j.batcher)).sum::<f64>();
    l.set(
        "serve.batcher.coalesced.detect",
        ratio(
            sum(|b| b.detect.requests as f64),
            sum(|b| b.detect.physical_batches as f64),
        ),
    );
    l.set(
        "serve.batcher.coalesced.classify",
        ratio(
            sum(|b| b.classify.requests as f64),
            sum(|b| b.classify.physical_batches as f64),
        ),
    );
    l.set(
        "serve.batcher.physical_batches",
        sum(|b| b.physical_batches as f64),
    );
    l.set("bench.generator_late_ms_p99", per(|j| j.late_ms));
    let plan_ms: Vec<f64> = jobs.iter().map(|j| j.plan_ms).collect();
    layers::common(out.failed, out.attempted, &lat, &plan_ms, l);
    out.spans = spans;
    out
}
