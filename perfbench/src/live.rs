//! `live_paced`: an open loop of jackson streams paced at the preset's
//! native 15 fps, multiplexed by a `StreamSupervisor` onto one shard per
//! hardware thread, on the Virtual clock. Each stream carries RedCar
//! (intrinsic, memoized colour) and StraightCar (non-memoizable
//! direction).

use crate::drain::{check_hits, Drain, Due};
use crate::layers;
use crate::stats::{cpu_seconds, median, quantile};
use crate::trace::{instrument_zoo, recorder, ObservedVideo};
use crate::{gauge, ties};
use crate::{hardware_threads, scene_seed, session_config, Measured, Params};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vqpy_bench::workloads::{red_car_query, straight_car_query};
use vqpy_core::{ExecConfig, FrameHit, Query, VqpySession};
use vqpy_models::{Clock, ClockMode, ModelZoo};
use vqpy_obs::Telemetry;
use vqpy_serve::{
    Backpressure, PaceMode, ServeConfig, StreamId, StreamSupervisor, SupervisorConfig,
};
use vqpy_video::{presets, Scene, SyntheticVideo, VideoSource};

pub const WHY: &str = "open loop of paced jackson streams (RedCar + StraightCar) on the Virtual \
clock: shard scheduler, timer wheel, demux and rendering under concurrency, with model cost \
free on the host";

/// Concurrent paced streams: about half of what two hardware threads
/// sustain without shedding.
const STREAMS: u64 = 192;
/// Frames per engine batch, the engine's default; one batch per step, so
/// a step runs once its eighth frame has arrived.
const BATCH: usize = 8;
/// Set-ups per run, half before the measured section and half after it;
/// the median is reported. A set-up takes a few milliseconds while the
/// host's speed drifts over seconds, so set-ups at both ends of the run
/// sample the host at two moments rather than one.
const SETUPS: usize = 16;
/// Whether each of the stream's queries (RedCar, StraightCar) reads the
/// colour model, memoized per object.
const READS_COLOUR: [bool; 2] = [true, false];

fn session(zoo: &Arc<ModelZoo>) -> Arc<VqpySession> {
    Arc::new(VqpySession::with_clock(
        Arc::clone(zoo),
        session_config(ExecConfig {
            batch_size: BATCH,
            ..ExecConfig::default()
        }),
        Arc::new(Clock::with_mode(ClockMode::Virtual)),
    ))
}

struct Setup {
    videos: Vec<Arc<dyn VideoSource>>,
    supervisor: StreamSupervisor,
    plan_ms: f64,
}

/// Builds a set-up and records its time and plan time in `times`.
fn timed_setup(
    p: &Params,
    zoo: &Arc<ModelZoo>,
    queries: &[Arc<Query>],
    telemetry: &Telemetry,
    times: &mut Vec<(f64, f64)>,
) -> Setup {
    let t = Instant::now();
    let made = setup(p, zoo, queries, telemetry);
    times.push((t.elapsed().as_secs_f64(), made.plan_ms));
    made
}

fn setup(p: &Params, zoo: &Arc<ModelZoo>, queries: &[Arc<Query>], telemetry: &Telemetry) -> Setup {
    let videos: Vec<Arc<dyn VideoSource>> = (0..STREAMS)
        .map(|k| {
            let v: Arc<dyn VideoSource> = Arc::new(SyntheticVideo::new(Scene::generate(
                presets::jackson(),
                scene_seed(p.seed, k),
                p.seconds,
            )));
            ObservedVideo::wrap(v) as Arc<dyn VideoSource>
        })
        .collect();
    let session = session(zoo);
    let t = Instant::now();
    session
        .plan_for(queries, &*videos[0])
        .expect("live queries plan");
    let plan_ms = t.elapsed().as_secs_f64() * 1e3;
    let supervisor = StreamSupervisor::new(
        session,
        SupervisorConfig {
            serve: ServeConfig {
                shards: hardware_threads(),
                channel_capacity: 4096,
                // A slow consumer must never stall a shard; anything it
                // would miss is counted as dropped.
                backpressure: Backpressure::Drop,
                batches_per_step: 1,
                telemetry: telemetry.clone(),
                ..ServeConfig::default()
            },
            ..SupervisorConfig::default()
        },
    );
    // On the Virtual clock the server stamps its spans with simulated
    // time; put them back on wall time, so `step` spans measure how long
    // a step took on the host.
    let epoch = Instant::now();
    telemetry
        .tracer()
        .set_time_source(move || epoch.elapsed().as_micros() as u64);
    Setup {
        videos,
        supervisor,
        plan_ms,
    }
}

pub fn measure(p: &Params) -> Measured {
    let zoo = vqpy_models::ModelZoo::standard();
    if p.traced {
        instrument_zoo(&zoo);
    }
    let queries = [red_car_query(), straight_car_query()];
    let telemetry = if p.traced {
        Telemetry::with_span_capacity(1 << 18)
    } else {
        Telemetry::disabled()
    };
    let mut times = Vec::new();
    for _ in 1..SETUPS / 2 {
        drop(timed_setup(p, &zoo, &queries, &telemetry, &mut times));
    }
    let Setup {
        videos, supervisor, ..
    } = timed_setup(p, &zoo, &queries, &telemetry, &mut times);
    let fps = f64::from(videos[0].fps());

    // The generator: streams come online evenly over the first second, so
    // cameras are not phase-aligned; every due time is stamped here, from
    // the planned start, not from when the server got round to the stream.
    let stagger = Duration::from_secs_f64(1.0 / STREAMS as f64);
    let t0 = Instant::now() + Duration::from_millis(5);
    let planned: Vec<Instant> = (0..STREAMS).map(|k| t0 + stagger * k as u32).collect();
    let mut drain = Drain::default();
    let mut ids: Vec<StreamId> = Vec::new();
    let mut add_late_ms = Vec::new();
    let mut queue_depth_max = 0u64;
    let mut next_poll = t0;
    recorder().set_on(p.traced);
    let (cpu0, gauge0) = (cpu_seconds(), gauge::cpu_s());
    loop {
        let now = Instant::now();
        while ids.len() < videos.len() && planned[ids.len()] <= now {
            let k = ids.len();
            add_late_ms.push(Instant::now().duration_since(planned[k]).as_secs_f64() * 1e3);
            let video = Arc::clone(&videos[k]);
            let (id, subs) = recorder()
                .span("serve.add_stream", video.video_id(), 0, 1, || {
                    supervisor.add_stream(video, PaceMode::Fps(fps as f32), &queries)
                })
                .expect("permissive policy admits every stream");
            ids.push(id);
            drain.add(
                Due::Paced {
                    start: planned[k],
                    fps,
                },
                subs,
            );
        }
        let events = drain.sweep();
        gauge::tick();
        if p.traced && now >= next_poll {
            let depth = supervisor.shard_loads().iter().map(|l| l.queue_depth).max();
            queue_depth_max = queue_depth_max.max(depth.unwrap_or(0));
            next_poll = now + Duration::from_millis(10);
        }
        if ids.len() == videos.len() && drain.done() {
            break;
        }
        if events == 0 {
            let wake = Instant::now() + Duration::from_micros(200);
            let wake = planned.get(ids.len()).map_or(wake, |&t| wake.min(t));
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
        }
    }
    // The program's CPU time: the consumer's and the gauge's are the
    // benchmark's.
    let cpu_s = cpu_seconds() - cpu0 - drain.cpu_s - (gauge::cpu_s() - gauge0);
    recorder().set_on(false);
    let wall_s = drain
        .last_end
        .expect("streams ended")
        .duration_since(t0)
        .as_secs_f64();
    let spans = recorder().take();

    let mut out = Measured::default();
    let mut exec = Vec::new();
    for &id in &ids {
        if let Err(e) = supervisor.join_stream(id) {
            out.mismatches.push(format!("stream {id} failed: {e}"));
        }
        exec.push(
            supervisor
                .server()
                .exec_metrics(id)
                .expect("joined stream has metrics"),
        );
    }
    let load = supervisor.load();
    let steps: Vec<u64> = supervisor.shard_loads().iter().map(|l| l.steps).collect();
    let frames = supervisor.server().aggregate().frames_total;
    let clock = supervisor.server().session().clock();
    let (sim_ms, clock_stats) = (clock.virtual_ms(), clock.labeled_stats());
    let step_spans = telemetry.tracer().spans();
    supervisor.shutdown();
    for _ in 0..SETUPS / 2 {
        drop(timed_setup(p, &zoo, &queries, &telemetry, &mut times));
    }
    let (setup_s, plan_ms): (Vec<f64>, Vec<f64>) = times.into_iter().unzip();

    // Output check: every stream's served hits against an offline
    // execute of the same queries over the same video, with the colour
    // model's ties logged.
    let lossy = load.dropped > 0;
    let reference_zoo = vqpy_models::ModelZoo::standard();
    ties::audit_colour(&reference_zoo);
    let served: Vec<&[Vec<FrameHit>]> = (0..videos.len()).map(|k| drain.hits(k)).collect();
    let checked: Vec<(Option<String>, f64, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..hardware_threads())
            .map(|w| {
                let (videos, queries, served, zoo) = (&videos, &queries, &served, &reference_zoo);
                scope.spawn(move || {
                    let session = session(zoo);
                    let mut checked = Vec::new();
                    for k in (w..videos.len()).step_by(hardware_threads()) {
                        let reference = session
                            .execute_shared(queries, &*videos[k])
                            .expect("live queries execute offline");
                        for (q, r) in reference.iter().enumerate() {
                            let (mut bad, f1) = check_hits(&served[k][q], &r.frame_hits, lossy);
                            let excused = if READS_COLOUR[q] {
                                ties::excuse(&*videos[k], &mut bad, true)
                            } else {
                                0
                            };
                            let bad = bad.first().map(|first| {
                                format!(
                                    "stream {k}: served {} differs from offline on {} frames no colour tie explains (first: frame {first})",
                                    r.query_name,
                                    bad.len()
                                )
                            });
                            checked.push((bad, f1, excused));
                        }
                    }
                    checked
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference worker"))
            .collect()
    });
    let f1 = checked.iter().map(|c| c.1).sum::<f64>() / checked.len() as f64;
    let excused: u64 = checked.iter().map(|c| c.2).sum();
    out.mismatches
        .extend(checked.into_iter().filter_map(|c| c.0));

    let hits = drain.latencies_ms.len() as u64;
    let decode_failures: u64 = exec.iter().map(|m| m.decode_failures).sum();
    let offered: u64 = videos.iter().map(|v| v.frame_count()).sum();
    out.attempted = offered + load.delivered + load.dropped;
    out.failed = load.ticks_shed * BATCH as u64 + load.dropped + decode_failures + drain.faults;
    out.busy_per_unit = cpu_s / frames as f64;
    let lat = &drain.latencies_ms;
    let e = &mut out.e2e;
    e.set("setup_s", median(&setup_s));
    e.set("sim_ms_per_frame", sim_ms / frames as f64);
    e.set("answer_f1", f1);
    let late = drain.generator_late_p99(&add_late_ms);
    out.notes = vec![
        format!(
            "input: {STREAMS} jackson streams x {} frames at {fps} fps (offered {:.0} frames/s), {} shards",
            videos[0].frame_count(),
            STREAMS as f64 * fps,
            hardware_threads()
        ),
        format!(
            "delivery from due time over {} hits: p50 {:.2} ms, p99 {:.2} ms, p99.9 {:.2} ms; generator late p99 {late:.3} ms",
            lat.len(),
            quantile(lat, 0.5),
            quantile(lat, 0.99),
            quantile(lat, 0.999)
        ),
        format!(
            "failed: {} shed ticks, {} dropped events, {decode_failures} decode failures, {} worker faults",
            load.ticks_shed, load.dropped, drain.faults
        ),
        ties::note(excused),
    ];

    layers::host(
        &mut out,
        frames as f64 / wall_s,
        cpu_s * 1e6 / frames as f64,
        lat,
    );
    let l = &mut out.layers;
    layers::from_spans(&spans, frames, l);
    layers::from_clock(&clock_stats, frames, l);
    layers::from_exec(&exec, hits, frames * queries.len() as u64, l);
    layers::from_step_spans(&step_spans, l);
    l.set("serve.queue_depth_max", queue_depth_max as f64);
    l.set("serve.ticks_shed", load.ticks_shed as f64);
    l.set("serve.dropped_events", load.dropped as f64);
    l.set(
        "serve.shard_step_imbalance",
        layers::shard_imbalance(&steps),
    );
    l.set("bench.generator_late_ms_p99", late);
    layers::common(out.failed, out.attempted, lat, &plan_ms, l);
    l.set("bench.tie_excused_frames", excused as f64);
    out.spans = spans;
    out
}
