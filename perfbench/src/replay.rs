//! `replay_backfill`: record one jackson stream live with a `FrameStore`
//! (writes), then attach a different query, SpeedingCar, from the store's
//! epoch and replay the stored history (reads), on the Virtual clock.

use crate::drain::{check_hits, Drain, Due};
use crate::stats::{cpu_seconds, median, ratio};
use crate::trace::{instrument_zoo, recorder, ObservedVideo};
use crate::{gauge, layers};
use crate::{reference_session, scene_seed, session_config, Measured, Params};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vqpy_bench::workloads::{red_car_query, speeding_car_query};
use vqpy_core::{ExecConfig, ExecMetrics, FrameHit, Query, VqpySession};
use vqpy_models::{ChargeStat, ModelZoo};
use vqpy_serve::{AttachSpec, ServeConfig, ServeResult, ServeSession, StepOutcome, StreamServer};
use vqpy_store::{FrameStore, StoreConfig};
use vqpy_video::{presets, Scene, SyntheticVideo, VideoSource};

pub const WHY: &str = "record one jackson stream live into the frame store, then replay a \
different query (SpeedingCar) from the store's epoch, Virtual clock: the only workload where the \
store's write and read paths both run";

/// Length of the recorded stream (15 fps).
const VIDEO_S: f64 = 60.0;
const BATCHES_PER_STEP: u64 = 4;
/// Scenes the passes take turns on: pass `i` records scene `i % SCENES`,
/// so a run averages over several scenes' content, not one. Every scene
/// runs at least once.
const SCENES: usize = 8;

/// Store directories live under the working directory, which is the root
/// of the checkout the benchmark runs from.
fn tmp_root() -> PathBuf {
    PathBuf::from(".perfbench_tmp").join(std::process::id().to_string())
}

struct Rep {
    setup_s: f64,
    plan_ms: f64,
    record_s: f64,
    replay_s: f64,
    cpu_s: f64,
    frames: u64,
    sim_ms: f64,
    replayed: Vec<FrameHit>,
    latencies_ms: Vec<f64>,
    faults: u64,
    exec: ExecMetrics,
    scene: usize,
    clock: HashMap<String, ChargeStat>,
    store: [u64; 5],
    replay_model_calls: u64,
    video: Arc<ObservedVideo>,
    speeding: Arc<Query>,
}

/// Calls `step` until the stream finishes and takes each step's hits as
/// the step returns: a closed loop on one thread, so a hit's delivery
/// time runs from when its frame was pulled to when the step that
/// processed it handed it over, with no wake-up of another thread in it.
/// Each step is a `name` span.
fn drive(
    drain: &mut Drain,
    name: &'static str,
    video: &ObservedVideo,
    mut step: impl FnMut() -> ServeResult<StepOutcome>,
) {
    loop {
        let out = recorder()
            .span(name, video.video_id(), 0, 1, &mut step)
            .expect("serving step");
        drain.sweep();
        gauge::tick();
        if out.finished {
            break;
        }
        if out.frames == 0 {
            std::thread::yield_now();
        }
    }
    drain.run_to_end();
}

fn model_calls(stats: &HashMap<String, ChargeStat>, zoo: &ModelZoo) -> u64 {
    zoo.names()
        .iter()
        .filter_map(|n| stats.get(n))
        .map(|s| s.invocations)
        .sum()
}

fn rep(p: &Params, zoo: &Arc<ModelZoo>, index: usize) -> Rep {
    let dir = tmp_root().join(format!("rep-{index}"));
    let _ = std::fs::remove_dir_all(&dir);
    // Traced passes record from the start, so the store open is a span.
    recorder().set_on(p.traced);
    let t = Instant::now();
    let store = recorder()
        .span("store.open", 0, 0, 1, || {
            FrameStore::open(StoreConfig {
                background_eviction: false,
                ..StoreConfig::new(&dir)
            })
        })
        .expect("open frame store");
    let k = index % SCENES;
    let scene = Scene::generate(presets::jackson(), scene_seed(p.seed, k as u64), VIDEO_S);
    let threshold = scene.preset.speeding_threshold_px_per_frame() as f64;
    let video = ObservedVideo::wrap(Arc::new(SyntheticVideo::new(scene)));
    let frames = video.frame_count();
    let (red, speeding) = (red_car_query(), speeding_car_query(threshold));
    let session = Arc::new(VqpySession::with_config(
        Arc::clone(zoo),
        session_config(ExecConfig::default()),
    ));
    let tp = Instant::now();
    for q in [&red, &speeding] {
        session
            .plan_for(std::slice::from_ref(q), &*video)
            .expect("replay queries plan");
    }
    let plan_ms = tp.elapsed().as_secs_f64() * 1e3;
    let server: StreamServer = session.serve(ServeConfig {
        store: Some(Arc::clone(&store)),
        batches_per_step: BATCHES_PER_STEP,
        ..ServeConfig::default()
    });
    let setup_s = t.elapsed().as_secs_f64();

    let (cpu0, gauge0) = (cpu_seconds(), gauge::cpu_s());
    let stream = server.open_stream(Arc::clone(&video) as Arc<dyn VideoSource>);
    let live = server
        .attach(stream, Arc::clone(&red))
        .expect("attach RedCar")
        .into_inner();
    let mut recorded = Drain::default();
    recorded.add(Due::Pulled(Arc::clone(&video)), vec![live]);
    let t_rec = Instant::now();
    drive(&mut recorded, "serve.step", &video, || server.step(stream));
    let record_s = t_rec.elapsed();

    let before = model_calls(&session.clock().labeled_stats(), zoo);
    let sub = server
        .attach(
            stream,
            AttachSpec::new(Arc::clone(&speeding)).from(store.epoch()),
        )
        .expect("attach SpeedingCar from the epoch");
    let replay = sub.replay().expect("a from-past attach replays");
    let mut replayed = Drain::default();
    replayed.add(Due::Pulled(Arc::clone(&video)), vec![sub.into_inner()]);
    let t_rep = Instant::now();
    drive(&mut replayed, "serve.replay_step", &video, || {
        server.replay_step(replay)
    });
    let replay_s = t_rep.elapsed();
    // The program's CPU time: the consumers' own is the benchmark's.
    let cpu_s = cpu_seconds() - cpu0 - recorded.cpu_s - replayed.cpu_s - (gauge::cpu_s() - gauge0);
    recorder().set_on(false);

    let clock = session.clock().labeled_stats();
    let m = store.metrics();
    let mut latencies_ms = recorded.latencies_ms.clone();
    latencies_ms.extend(&replayed.latencies_ms);
    let out = Rep {
        setup_s,
        plan_ms,
        record_s: record_s.as_secs_f64(),
        replay_s: replay_s.as_secs_f64(),
        cpu_s,
        frames,
        sim_ms: session.clock().virtual_ms(),
        replayed: replayed.hits(0)[0].clone(),
        latencies_ms,
        faults: recorded.faults + replayed.faults,
        exec: server.exec_metrics(stream).expect("stream metrics"),
        scene: k,
        replay_model_calls: model_calls(&clock, zoo) - before,
        clock,
        store: [
            m.bytes.load(Ordering::Relaxed),
            m.appended_frames.load(Ordering::Relaxed),
            m.segments.load(Ordering::Relaxed),
            m.replay_hits.load(Ordering::Relaxed),
            m.corrupt_segments.load(Ordering::Relaxed),
        ],
        video,
        speeding,
    };
    drop(server);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

pub fn measure(p: &Params) -> Measured {
    let zoo = ModelZoo::standard();
    if p.traced {
        instrument_zoo(&zoo);
    }
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    let mut reps = Vec::new();
    while reps.len() < SCENES || Instant::now() < deadline {
        reps.push(rep(p, &zoo, reps.len()));
    }
    let _ = std::fs::remove_dir_all(tmp_root());
    // Only removed when no other run is using it.
    let _ = std::fs::remove_dir(tmp_root().parent().expect("tmp root has a parent"));
    let spans = recorder().take();

    // Output check: each pass's replayed hits against an offline execute
    // of SpeedingCar over the same scene.
    let mut out = Measured::default();
    let reference = reference_session(ModelZoo::standard());
    let expected: Vec<Vec<FrameHit>> = reps[..SCENES]
        .iter()
        .map(|r| {
            reference
                .execute(&r.speeding, &*r.video)
                .expect("SpeedingCar executes offline")
                .frame_hits
                .clone()
        })
        .collect();
    let mut f1 = Vec::new();
    for (i, r) in reps.iter().enumerate() {
        let expected = &expected[r.scene];
        let (bad, score) = check_hits(&r.replayed, expected, false);
        f1.push(score);
        if !bad.is_empty() {
            out.mismatches.push(format!(
                "pass {i} (scene {}): replayed SpeedingCar has {} hits, offline {}",
                r.scene,
                r.replayed.len(),
                expected.len()
            ));
        }
    }

    // Rates and percentiles are pooled over every pass: the run's frames
    // over the run's time, and one percentile over all the run's hits, so
    // no single pass, and no single host stall, sets them.
    let sum = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).sum::<f64>();
    let frames = sum(&|r| 2.0 * r.frames as f64);
    let lat: Vec<f64> = reps.iter().flat_map(|r| r.latencies_ms.clone()).collect();
    let once = &reps[..SCENES];
    let e = &mut out.e2e;
    e.set(
        "setup_s",
        median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
    );
    // Simulated cost is deterministic per scene: every scene once.
    e.set(
        "sim_ms_per_frame",
        once.iter().map(|r| r.sim_ms).sum::<f64>()
            / once.iter().map(|r| 2 * r.frames).sum::<u64>() as f64,
    );
    e.set("answer_f1", f1.iter().sum::<f64>() / f1.len() as f64);

    let first = &reps[0];
    out.attempted = frames as u64;
    out.failed = reps.iter().map(|r| r.faults + r.exec.decode_failures).sum();
    out.busy_per_unit = sum(&|r| r.record_s + r.replay_s) / frames;
    let record_fps = sum(&|r| r.frames as f64) / sum(&|r| r.record_s);
    let replay_fps = sum(&|r| r.frames as f64) / sum(&|r| r.replay_s);
    out.notes = vec![
        format!(
            "input: {SCENES} jackson scenes x {} frames (scene seeds {:?}), each recorded then replayed in turn, {} passes",
            first.frames,
            (0..SCENES as u64).map(|k| scene_seed(p.seed, k)).collect::<Vec<_>>(),
            reps.len()
        ),
        format!(
            "record {record_fps:.1} frames/s, replay {replay_fps:.1} frames/s; delivery samples (hits): {}",
            lat.len()
        ),
    ];

    // Recorded plus replayed frames over the two phases' wall time.
    layers::host(
        &mut out,
        frames / sum(&|r| r.record_s + r.replay_s),
        sum(&|r| r.cpu_s) * 1e6 / frames,
        &lat,
    );
    let l = &mut out.layers;
    layers::from_spans(&spans, frames as u64, l);
    layers::from_clock(&first.clock, 2 * first.frames, l);
    // Two queries: RedCar over the recorded frames, SpeedingCar over the
    // replayed ones.
    layers::from_exec(
        reps.iter().map(|r| &r.exec),
        lat.len() as u64,
        frames as u64,
        l,
    );
    let [bytes, appended, segments, replay_hits, corrupt] = first.store;
    l.set(
        "store.bytes_per_frame",
        ratio(bytes as f64, appended as f64),
    );
    l.set("store.appended_frames", appended as f64);
    l.set("store.segments", segments as f64);
    l.set(
        "store.replay_hit_ratio",
        ratio(
            replay_hits as f64,
            (replay_hits + first.replay_model_calls) as f64,
        ),
    );
    l.set("store.corrupt_segments", corrupt as f64);
    l.set("store.record_frames_per_s", record_fps);
    l.set("store.replay_frames_per_s", replay_fps);
    let plan_ms: Vec<f64> = reps.iter().map(|r| r.plan_ms).collect();
    layers::common(out.failed, out.attempted, &lat, &plan_ms, l);
    out.spans = spans;
    out
}
