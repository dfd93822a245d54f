//! `offline_cvip`: the Fig. 13 / Table 1 batch job. Q1–Q5, each vanilla
//! and with intrinsic annotations, run sequentially on the Virtual clock
//! over CityFlow-style videos with dataset tracks; the handcrafted CVIP
//! pipeline is the answer reference.

use crate::layers::{self, CORE_EXECUTE};
use crate::stats::{cpu_seconds, median, Metrics};
use crate::trace::{instrument_zoo, recorder, ObservedVideo};
use crate::{gauge, ties};
use crate::{hardware_threads, scene_seed, session_config, Measured, Params};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vqpy_baselines::{run_cvip_with, CvipQuery};
use vqpy_bench::workloads::{
    bench_zoo, cityflow_video, table1_queries, triple_query, CITYFLOW_TRACKS,
};
use vqpy_core::scoring::f1_frames;
use vqpy_core::{ExecConfig, ExecMode, Query, QueryResult, VqpySession};
use vqpy_models::{ChargeStat, Clock, ModelZoo};
use vqpy_video::VideoSource;

pub const WHY: &str = "closed batch job (Fig. 13 / Table 1): Q1-Q5 vanilla and annotated, \
sequential, Virtual clock, CVIP as answer reference; rendering, planner, operators, reuse cache \
and tracker do the work while serve, batcher and store sit idle";

/// CityFlow-style videos per pass and their length (10 fps). Many
/// scenes, so the vehicle mix, and with it every metric, varies little
/// from seed to seed.
const VIDEOS: u64 = 30;
const VIDEO_S: f64 = 24.0;
/// Passes over the whole query set; more run while time remains.
const MIN_REPS: usize = 2;
/// Set-ups timed besides each pass's own, half before the passes and half
/// after them; `setup_s` is the median of all of them.
const EXTRA_SETUPS: usize = 8;

struct Case {
    label: &'static str,
    cvip: CvipQuery,
    annotated: bool,
    query: Arc<Query>,
}

fn cases() -> Vec<Case> {
    table1_queries()
        .into_iter()
        .flat_map(|(label, cvip)| {
            [false, true].map(|annotated| Case {
                label,
                query: triple_query(
                    &format!("{label}_{}", if annotated { "ann" } else { "vanilla" }),
                    &cvip,
                    annotated,
                ),
                cvip: cvip.clone(),
                annotated,
            })
        })
        .collect()
}

fn session(zoo: &Arc<ModelZoo>, exec_mode: ExecMode) -> VqpySession {
    VqpySession::with_config(
        Arc::clone(zoo),
        session_config(ExecConfig {
            exec_mode,
            ..ExecConfig::default()
        }),
    )
}

struct Setup {
    videos: Vec<Arc<ObservedVideo>>,
    session: VqpySession,
    plan_ms: f64,
    setup_s: f64,
}

/// Builds the pass's videos and session and plans every case.
fn setup(p: &Params, zoo: &Arc<ModelZoo>, cases: &[Case]) -> Setup {
    let t = Instant::now();
    let videos: Vec<Arc<ObservedVideo>> = (0..VIDEOS)
        .map(|k| ObservedVideo::wrap(Arc::new(cityflow_video(VIDEO_S, scene_seed(p.seed, k)))))
        .collect();
    let session = session(zoo, ExecMode::Sequential);
    let tp = Instant::now();
    for c in cases {
        session
            .plan_for(std::slice::from_ref(&c.query), &*videos[0])
            .expect("table 1 queries plan");
    }
    Setup {
        videos,
        session,
        plan_ms: tp.elapsed().as_secs_f64() * 1e3,
        setup_s: t.elapsed().as_secs_f64(),
    }
}

struct Rep {
    setup_s: f64,
    plan_ms: f64,
    exec_s: f64,
    cpu_s: f64,
    frames: u64,
    sim_ms: f64,
    clock: HashMap<String, ChargeStat>,
    videos: Vec<Arc<ObservedVideo>>,
    /// Video-major, then in `cases()` order.
    results: Vec<Arc<QueryResult>>,
    latencies_ms: Vec<f64>,
}

fn rep(p: &Params, zoo: &Arc<ModelZoo>, cases: &[Case]) -> Rep {
    let Setup {
        videos,
        session,
        plan_ms,
        setup_s,
    } = setup(p, zoo, cases);

    recorder().set_on(p.traced);
    let (cpu0, gauge0) = (cpu_seconds(), gauge::cpu_s());
    let (mut exec_s, mut frames) = (0.0, 0);
    let mut results = Vec::new();
    let mut latencies_ms = Vec::new();
    for v in &videos {
        for c in cases {
            let t = Instant::now();
            let r = recorder()
                .span(CORE_EXECUTE, v.video_id(), 0, v.frame_count(), || {
                    session.execute(&c.query, &**v)
                })
                .expect("table 1 queries execute");
            let done = Instant::now();
            exec_s += done.duration_since(t).as_secs_f64();
            frames += v.frame_count();
            // A frame is due when execute pulls it, and its answer arrives
            // when execute returns.
            latencies_ms.extend((0..v.frame_count()).filter_map(|f| {
                v.pulled_at(f)
                    .map(|due| done.duration_since(due).as_secs_f64() * 1e3)
            }));
            results.push(r);
            gauge::tick();
        }
    }
    let cpu_s = cpu_seconds() - cpu0 - (gauge::cpu_s() - gauge0);
    recorder().set_on(false);
    Rep {
        setup_s,
        plan_ms,
        exec_s,
        cpu_s,
        frames,
        sim_ms: session.clock().virtual_ms(),
        clock: session.clock().labeled_stats(),
        videos,
        results,
        latencies_ms,
    }
}

/// One case's hit frames and CVIP's, keyed by `(video k, frame)`.
type HitSets = (BTreeSet<u64>, BTreeSet<u64>);

/// What the checks of one video found.
struct VideoCheck {
    mismatches: Vec<String>,
    /// Per case, the hit and CVIP frame sets keyed by `(video k, frame)`.
    sets: Vec<HitSets>,
    /// Differing frames a logged colour tie explains.
    excused: u64,
}

/// Fails a check on the frames of `differing` no logged colour tie
/// explains; counts the others into `excused`.
fn check_frames(
    what: String,
    video: &dyn VideoSource,
    mut differing: BTreeSet<u64>,
    memoized: bool,
    excused: &mut u64,
    mismatches: &mut Vec<String>,
) {
    *excused += ties::excuse(video, &mut differing, memoized);
    if let Some(first) = differing.first() {
        mismatches.push(format!(
            "{what} on {} frames no colour tie explains (first: frame {first})",
            differing.len()
        ));
    }
}

/// Checks one video's answers against CVIP and the pipelined executor.
fn check_video(
    k: usize,
    first: &Rep,
    cases: &[Case],
    zoo: &Arc<ModelZoo>,
    pipelined: &VqpySession,
) -> VideoCheck {
    let v = &first.videos[k];
    let key = |f: &u64| k as u64 * 1_000_000 + f;
    let mut out = VideoCheck {
        mismatches: Vec::new(),
        sets: Vec::new(),
        excused: 0,
    };
    for (c, r) in cases.iter().zip(&first.results[k * cases.len()..]) {
        let cvip = run_cvip_with(&**v, zoo, &Clock::new(), &c.cvip, CITYFLOW_TRACKS)
            .expect("CVIP models are in the zoo");
        let hits = r.hit_frame_set();
        if !c.annotated {
            check_frames(
                format!("video {k}: {} vanilla differs from CVIP", c.label),
                &**v,
                hits.symmetric_difference(&cvip.hit_frames)
                    .copied()
                    .collect(),
                false,
                &mut out.excused,
                &mut out.mismatches,
            );
        } else {
            let piped = pipelined
                .execute(&c.query, &**v)
                .expect("table 1 queries execute pipelined");
            check_frames(
                format!(
                    "video {k}: {} annotated differs between sequential and pipelined",
                    c.label
                ),
                &**v,
                ties::differing_frames(&piped.frame_hits, &r.frame_hits),
                true,
                &mut out.excused,
                &mut out.mismatches,
            );
        }
        out.sets.push((
            hits.iter().map(key).collect(),
            cvip.hit_frames.iter().map(key).collect(),
        ));
    }
    out
}

pub fn measure(p: &Params) -> Measured {
    let zoo = bench_zoo();
    if p.traced {
        instrument_zoo(&zoo);
    }
    let cases = cases();
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    let mut setup_s = Vec::new();
    for _ in 0..EXTRA_SETUPS / 2 {
        setup_s.push(setup(p, &zoo, &cases).setup_s);
    }
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        reps.push(rep(p, &zoo, &cases));
    }
    for _ in 0..EXTRA_SETUPS / 2 {
        setup_s.push(setup(p, &zoo, &cases).setup_s);
    }
    setup_s.extend(reps.iter().map(|r| r.setup_s));
    let spans = recorder().take();

    let mut out = Measured::default();
    let first = &reps[0];

    // Output checks against the CVIP reference and the pipelined executor,
    // videos spread over the hardware threads, with the colour model's
    // ties logged. F1 is pooled per case over all videos: a (video, frame)
    // pair is one decision.
    ties::audit_colour(&zoo);
    let pipelined = session(&zoo, ExecMode::Pipelined { workers: 2 });
    let per_video: Vec<VideoCheck> = std::thread::scope(|scope| {
        let tasks: Vec<_> = (0..hardware_threads())
            .map(|w| {
                let (first, cases, zoo, pipelined) = (first, &cases, &zoo, &pipelined);
                scope.spawn(move || {
                    (w..first.videos.len())
                        .step_by(hardware_threads())
                        .map(|k| check_video(k, first, cases, zoo, pipelined))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        tasks
            .into_iter()
            .flat_map(|t| t.join().expect("check worker"))
            .collect()
    });
    let mut excused = 0;
    let mut pooled = vec![(BTreeSet::new(), BTreeSet::new()); cases.len()];
    for check in per_video {
        out.mismatches.extend(check.mismatches);
        excused += check.excused;
        for (acc, (hits, cvip)) in pooled.iter_mut().zip(check.sets) {
            acc.0.extend(hits);
            acc.1.extend(cvip);
        }
    }
    // Every pass must give the first pass's answers. Passes render the
    // same scenes, so the ties logged on the first pass's videos apply.
    for (i, r) in reps.iter().enumerate().skip(1) {
        for (j, (a, b)) in first.results.iter().zip(&r.results).enumerate() {
            check_frames(
                format!("pass {i}: {} answers differ from pass 0", a.query_name),
                &*first.videos[j / cases.len()],
                ties::differing_frames(&a.frame_hits, &b.frame_hits),
                cases[j % cases.len()].annotated,
                &mut excused,
                &mut out.mismatches,
            );
        }
    }
    let f1: Vec<f64> = pooled.iter().map(|(h, c)| f1_frames(h, c).f1).collect();

    let frames: u64 = reps.iter().map(|r| r.frames).sum();
    let latencies: Vec<f64> = reps.iter().flat_map(|r| r.latencies_ms.clone()).collect();
    let e: &mut Metrics = &mut out.e2e;
    e.set("setup_s", median(&setup_s));
    // Throughput and CPU are pooled over every pass: a run has only a few
    // passes, and the lower of two is a noisier figure than their total.
    let exec_s: f64 = reps.iter().map(|r| r.exec_s).sum();
    let cpu_s: f64 = reps.iter().map(|r| r.cpu_s).sum();
    e.set("sim_ms_per_frame", first.sim_ms / first.frames as f64);
    e.set("answer_f1", f1.iter().sum::<f64>() / f1.len() as f64);

    out.attempted = reps.iter().map(|r| r.results.len() as u64).sum();
    out.failed = reps
        .iter()
        .flat_map(|r| &r.results)
        .map(|r| r.metrics.decode_failures)
        .sum();
    out.busy_per_unit = exec_s / frames as f64;
    let hits: u64 = reps
        .iter()
        .flat_map(|r| &r.results)
        .map(|r| r.frame_hits.len() as u64)
        .sum();
    out.notes =
        vec![
            format!(
            "input: {VIDEOS} cityflow videos x {} frames (scene seeds {:?}), {} queries, {} passes",
            first.videos[0].frame_count(),
            (0..VIDEOS).map(|k| scene_seed(p.seed, k)).collect::<Vec<_>>(),
            cases.len(),
            reps.len()
        ),
            format!(
                "delivery samples (frames): {}; F1 per case vs CVIP, pooled over videos: {:?}",
                latencies.len(),
                f1.iter()
                    .map(|x| (x * 100.0).round() / 100.0)
                    .collect::<Vec<_>>()
            ),
            ties::note(excused),
        ];

    layers::host(
        &mut out,
        frames as f64 / exec_s,
        cpu_s * 1e6 / frames as f64,
        &latencies,
    );
    let l = &mut out.layers;
    layers::from_spans(&spans, frames, l);
    layers::from_clock(&first.clock, first.frames, l);
    layers::from_exec(
        reps.iter()
            .flat_map(|r| r.results.iter().map(|q| &q.metrics)),
        hits,
        frames,
        l,
    );
    let plan_ms: Vec<f64> = reps.iter().map(|r| r.plan_ms).collect();
    layers::common(out.failed, out.attempted, &latencies, &plan_ms, l);
    l.set("bench.tie_excused_frames", excused as f64);
    out.spans = spans;
    out
}
