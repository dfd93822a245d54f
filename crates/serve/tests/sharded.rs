//! Sharded equivalence suite: the event-driven sharded
//! [`StreamSupervisor`] must serve every stream an event sequence
//! **byte-identical** to the same stream served alone on a bare
//! [`StreamServer`] and run to the end (no supervisor, no shards, no
//! batcher), across a streams × shards grid that includes the degenerate
//! corners (one shard for everything; more shards than streams), with and
//! without the shared cross-stream batcher, paced and unpaced.
//!
//! The seeded [`DeterministicScheduler`] harness driving a bare
//! [`StreamServer`] on a virtual clock is checked against the same solo
//! reference. Its interleaving seed comes from `VQPY_SHARD_SEED`
//! (default 1), so CI replays the suite under several fixed seeds —
//! identity must hold for *any* seed, which is the point: scheduling
//! order is free, served results are not.

use std::sync::Arc;
use vqpy_core::frontend::{library, predicate::Pred};
use vqpy_core::{Query, VqpySession};
use vqpy_models::ModelZoo;
use vqpy_serve::{
    BatcherConfig, DeterministicScheduler, PaceMode, ServeConfig, ServeEvent, ServeSession,
    ShardConfig, StreamSupervisor, SupervisorConfig,
};
use vqpy_video::source::SyntheticVideo;
use vqpy_video::{presets, Scene};

/// Interleaving seed; CI replays the suite under several values.
fn shard_seed() -> u64 {
    std::env::var("VQPY_SHARD_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn video(seed: u64, seconds: f64) -> SyntheticVideo {
    SyntheticVideo::new(Scene::generate(presets::jackson(), seed, seconds))
}

fn color_query(name: &str, color: &str) -> Arc<Query> {
    Query::builder(name)
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", color))
        .frame_output(&[("car", "track_id"), ("car", "bbox")])
        .build()
        .unwrap()
}

fn collect_events(sub: vqpy_serve::Subscription) -> Vec<ServeEvent> {
    let mut events = Vec::new();
    while let Some(e) = sub.recv() {
        events.push(e);
    }
    events
}

/// The reference: each video seed served alone on a bare [`StreamServer`]
/// and run to the end; returns each stream's full event sequence.
fn solo_events(seeds: impl IntoIterator<Item = u64>, seconds: f64) -> Vec<Vec<ServeEvent>> {
    seeds
        .into_iter()
        .map(|seed| {
            let session = Arc::new(VqpySession::new(ModelZoo::standard()));
            let server = session.serve(ServeConfig::default());
            let stream = server.open_stream(Arc::new(video(seed, seconds)));
            let sub = server.attach(stream, color_query("RedCar", "red")).unwrap();
            server.run_to_end(stream).unwrap();
            collect_events(sub.into_inner())
        })
        .collect()
}

/// Serves `n` streams (video seeds `100..100+n`) on the sharded
/// supervisor with an explicit shard budget.
fn sharded_events(n: usize, shards: usize, mut config: SupervisorConfig) -> Vec<Vec<ServeEvent>> {
    config.serve.shards = shards;
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let supervisor = StreamSupervisor::new(session, config);
    let mut streams = Vec::new();
    for i in 0..n {
        let (stream, subs) = supervisor
            .add_stream(
                Arc::new(video(100 + i as u64, 3.0)),
                PaceMode::Unpaced,
                &[color_query("RedCar", "red")],
            )
            .unwrap();
        streams.push((stream, subs));
    }
    let events: Vec<Vec<ServeEvent>> = streams
        .into_iter()
        .map(|(stream, subs)| {
            supervisor.join_stream(stream).unwrap();
            subs.into_iter().flat_map(collect_events).collect()
        })
        .collect();
    // Sanity of the new observability surface while we are here: the
    // shard pool was spawned at the requested budget and did the work.
    let loads = supervisor.shard_loads();
    assert_eq!(loads.len(), shards, "one load row per shard");
    assert!(
        loads.iter().map(|l| l.steps).sum::<u64>() > 0,
        "shards executed steps: {loads:?}"
    );
    events
}

/// The core grid: every (streams, shards) cell — including shards=1
/// (everything multiplexed onto one worker) and shards > streams (idle
/// shards) — serves event sequences byte-identical to the solo
/// reference's.
#[test]
fn sharded_matches_solo_across_streams_by_shards_grid() {
    let seed = shard_seed();
    for &(n, shards) in &[(1usize, 1usize), (3, 1), (4, 2), (2, 8)] {
        let expected = solo_events(100..100 + n as u64, 3.0);
        let got = sharded_events(n, shards, SupervisorConfig::default());
        assert_eq!(got.len(), expected.len());
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                g, e,
                "stream {i} diverged at grid cell streams={n} shards={shards} \
                 (VQPY_SHARD_SEED={seed})"
            );
        }
    }
}

/// The shared cross-stream batcher preserves the equivalence: coalesced
/// physical batches fill from whichever streams are runnable across
/// shards, but per-stream event sequences stay byte-identical to the
/// unbatched solo reference's.
#[test]
fn shared_batcher_preserves_equivalence_under_sharding() {
    let config = || SupervisorConfig {
        batcher: Some(BatcherConfig::default()),
        ..SupervisorConfig::default()
    };
    let expected = solo_events(100..103, 3.0);
    let got = sharded_events(3, 2, config());
    assert_eq!(got, expected, "batched sharded run diverged from solo");
}

/// Paced streams pace identically under sharding: the same events as
/// the unpaced solo reference, and no shed at 5x the native frame rate.
#[test]
fn paced_streams_match_solo_on_one_shard() {
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let config = SupervisorConfig {
        serve: ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        ..SupervisorConfig::default()
    };
    let sup = StreamSupervisor::new(session, config);
    let streams: Vec<_> = (0..2)
        .map(|i| {
            sup.add_stream(
                Arc::new(video(120 + i, 2.0)),
                PaceMode::Fps(150.0),
                &[color_query("RedCar", "red")],
            )
            .unwrap()
        })
        .collect();
    let mut sharded = Vec::new();
    let mut shed = Vec::new();
    for (stream, subs) in streams {
        sup.join_stream(stream).unwrap();
        shed.push(sup.stream_snapshot(stream).unwrap().ticks_shed);
        sharded.push(
            subs.into_iter()
                .flat_map(collect_events)
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(
        sharded,
        solo_events(120..122, 2.0),
        "paced event sequences diverged"
    );
    assert_eq!(shed, vec![0, 0], "sharded run must not shed at 5x pace");
}

/// The deterministic harness drives a bare server on a virtual clock:
/// the same `VQPY_SHARD_SEED` replays the exact step interleaving, every
/// seed produces event sequences byte-identical to the solo reference,
/// and per-stream step counts are seed-independent.
#[test]
fn seeded_harness_replays_and_matches_the_oracle() {
    let n = 4usize;
    let shards = 2usize;
    let expected = solo_events(100..100 + n as u64, 3.0);

    let run = |seed: u64| -> (Vec<u64>, Vec<Vec<ServeEvent>>) {
        let session = Arc::new(VqpySession::new(ModelZoo::standard()));
        let server = session.serve(ServeConfig::default());
        let mut sched = DeterministicScheduler::new(
            shards,
            ShardConfig {
                frames_per_step: server.frames_per_step().max(1),
                ..ShardConfig::default()
            },
            seed,
        );
        let mut streams = Vec::new();
        for i in 0..n {
            let stream = server.open_stream(Arc::new(video(100 + i as u64, 3.0)));
            let sub = server.attach(stream, color_query("RedCar", "red")).unwrap();
            sched.add_stream(stream, PaceMode::Unpaced);
            streams.push((stream, sub));
        }
        let mut order = Vec::new();
        sched.run(|stream, _fire_us| {
            order.push(stream);
            server.step(stream).unwrap().finished
        });
        // Finishing a stream closes its channels; no explicit close, so
        // the sequences stay comparable with the solo reference's.
        let events = streams
            .into_iter()
            .map(|(_, sub)| collect_events(sub.into_inner()))
            .collect();
        (order, events)
    };

    let base = shard_seed();
    let (order_a, events_a) = run(base);
    let (order_b, events_b) = run(base);
    assert_eq!(order_a, order_b, "same seed must replay the interleaving");
    assert_eq!(events_a, events_b);
    for seed in [base, base + 1, base + 2] {
        let (_, events) = run(seed);
        assert_eq!(
            events, expected,
            "harness-served events diverged from the solo reference at seed {seed}"
        );
    }
}
