//! Audit of the colour model's tie-break.
//!
//! `PixelBuffer::dominant_rgb_in` takes the modal quantized colour of a
//! crop with `max_by_key` over a `HashMap`. When two quantized colours tie
//! for the mode, the winner depends on the map's per-instance random
//! iteration order, so `ColorClassifier`, and every query that reads
//! `color`, can answer differently for the same crop from one call to the
//! next.
//!
//! The output checks keep this defect visible without letting it decide a
//! run. A decorator around `color_detect` in the zoo the reference answers
//! are computed with logs every call whose crop has a tie between colours
//! that name differently. Two answers may then differ only on frames such
//! a call reaches; any other difference still fails the run. The differing
//! frames the log explains are counted and reported.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::{Arc, Mutex, OnceLock};
use vqpy_core::FrameHit;
use vqpy_models::{Classifier, Clock, Detection, ModelFault, ModelProfile, ModelZoo, Value};
use vqpy_video::{BBox, Frame, NamedColor, PixelBuffer, VideoSource};

/// Zoo name of the colour model.
const COLOUR_MODEL: &str = "color_detect";

/// `(video id, frame, entity)` of every logged tied colour call. False
/// positives, which have no entity, log `u64::MAX`.
fn log() -> &'static Mutex<BTreeSet<(u64, u64, u64)>> {
    static LOG: OnceLock<Mutex<BTreeSet<(u64, u64, u64)>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(BTreeSet::new()))
}

fn lock() -> std::sync::MutexGuard<'static, BTreeSet<(u64, u64, u64)>> {
    log()
        .lock()
        .expect("tie log lock poisoned by a panicking model call")
}

/// Names of the quantized colours that tie for the mode of the crop of
/// `bbox`, quantized and averaged as `dominant_rgb_in` does; more than one
/// name means the colour model's answer depends on its tie-break.
fn tied_names(buf: &PixelBuffer, bbox: &BBox) -> BTreeSet<&'static str> {
    let s = buf.scale() as f32;
    let x1 = (bbox.x1 / s).floor().max(0.0) as u32;
    let y1 = (bbox.y1 / s).floor().max(0.0) as u32;
    let x2 = ((bbox.x2 / s).ceil() as u32).min(buf.width());
    let y2 = ((bbox.y2 / s).ceil() as u32).min(buf.height());
    let mut px: Vec<(u16, [u8; 3])> = (y1..y2)
        .flat_map(|y| (x1..x2).filter_map(move |x| buf.pixel(x, y)))
        .map(|p| {
            let key = ((p[0] as u16 >> 4) << 8) | ((p[1] as u16 >> 4) << 4) | (p[2] as u16 >> 4);
            (key, p)
        })
        .collect();
    px.sort_unstable_by_key(|&(key, _)| key);
    let mut best = 0;
    let mut names = BTreeSet::new();
    for bin in px.chunk_by(|a, b| a.0 == b.0) {
        if bin.len() < best {
            continue;
        }
        if bin.len() > best {
            best = bin.len();
            names.clear();
        }
        let mean =
            |c: usize| (bin.iter().map(|p| p.1[c] as u32).sum::<u32>() / bin.len() as u32) as u8;
        names.insert(NamedColor::nearest([mean(0), mean(1), mean(2)]).as_str());
    }
    names
}

/// `color_detect` with every call that hit a tie logged. It forwards each
/// method, batch methods included, so answers and charged costs are the
/// wrapped model's.
struct AuditedColour {
    inner: Arc<dyn Classifier>,
}

impl AuditedColour {
    fn audit(&self, frame: &Frame, dets: &[Detection], values: &[Value]) {
        for (det, value) in dets.iter().zip(values) {
            let names = tied_names(&frame.pixels, &det.bbox);
            // A call that took the model's confusion path answered from its
            // own seeded draw, not from the tie.
            if names.len() > 1 && value.as_str().is_some_and(|v| names.contains(v)) {
                lock().insert((
                    frame.video_id,
                    frame.index,
                    det.sim_entity.unwrap_or(u64::MAX),
                ));
            }
        }
    }

    fn audit_jobs(&self, jobs: &[(&Frame, &[Detection])], values: &[Vec<Value>]) {
        for ((frame, dets), values) in jobs.iter().zip(values) {
            self.audit(frame, dets, values);
        }
    }
}

impl Classifier for AuditedColour {
    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }
    fn classify(&self, frame: &Frame, det: &Detection, clock: &Clock) -> Value {
        let value = self.inner.classify(frame, det, clock);
        self.audit(
            frame,
            std::slice::from_ref(det),
            std::slice::from_ref(&value),
        );
        value
    }
    fn classify_batch(&self, frame: &Frame, dets: &[Detection], clock: &Clock) -> Vec<Value> {
        let values = self.inner.classify_batch(frame, dets, clock);
        self.audit(frame, dets, &values);
        values
    }
    fn classify_batch_jobs(
        &self,
        jobs: &[(&Frame, &[Detection])],
        clock: &Clock,
    ) -> Vec<Vec<Value>> {
        let values = self.inner.classify_batch_jobs(jobs, clock);
        self.audit_jobs(jobs, &values);
        values
    }
    fn try_classify_batch(
        &self,
        frame: &Frame,
        dets: &[Detection],
        clock: &Clock,
    ) -> Result<Vec<Value>, ModelFault> {
        let values = self.inner.try_classify_batch(frame, dets, clock)?;
        self.audit(frame, dets, &values);
        Ok(values)
    }
    fn try_classify_batch_jobs(
        &self,
        jobs: &[(&Frame, &[Detection])],
        clock: &Clock,
    ) -> Result<Vec<Vec<Value>>, ModelFault> {
        let values = self.inner.try_classify_batch_jobs(jobs, clock)?;
        self.audit_jobs(jobs, &values);
        Ok(values)
    }
}

/// Wraps `zoo`'s colour model in the tie audit. Call it on the zoo the
/// reference answers come from, after any timed section that uses the
/// same zoo, so the audit costs the measured runs nothing.
pub fn audit_colour(zoo: &ModelZoo) {
    let inner = zoo
        .classifier(COLOUR_MODEL)
        .expect("every benchmark zoo has the colour model");
    zoo.register_classifier(Arc::new(AuditedColour { inner }));
}

/// The one-line report of a run's ties: calls logged and differing
/// frames they explained.
pub fn note(excused: u64) -> String {
    format!(
        "colour-model tie-break defect: {} tied calls logged, {excused} differing frames explained by them",
        lock().len()
    )
}

/// Frames on which two answers differ: a frame with hits on one side
/// only, or with different hits on the two sides.
pub fn differing_frames(a: &[FrameHit], b: &[FrameHit]) -> BTreeSet<u64> {
    fn by_frame(hits: &[FrameHit]) -> BTreeMap<u64, Vec<&FrameHit>> {
        let mut m = BTreeMap::<u64, Vec<&FrameHit>>::new();
        for hit in hits {
            m.entry(hit.frame).or_default().push(hit);
        }
        m
    }
    let (a, b) = (by_frame(a), by_frame(b));
    a.keys()
        .chain(b.keys())
        .filter(|f| a.get(f) != b.get(f))
        .copied()
        .collect()
}

/// Drops from `differing` every frame of `video` a logged tied colour call
/// reaches, and returns how many it dropped. A call reaches its own frame;
/// when the query memoizes colour per object it also reaches every later
/// frame its entity is visible on.
pub fn excuse(video: &dyn VideoSource, differing: &mut BTreeSet<u64>, memoized: bool) -> u64 {
    if differing.is_empty() {
        return 0;
    }
    let id = video.video_id();
    let ties: Vec<(u64, u64)> = lock()
        .range((id, 0, 0)..=(id, u64::MAX, u64::MAX))
        .map(|&(_, f, e)| (f, e))
        .collect();
    let before = differing.len();
    differing.retain(|&frame| {
        let visible: HashSet<u64> = match video.scene() {
            Some(scene) if memoized => scene
                .truth_at(frame)
                .visible
                .iter()
                .map(|v| v.entity)
                .collect(),
            _ => HashSet::new(),
        };
        !ties
            .iter()
            .any(|&(f, e)| f == frame || (f < frame && visible.contains(&e)))
    });
    (before - differing.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip(colours: &[NamedColor]) -> PixelBuffer {
        let data = colours.iter().flat_map(|c| c.rgb()).collect();
        PixelBuffer::from_rgb(colours.len() as u32, 1, 1, data)
    }

    #[test]
    fn a_tie_between_differently_named_colours_is_found() {
        use NamedColor::{Green, Red};
        let all = BBox {
            x1: 0.0,
            y1: 0.0,
            x2: 4.0,
            y2: 1.0,
        };
        let tied = tied_names(&strip(&[Red, Green, Red, Green]), &all);
        assert_eq!(tied, BTreeSet::from(["green", "red"]));
        let clear = tied_names(&strip(&[Red, Green, Red, Red]), &all);
        assert_eq!(clear, BTreeSet::from(["red"]));
    }

    #[test]
    fn differing_frames_compare_hits_frame_by_frame() {
        let hit = |frame: u64, out: i64| FrameHit {
            frame,
            time_s: frame as f64,
            outputs: vec![vec![("car.track_id".to_string(), Value::from(out))]],
        };
        let a = [hit(1, 1), hit(2, 1), hit(4, 1)];
        let b = [hit(1, 1), hit(2, 2), hit(3, 1)];
        assert_eq!(differing_frames(&a, &b), BTreeSet::from([2, 3, 4]));
        assert!(differing_frames(&a, &a).is_empty());
    }
}
