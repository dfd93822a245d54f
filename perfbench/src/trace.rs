//! Outside-in instrumentation: decorators over the public traits of
//! `vqpy-video` (`VideoSource`) and `vqpy-models` (`Detector`,
//! `Classifier`, `FrameClassifier`), and a span recorder the workloads
//! also use around their calls into `vqpy-core`, `vqpy-serve` and
//! `vqpy-store`.
//!
//! Nothing here changes what the wrapped code computes or charges: every
//! method forwards to the wrapped object, batch methods included, so the
//! simulated cost accounting of batched calls is untouched. Spans are kept
//! in memory and written out once, when the run ends.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use vqpy_models::{
    Classifier, Clock, Detection, Detector, FrameClassifier, ModelFault, ModelProfile, ModelZoo,
    Value,
};
use vqpy_video::{DecodeFault, Frame, Scene, VideoSource};

/// One timed call at a layer boundary. `stream` and `frame` form the
/// request id: the video id and the (first) frame index the call served.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Id of the span open on the same thread when this one started (0:
    /// none).
    pub parent: u64,
    pub stream: u64,
    pub frame: u64,
    /// Work items the call carried: frames for frame-level calls, crops
    /// for classifier calls.
    pub items: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The process-wide span store. Recording is off unless a traced pass
/// turns it on, so wrapped objects cost one atomic load per call outside
/// the measured section.
pub struct Recorder {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Pops this thread's open-span stack even if the timed call unwinds.
struct OpenGuard;

impl Drop for OpenGuard {
    fn drop(&mut self) {
        OPEN.with(|s| s.borrow_mut().pop());
    }
}

pub fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        on: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

impl Recorder {
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f`, recording it as a span when recording is on.
    pub fn span<R>(
        &self,
        name: &'static str,
        stream: u64,
        frame: u64,
        items: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let guard = OpenGuard;
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        drop(guard);
        self.spans
            .lock()
            .expect("span store lock poisoned by a panicking recorder")
            .push(Span {
                name,
                id,
                parent,
                stream,
                frame,
                items,
                start_ns,
                end_ns,
            });
        out
    }

    /// Removes and returns every recorded span.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span store lock poisoned by a panicking recorder"),
        )
    }
}

/// Per-span self time: the span's duration minus the part of its interval
/// covered by its child spans.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let (mut lo, mut hi) = (0u64, 0u64);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    if a > hi {
                        covered += hi - lo;
                        (lo, hi) = (a, b);
                    } else {
                        hi = hi.max(b);
                    }
                }
                covered += hi - lo;
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"stream\":{},\"frame\":{},\"items\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.stream, s.frame, s.items, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Span name of the `VideoSource::frame` decorator.
pub const VIDEO_FRAME: &str = "video.frame";

/// The `VideoSource` the benchmark hands the system in place of each
/// video. It stamps when every frame was last pulled, which is when a
/// closed-loop frame is due, and times each render while recording is on.
pub struct ObservedVideo {
    inner: Arc<dyn VideoSource>,
    epoch: Instant,
    /// Nanoseconds after `epoch` of the latest pull, plus 1; 0 = never.
    pulled: Vec<AtomicU64>,
}

impl ObservedVideo {
    pub fn wrap(inner: Arc<dyn VideoSource>) -> Arc<Self> {
        let pulled = (0..inner.frame_count())
            .map(|_| AtomicU64::new(0))
            .collect();
        Arc::new(Self {
            inner,
            epoch: Instant::now(),
            pulled,
        })
    }

    fn stamp(&self, index: u64) {
        if let Some(slot) = self.pulled.get(index as usize) {
            slot.store(
                self.epoch.elapsed().as_nanos() as u64 + 1,
                Ordering::Relaxed,
            );
        }
    }

    /// When the system last pulled frame `index`. Callers read it after
    /// receiving the frame's result over a channel, which orders the read
    /// after the pull's store.
    pub fn pulled_at(&self, index: u64) -> Option<Instant> {
        let ns = self.pulled.get(index as usize)?.load(Ordering::Relaxed);
        (ns > 0).then(|| self.epoch + std::time::Duration::from_nanos(ns - 1))
    }
}

impl VideoSource for ObservedVideo {
    fn video_id(&self) -> u64 {
        self.inner.video_id()
    }
    fn fps(&self) -> u32 {
        self.inner.fps()
    }
    fn resolution(&self) -> (u32, u32) {
        self.inner.resolution()
    }
    fn frame_count(&self) -> u64 {
        self.inner.frame_count()
    }
    fn frame(&self, index: u64) -> Frame {
        self.stamp(index);
        recorder().span(VIDEO_FRAME, self.inner.video_id(), index, 1, || {
            self.inner.frame(index)
        })
    }
    fn try_frame(&self, index: u64) -> Result<Frame, DecodeFault> {
        self.stamp(index);
        recorder().span(VIDEO_FRAME, self.inner.video_id(), index, 1, || {
            self.inner.try_frame(index)
        })
    }
    fn scene(&self) -> Option<&Scene> {
        self.inner.scene()
    }
    fn duration_s(&self) -> f64 {
        self.inner.duration_s()
    }
}

/// Prefix of every model span name (`models.<zoo name>`).
pub const MODEL_PREFIX: &str = "models.";

fn model_span_name(profile: &ModelProfile) -> &'static str {
    // A handful of zoo entries per process; leaking gives `Span` a cheap
    // `&'static str` name.
    Box::leak(format!("{MODEL_PREFIX}{}", profile.name).into_boxed_str())
}

fn first_frame(frames: &[&Frame]) -> (u64, u64) {
    frames.first().map_or((0, 0), |f| (f.video_id, f.index))
}

struct TracedDetector {
    inner: Arc<dyn Detector>,
    name: &'static str,
}

impl Detector for TracedDetector {
    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }
    fn detect(&self, frame: &Frame, clock: &Clock) -> Vec<Detection> {
        recorder().span(self.name, frame.video_id, frame.index, 1, || {
            self.inner.detect(frame, clock)
        })
    }
    fn detect_batch(&self, frames: &[&Frame], clock: &Clock) -> Vec<Vec<Detection>> {
        let (stream, frame) = first_frame(frames);
        recorder().span(self.name, stream, frame, frames.len() as u64, || {
            self.inner.detect_batch(frames, clock)
        })
    }
    fn try_detect_batch(
        &self,
        frames: &[&Frame],
        clock: &Clock,
    ) -> Result<Vec<Vec<Detection>>, ModelFault> {
        let (stream, frame) = first_frame(frames);
        recorder().span(self.name, stream, frame, frames.len() as u64, || {
            self.inner.try_detect_batch(frames, clock)
        })
    }
}

struct TracedClassifier {
    inner: Arc<dyn Classifier>,
    name: &'static str,
}

fn jobs_request(jobs: &[(&Frame, &[Detection])]) -> (u64, u64, u64) {
    let items = jobs.iter().map(|(_, d)| d.len() as u64).sum();
    jobs.first()
        .map_or((0, 0, items), |(f, _)| (f.video_id, f.index, items))
}

impl Classifier for TracedClassifier {
    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }
    fn classify(&self, frame: &Frame, det: &Detection, clock: &Clock) -> Value {
        recorder().span(self.name, frame.video_id, frame.index, 1, || {
            self.inner.classify(frame, det, clock)
        })
    }
    fn classify_batch(&self, frame: &Frame, dets: &[Detection], clock: &Clock) -> Vec<Value> {
        recorder().span(
            self.name,
            frame.video_id,
            frame.index,
            dets.len() as u64,
            || self.inner.classify_batch(frame, dets, clock),
        )
    }
    fn classify_batch_jobs(
        &self,
        jobs: &[(&Frame, &[Detection])],
        clock: &Clock,
    ) -> Vec<Vec<Value>> {
        let (stream, frame, items) = jobs_request(jobs);
        recorder().span(self.name, stream, frame, items, || {
            self.inner.classify_batch_jobs(jobs, clock)
        })
    }
    fn try_classify_batch(
        &self,
        frame: &Frame,
        dets: &[Detection],
        clock: &Clock,
    ) -> Result<Vec<Value>, ModelFault> {
        recorder().span(
            self.name,
            frame.video_id,
            frame.index,
            dets.len() as u64,
            || self.inner.try_classify_batch(frame, dets, clock),
        )
    }
    fn try_classify_batch_jobs(
        &self,
        jobs: &[(&Frame, &[Detection])],
        clock: &Clock,
    ) -> Result<Vec<Vec<Value>>, ModelFault> {
        let (stream, frame, items) = jobs_request(jobs);
        recorder().span(self.name, stream, frame, items, || {
            self.inner.try_classify_batch_jobs(jobs, clock)
        })
    }
}

struct TracedFrameClassifier {
    inner: Arc<dyn FrameClassifier>,
    name: &'static str,
}

impl FrameClassifier for TracedFrameClassifier {
    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }
    fn predict(&self, frame: &Frame, clock: &Clock) -> bool {
        recorder().span(self.name, frame.video_id, frame.index, 1, || {
            self.inner.predict(frame, clock)
        })
    }
    fn predict_batch(&self, frames: &[&Frame], clock: &Clock) -> Vec<bool> {
        let (stream, frame) = first_frame(frames);
        recorder().span(self.name, stream, frame, frames.len() as u64, || {
            self.inner.predict_batch(frames, clock)
        })
    }
    fn try_predict_batch(&self, frames: &[&Frame], clock: &Clock) -> Result<Vec<bool>, ModelFault> {
        let (stream, frame) = first_frame(frames);
        recorder().span(self.name, stream, frame, frames.len() as u64, || {
            self.inner.try_predict_batch(frames, clock)
        })
    }
}

/// Replaces every detector, classifier and frame classifier in `zoo` with
/// a timing decorator around it, registered under the same name.
pub fn instrument_zoo(zoo: &ModelZoo) {
    for name in zoo.names() {
        if let Ok(inner) = zoo.detector(&name) {
            let name = model_span_name(inner.profile());
            zoo.register_detector(Arc::new(TracedDetector { inner, name }));
        } else if let Ok(inner) = zoo.classifier(&name) {
            let name = model_span_name(inner.profile());
            zoo.register_classifier(Arc::new(TracedClassifier { inner, name }));
        } else if let Ok(inner) = zoo.frame_classifier(&name) {
            let name = model_span_name(inner.profile());
            zoo.register_frame_classifier(Arc::new(TracedFrameClassifier { inner, name }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            id,
            parent,
            stream: 0,
            frame: 0,
            items: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            span(4, 1, 90, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&1], 100 - 30 - 10);
        assert_eq!(t[&2], 20);
    }
}
