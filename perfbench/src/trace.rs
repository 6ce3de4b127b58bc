//! In-memory span recording around the benchmark's calls into each layer,
//! Chrome trace-event export, and per-layer self time.
//!
//! Spans are recorded by the benchmark, not inside the crates: a span
//! wraps one public call (`knit::build`, `Conn::call`, `Machine::new`,
//! ...). Layers that have no public entry of their own (the build
//! phases) become *derived* spans, built from the per-phase durations the
//! program returns and laid end to end from their parent's start; the
//! parent's remaining self time is the time no phase accounts for.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// The span this call happened inside, if any.
    pub parent: Option<u64>,
    /// The op (request) this span belongs to; shared by all its spans.
    pub op: u64,
    /// Layer name, e.g. `knit.build` or `phase.link`.
    pub name: String,
    /// Thread lane (client number, or 0).
    pub tid: u64,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Built from a duration the program reported, not timed here.
    pub derived: bool,
}

/// Collects spans when enabled; when disabled, [`Tracer::scope`] still
/// measures elapsed time (the workloads need it) but records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; close it with [`Scope::end`].
pub struct Scope<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    op: u64,
    tid: u64,
    name: &'static str,
    start: Instant,
}

impl Tracer {
    /// A tracer that records spans iff `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span named `name` for `op`, inside `parent`.
    pub fn scope(&self, name: &'static str, op: u64, parent: Option<u64>, tid: u64) -> Scope<'_> {
        let id = if self.on { self.next_id.fetch_add(1, Ordering::Relaxed) } else { 0 };
        Scope { tracer: self, id, parent, op, tid, name, start: Instant::now() }
    }

    /// Record derived child spans of `parent` from program-reported
    /// durations, laid end to end from `start`.
    pub fn derived(
        &self,
        parent: Option<u64>,
        op: u64,
        tid: u64,
        start: Instant,
        parts: &[(String, Duration)],
    ) {
        if !self.on {
            return;
        }
        let mut at = self.us(start);
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        for (name, d) in parts {
            let dur_us = d.as_secs_f64() * 1e6;
            spans.push(Span {
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                parent,
                op,
                name: name.clone(),
                tid,
                start_us: at,
                dur_us,
                derived: true,
            });
            at += dur_us;
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Every recorded span, sorted by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span buffer lock poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

impl Scope<'_> {
    /// The span's id, to pass as `parent` to calls made inside it (`None`
    /// when tracing is off).
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }

    /// When the span started.
    pub fn start(&self) -> Instant {
        self.start
    }

    /// Close the span, recording it if tracing is on; returns its length.
    pub fn end(self) -> Duration {
        let end = Instant::now();
        let d = end - self.start;
        if self.tracer.on {
            let span = Span {
                id: self.id,
                parent: self.parent,
                op: self.op,
                name: self.name.to_string(),
                tid: self.tid,
                start_us: self.tracer.us(self.start),
                dur_us: d.as_secs_f64() * 1e6,
                derived: false,
            };
            self.tracer.spans.lock().expect("span buffer lock poisoned").push(span);
        }
        d
    }
}

/// Self time of every span, in microseconds: its duration minus the
/// durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut out: BTreeMap<u64, f64> = spans.iter().map(|s| (s.id, s.dur_us)).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(v) = out.get_mut(&p) {
                *v -= s.dur_us;
            }
        }
    }
    out
}

/// Per-layer self time: for each span name, the summed self time (ms) and
/// the number of spans.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, (f64, usize)> {
    let st = self_times(spans);
    let mut out: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += st[&s.id] / 1e3;
        e.1 += 1;
    }
    out
}

/// Spans grouped by op id.
pub fn by_op(spans: &[Span]) -> BTreeMap<u64, Vec<Span>> {
    let mut out: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans {
        out.entry(s.op).or_default().push(s.clone());
    }
    out
}

/// The spans as a Chrome trace-event JSON document (complete `X` events;
/// load it in Perfetto or `chrome://tracing`), every span in id order.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".to_string());
        out.push_str(&format!(
            "\n{{\"name\":{},\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{},\"derived\":{}}}}}",
            crate::report::json_str(&s.name),
            s.tid,
            s.start_us,
            s.dur_us,
            s.id,
            parent,
            s.op,
            s.derived
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children_and_sum_to_the_root() {
        let t = Tracer::new(true);
        let root = t.scope("op", 7, None, 0);
        let child = t.scope("child", 7, root.id(), 0);
        std::thread::sleep(Duration::from_millis(2));
        t.derived(
            child.id(),
            7,
            0,
            child.start(),
            &[("phase.a".into(), Duration::from_micros(300))],
        );
        child.end();
        root.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let st = self_times(&spans);
        let total: f64 = st.values().sum();
        let root_dur = spans.iter().find(|s| s.name == "op").unwrap().dur_us;
        assert!((total - root_dur).abs() < 1e-6, "{total} vs {root_dur}");
        assert!(st.values().all(|v| *v >= 0.0));
        let json = chrome_json(&spans);
        assert!(json.contains("\"name\":\"phase.a\"") && json.contains("\"derived\":true"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_times() {
        let t = Tracer::new(false);
        let s = t.scope("op", 1, None, 0);
        assert_eq!(s.id(), None);
        std::thread::sleep(Duration::from_millis(1));
        assert!(s.end() >= Duration::from_millis(1));
        assert!(t.spans().is_empty());
    }
}
