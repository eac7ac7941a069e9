//! The [`Recorder`] trait and trivial implementations.

use std::sync::Arc;

use crate::json::Json;

/// A typed field value attached to an [`event`](crate::event).
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// An unsigned integer (counts, node ids).
    U64(u64),
    /// A floating-point measurement (lengths, ratios).
    F64(f64),
    /// A short string (kinds, names).
    Str(String),
    /// A boolean flag.
    Bool(bool),
}

impl Field {
    /// Converts the field into its JSON representation.
    pub fn to_json(&self) -> Json {
        match self {
            Field::U64(v) => Json::from_u64(*v),
            Field::F64(v) => Json::Num(*v),
            Field::Str(s) => Json::Str(s.clone()),
            Field::Bool(b) => Json::Bool(*b),
        }
    }
}

impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::U64(v)
    }
}

impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(u64::try_from(v).unwrap_or(u64::MAX))
    }
}

impl From<f64> for Field {
    fn from(v: f64) -> Self {
        Field::F64(v)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_owned())
    }
}

impl From<String> for Field {
    fn from(v: String) -> Self {
        Field::Str(v)
    }
}

impl From<bool> for Field {
    fn from(v: bool) -> Self {
        Field::Bool(v)
    }
}

/// Sink for instrumentation data. Implementations must be thread-safe: the
/// algorithm crates record from whatever thread they run on.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the named monotonic counter.
    fn add_counter(&self, name: &str, delta: u64);
    /// Records one `value` observation into the named histogram.
    fn record_histogram(&self, name: &str, value: u64);
    /// Records a completed span: `path` is the slash-joined nesting path
    /// (e.g. `bkh2/bkrus`), `nanos` its wall-clock duration.
    fn record_span(&self, path: &str, nanos: u64);
    /// Records a structured event.
    fn record_event(&self, name: &str, fields: &[(&str, Field)]);
    /// Records the allocation delta observed over a completed span:
    /// `allocs` heap allocations totalling `bytes` requested bytes on the
    /// span's thread (cumulative — nested spans count in their parents).
    ///
    /// Only emitted when the `alloc` feature is on *and* the process runs
    /// under `alloc::CountingAlloc`; the default implementation
    /// discards, so existing recorders are unaffected.
    fn record_span_alloc(&self, path: &str, allocs: u64, bytes: u64) {
        let _ = (path, allocs, bytes);
    }
}

/// Discards everything. Installing it is equivalent to (but measurably more
/// expensive than) installing nothing; it exists as the explicit baseline
/// for overhead and output-equivalence tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn add_counter(&self, _name: &str, _delta: u64) {}
    fn record_histogram(&self, _name: &str, _value: u64) {}
    fn record_span(&self, _path: &str, _nanos: u64) {}
    fn record_event(&self, _name: &str, _fields: &[(&str, Field)]) {}
}

/// Fans every record out to several recorders (e.g. a JSON-lines trace file
/// *and* an in-memory summary in the same run).
pub struct MultiRecorder {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl MultiRecorder {
    /// Builds a fan-out over `sinks`, invoked in order.
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> Self {
        MultiRecorder { sinks }
    }
}

impl std::fmt::Debug for MultiRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiRecorder")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Recorder for MultiRecorder {
    fn add_counter(&self, name: &str, delta: u64) {
        for s in &self.sinks {
            s.add_counter(name, delta);
        }
    }

    fn record_histogram(&self, name: &str, value: u64) {
        for s in &self.sinks {
            s.record_histogram(name, value);
        }
    }

    fn record_span(&self, path: &str, nanos: u64) {
        for s in &self.sinks {
            s.record_span(path, nanos);
        }
    }

    fn record_event(&self, name: &str, fields: &[(&str, Field)]) {
        for s in &self.sinks {
            s.record_event(name, fields);
        }
    }

    fn record_span_alloc(&self, path: &str, allocs: u64, bytes: u64) {
        for s in &self.sinks {
            s.record_span_alloc(path, allocs, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use crate::SummaryRecorder;

    #[test]
    fn field_conversions() {
        assert_eq!(Field::from(3usize), Field::U64(3));
        assert_eq!(Field::from(2.5), Field::F64(2.5));
        assert_eq!(Field::from("x"), Field::Str("x".into()));
        assert_eq!(Field::from(true), Field::Bool(true));
    }

    #[test]
    fn multi_recorder_fans_out() {
        let a = Arc::new(SummaryRecorder::new());
        let b = Arc::new(SummaryRecorder::new());
        let multi = MultiRecorder::new(vec![a.clone(), b.clone()]);
        multi.add_counter("c", 2);
        multi.record_span("s", 10);
        assert_eq!(a.counter("c"), 2);
        assert_eq!(b.counter("c"), 2);
        assert_eq!(a.span_nanos("s"), 10);
    }

    #[test]
    fn noop_discards() {
        let n = NoopRecorder;
        n.add_counter("c", 1);
        n.record_histogram("h", 1);
        n.record_span("s", 1);
        n.record_event("e", &[]);
    }
}
