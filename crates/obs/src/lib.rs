//! Observability for the BMST workspace: spans, counters, histograms, and
//! structured events behind a cheap global handle.
//!
//! The workspace is offline, so this crate is written from scratch (no
//! `tracing`/`metrics`); it exposes exactly the surface the algorithm
//! crates need:
//!
//! * [`span`] — RAII wall-clock timing with nesting: a span dropped inside
//!   another records under the slash-joined path (`bkrus/merge`);
//! * [`counter`] — named monotonic counters (`bkrus.edges_scanned`);
//! * [`histogram`] — named log-scale (power-of-two bucket) histograms for
//!   size distributions (`forest.merge.cross_pairs`);
//! * [`event`] — structured one-shot events with typed fields
//!   (`audit.violation`).
//!
//! All four are no-ops costing roughly **one relaxed atomic load** until a
//! [`Recorder`] is installed. Four recorders ship in-tree:
//! [`NoopRecorder`] (discard), [`SummaryRecorder`] (in-memory aggregation,
//! renderable as text or JSON), [`SpanTreeRecorder`] (profiling: nested
//! spans aggregated into a path tree with self/cumulative time, renderable
//! as a table or collapsed-stack flamegraph lines) and
//! [`JsonLinesRecorder`] (streams spans and events as JSON lines, dumping
//! aggregated counters/histograms on [`JsonLinesRecorder::finish`]).
//! [`MultiRecorder`] fans out to several.
//!
//! With the `alloc` feature, the `alloc` module adds a counting global
//! allocator; processes that install it get per-span allocation deltas
//! reported through [`Recorder::record_span_alloc`].
//!
//! # Naming scheme
//!
//! Metric names are `<module>.<metric>[.<outcome>]`, e.g.
//! `bkrus.edges_scanned`, `forest.cond3a.accept`, `gabow.trees_examined`.
//! Span names are bare algorithm names (`bkrus`, `bkex`, `gabow`); nesting
//! produces paths like `bkh2/bkrus`.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use bmst_obs::SummaryRecorder;
//!
//! let recorder = Arc::new(SummaryRecorder::new());
//! {
//!     let _guard = bmst_obs::scoped(recorder.clone());
//!     let _span = bmst_obs::span("work");
//!     bmst_obs::counter("work.items", 3);
//! }
//! assert_eq!(recorder.counter("work.items"), 3);
//! assert!(recorder.span_nanos("work") > 0);
//! ```

// `deny`, not `forbid`: the feature-gated `alloc` module implements
// `GlobalAlloc` and carries its own scoped `#![allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

/// Counting global allocator and scoped allocation snapshots
/// (feature `alloc`).
#[cfg(feature = "alloc")]
pub mod alloc;
/// Minimal JSON value model, writer, and parser (no external crates).
pub mod json;
mod jsonl;
mod profile;
mod recorder;
mod span;
mod summary;

pub use jsonl::JsonLinesRecorder;
pub use profile::{SpanNode, SpanTreeRecorder};
pub use recorder::{Field, MultiRecorder, NoopRecorder, Recorder};
pub use span::SpanGuard;
pub use summary::{CounterSnapshot, Histogram, SpanStat, SummaryRecorder};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// Fast-path flag: `false` means every instrumentation call returns after
/// one relaxed atomic load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed recorder, if any. Read-locked on every slow-path call;
/// write-locked only by [`install`]/[`uninstall`].
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Serialises [`scoped`] users: the guard holds this lock so concurrent
/// scoped recordings (e.g. parallel tests) queue instead of clobbering each
/// other's global recorder.
static SCOPE_LOCK: Mutex<()> = Mutex::new(());

/// Returns `true` when a recorder is installed and instrumentation is live.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `recorder` as the process-global recorder, replacing and
/// returning any previous one. Prefer [`scoped`] unless the recorder should
/// outlive the current scope (e.g. for a whole CLI invocation).
pub fn install(recorder: Arc<dyn Recorder>) -> Option<Arc<dyn Recorder>> {
    let mut slot = RECORDER.write().unwrap_or_else(PoisonError::into_inner);
    let previous = slot.replace(recorder);
    ENABLED.store(true, Ordering::Release);
    previous
}

/// Removes the process-global recorder, returning it so the caller can
/// flush or inspect it. Instrumentation reverts to the ~free disabled path.
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    ENABLED.store(false, Ordering::Release);
    RECORDER
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
}

/// Installs `recorder` for the lifetime of the returned guard.
///
/// Scoped installations are serialised process-wide: a second call blocks
/// until the first guard drops, which makes concurrent tests that each
/// install their own recorder race-free by construction.
pub fn scoped(recorder: Arc<dyn Recorder>) -> ScopedRecorder {
    let lock = SCOPE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    install(recorder);
    ScopedRecorder { _lock: lock }
}

/// RAII guard returned by [`scoped`]; uninstalls the recorder on drop.
#[must_use = "dropping the guard immediately uninstalls the recorder"]
pub struct ScopedRecorder {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ScopedRecorder {
    fn drop(&mut self) {
        uninstall();
    }
}

impl std::fmt::Debug for ScopedRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedRecorder").finish_non_exhaustive()
    }
}

/// Runs `f` against the installed recorder, if any. The slow path of every
/// instrumentation call.
pub(crate) fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    if !enabled() {
        return;
    }
    let slot = RECORDER.read().unwrap_or_else(PoisonError::into_inner);
    if let Some(r) = slot.as_deref() {
        f(r);
    }
}

/// Adds `delta` to the named counter. ~One atomic load when disabled.
#[inline]
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.add_counter(name, delta));
}

/// Records `value` into the named log-scale histogram.
#[inline]
pub fn histogram(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.record_histogram(name, value));
}

/// Emits a structured event with typed fields.
///
/// # Examples
///
/// ```
/// use bmst_obs::Field;
/// bmst_obs::event("audit.violation", &[("kind", Field::from("ParentCycle"))]);
/// ```
#[inline]
pub fn event(name: &str, fields: &[(&str, Field)]) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.record_event(name, fields));
}

/// Opens a named span; the returned guard records its wall-clock duration
/// (under the slash-joined path of enclosing spans) when dropped.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::enter(name)
}

/// [`span`] for runtime-computed names (e.g. per-worker spans like
/// `router.net.w3`). The name is only materialised when instrumentation is
/// enabled, so callers should still gate any `format!` behind [`enabled`].
#[inline]
pub fn span_dyn(name: &str) -> SpanGuard {
    SpanGuard::enter(name)
}
