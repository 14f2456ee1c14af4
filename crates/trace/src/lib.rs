//! # photonn-trace
//!
//! Zero-dependency structured tracing for the photonn workspace: a
//! process-wide span/counter registry with thread-local span stacks,
//! monotonic timestamps, lock-free atomic counters, and a `PHOTONN_TRACE`
//! kill switch whose **disabled path is a branch on one relaxed atomic
//! load** — no allocation, no lock, no clock read (the overhead contract
//! is enforced by a zero-allocation test in this crate and a <1%
//! step-time gate in `bench_batched_step --check-trace-overhead`).
//!
//! ## Model
//!
//! * A [`span`] measures a scoped duration on the current thread. Spans
//!   nest: each thread keeps a depth counter, and every recorded
//!   [`SpanEvent`] carries the nesting depth at which it closed. Events
//!   buffer in a thread-local sink (no cross-thread contention on the hot
//!   path) and migrate to a global list when the thread exits or when the
//!   owning thread calls [`flush_thread`] / [`collect`].
//! * A [`Counter`] is a `static` lock-free `AtomicU64` that registers
//!   itself in the global inventory on first increment. Increments are
//!   dropped entirely while tracing is disabled, so a counter's value
//!   reflects only traced execution.
//! * [`collect`] snapshots everything into a [`Trace`], which exports as
//!   Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`)
//!   via [`Trace::to_chrome_json`] or as a per-span aggregate table
//!   (count/total/p50/p99) via [`Trace::render_table`].
//!
//! ## Enabling
//!
//! Tracing is off by default. Set `PHOTONN_TRACE=on` (any truthy value;
//! parsed by [`envswitch`], case-insensitive) or call
//! [`set_enabled`]`(true)` — the CLI's `--trace out.json` flag does the
//! latter. The first [`enabled`] check latches the environment value;
//! `set_enabled` overrides it at any time.
//!
//! ## Collection caveat
//!
//! [`collect`] sees the calling thread's buffer plus the buffers of every
//! thread that has already exited (scoped workers, request handlers).
//! Spans still buffered on other *live* threads are not visible until
//! those threads exit or flush — callers that trace across long-lived
//! worker threads should have each worker call [`flush_thread`] at a
//! quiescent point.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

pub mod envswitch;

// ---------------------------------------------------------------------------
// Kill switch
// ---------------------------------------------------------------------------

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// Tri-state so the first check can lazily latch `PHOTONN_TRACE` without
/// a lock: 0 = uninitialised, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Is tracing enabled? The steady-state cost is one relaxed atomic load
/// and a branch; only the very first call per process reads the
/// environment.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_state(),
    }
}

#[cold]
fn init_state() -> bool {
    let on = envswitch::engaged("PHOTONN_TRACE", false);
    let new = if on { STATE_ON } else { STATE_OFF };
    // Racing first calls all compute the same value from the same
    // environment; losing the exchange still returns a consistent answer.
    let _ = STATE.compare_exchange(STATE_UNINIT, new, Ordering::Relaxed, Ordering::Relaxed);
    if on {
        // Pin the epoch as close to enablement as possible so span
        // timestamps start near zero.
        let _ = epoch();
    }
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// Force tracing on or off, overriding `PHOTONN_TRACE`. Used by
/// `photonn train --trace` and the bench binaries; also handy in tests.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process trace epoch (the first time
/// tracing was enabled or the clock was touched).
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Convert an [`Instant`] captured elsewhere (e.g. a queue-entry time)
/// into trace-epoch nanoseconds. Instants predating the epoch clamp to 0.
pub fn instant_ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One closed span: `name` over `[start_ns, start_ns + dur_ns)` on thread
/// `tid`, recorded at nesting `depth` (0 = outermost on that thread).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (dot-separated taxonomy, e.g. `tape.backward`).
    pub name: &'static str,
    /// Per-process sequential thread id (1-based; not the OS tid).
    pub tid: u32,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth on `tid` when the span closed.
    pub depth: u16,
}

struct LocalSink {
    tid: u32,
    depth: u16,
    events: Vec<SpanEvent>,
}

impl LocalSink {
    fn new() -> Self {
        static NEXT_TID: AtomicU32 = AtomicU32::new(1);
        LocalSink {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            depth: 0,
            events: Vec::new(),
        }
    }
}

impl Drop for LocalSink {
    fn drop(&mut self) {
        if !self.events.is_empty() {
            lock(finished()).append(&mut self.events);
        }
    }
}

thread_local! {
    static SINK: RefCell<LocalSink> = RefCell::new(LocalSink::new());
}

fn finished() -> &'static Mutex<Vec<SpanEvent>> {
    static FINISHED: OnceLock<Mutex<Vec<SpanEvent>>> = OnceLock::new();
    FINISHED.get_or_init(|| Mutex::new(Vec::new()))
}

/// Lock a mutex, recovering from poisoning (a panicking traced thread
/// must not take the tracer down with it).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII guard returned by [`span`]; records a [`SpanEvent`] on drop.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span {
    name: &'static str,
    start_ns: u64,
    armed: bool,
}

/// Open a span on the current thread. When tracing is disabled this is a
/// single relaxed load and returns an inert guard (no clock read, no
/// allocation, nothing on drop).
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span {
            name,
            start_ns: 0,
            armed: false,
        };
    }
    begin(name)
}

#[cold]
fn begin(name: &'static str) -> Span {
    // try_with: spans opened during thread-local teardown are silently
    // inert rather than panicking.
    let armed = SINK
        .try_with(|s| {
            let mut s = s.borrow_mut();
            s.depth = s.depth.saturating_add(1);
        })
        .is_ok();
    Span {
        name,
        start_ns: now_ns(),
        armed,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = now_ns();
        let _ = SINK.try_with(|s| {
            let mut s = s.borrow_mut();
            s.depth = s.depth.saturating_sub(1);
            let ev = SpanEvent {
                name: self.name,
                tid: s.tid,
                start_ns: self.start_ns,
                dur_ns: end.saturating_sub(self.start_ns),
                depth: s.depth,
            };
            s.events.push(ev);
        });
    }
}

/// Record an already-measured interval (e.g. queue wait reconstructed
/// from an enqueue [`Instant`]) as a depth-0 span on the current thread.
/// No-op while tracing is disabled.
pub fn record_span(name: &'static str, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    let _ = SINK.try_with(|s| {
        let mut s = s.borrow_mut();
        let ev = SpanEvent {
            name,
            tid: s.tid,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            depth: s.depth,
        };
        s.events.push(ev);
    });
}

/// Number of spans currently open on the calling thread. Exposed for the
/// balanced-nesting property tests.
pub fn open_spans() -> usize {
    SINK.try_with(|s| s.borrow().depth as usize).unwrap_or(0)
}

/// Move the calling thread's buffered events into the global list so a
/// [`collect`] from another thread can see them. Threads flush
/// automatically on exit; long-lived workers should call this at
/// quiescent points. The exit flush runs in a thread-local destructor,
/// which `std::thread::scope` may return before; join a scoped thread's
/// handle explicitly to wait for it.
pub fn flush_thread() {
    let _ = SINK.try_with(|s| {
        let mut s = s.borrow_mut();
        if !s.events.is_empty() {
            let mut drained = std::mem::take(&mut s.events);
            lock(finished()).append(&mut drained);
        }
    });
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// A lock-free named counter. Declare as a `static` at the call site;
/// the first traced increment registers it in the global inventory:
///
/// ```
/// static DISPATCHES: photonn_trace::Counter =
///     photonn_trace::Counter::new("simd.example");
/// DISPATCHES.add(1);
/// ```
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A new counter with the given inventory name (dot-separated, e.g.
    /// `simd.hadamard`).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Increment by `n`. When tracing is disabled this is a single
    /// relaxed load and a branch.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
    }

    /// Current value (0 until first traced increment).
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The inventory name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::SeqCst) {
            lock(counters()).push(self);
        }
    }
}

fn counters() -> &'static Mutex<Vec<&'static Counter>> {
    static COUNTERS: OnceLock<Mutex<Vec<&'static Counter>>> = OnceLock::new();
    COUNTERS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Snapshot every registered counter as `(name, value)`, sorted by name.
/// Counters that have never fired while tracing was enabled are absent.
pub fn counters_snapshot() -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = lock(counters())
        .iter()
        .map(|c| (c.name, c.value()))
        .collect();
    out.sort_unstable_by(|a, b| a.0.cmp(b.0));
    out
}

// ---------------------------------------------------------------------------
// Collection / reset
// ---------------------------------------------------------------------------

/// Flush the calling thread and clear all collected events and counter
/// values. Buffers still held by other live threads are untouched (they
/// flush on exit). Used between bench phases and by tests.
pub fn reset() {
    flush_thread();
    lock(finished()).clear();
    for c in lock(counters()).iter() {
        c.value.store(0, Ordering::Relaxed);
    }
}

/// A collected snapshot: closed spans plus counter values.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// All collected span events, sorted by start time then thread.
    pub events: Vec<SpanEvent>,
    /// Registered counters at collection time, sorted by name.
    pub counters: Vec<(String, u64)>,
}

/// Snapshot all events visible to this thread (own buffer + exited
/// threads + prior flushes) and the counter inventory. Non-destructive:
/// call [`reset`] to start a fresh window.
pub fn collect() -> Trace {
    flush_thread();
    let mut events = lock(finished()).clone();
    events.sort_by_key(|a| (a.start_ns, a.tid, a.dur_ns));
    let counters = counters_snapshot()
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    Trace { events, counters }
}

// ---------------------------------------------------------------------------
// Export: Chrome trace-event JSON
// ---------------------------------------------------------------------------

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Trace {
    /// Serialize as Chrome trace-event JSON (the "JSON object format"):
    /// complete (`ph: "X"`) events with microsecond `ts`/`dur`, one `tid`
    /// per source thread, and the counter inventory under
    /// `otherData.counters`. Loadable in Perfetto or `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_string(&mut out, ev.name);
            out.push_str(",\"cat\":\"photonn\",\"ph\":\"X\",\"pid\":1,\"tid\":");
            out.push_str(&ev.tid.to_string());
            out.push_str(&format!(
                ",\"ts\":{:.3},\"dur\":{:.3}",
                ev.start_ns as f64 / 1_000.0,
                ev.dur_ns as f64 / 1_000.0
            ));
            out.push_str(&format!(",\"args\":{{\"depth\":{}}}}}", ev.depth));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push(':');
            out.push_str(&value.to_string());
        }
        out.push_str("}}}");
        out
    }

    /// Per-span aggregates, sorted by total time descending.
    pub fn aggregate(&self) -> Vec<SpanAgg> {
        aggregate(&self.events)
    }

    /// Render the aggregate table plus the counter inventory as markdown.
    pub fn render_table(&self) -> String {
        render_table(&self.aggregate(), &self.counters)
    }
}

// ---------------------------------------------------------------------------
// Export: aggregate table
// ---------------------------------------------------------------------------

/// Aggregate statistics for one span name.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanAgg {
    /// Span name.
    pub name: String,
    /// Number of recorded instances.
    pub count: u64,
    /// Total time across instances, microseconds.
    pub total_us: f64,
    /// Median instance duration, microseconds.
    pub p50_us: f64,
    /// 99th-percentile instance duration, microseconds.
    pub p99_us: f64,
}

fn percentile_ns(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

/// Aggregate raw events into per-name count/total/p50/p99 rows, sorted by
/// total time descending.
pub fn aggregate(events: &[SpanEvent]) -> Vec<SpanAgg> {
    let mut by_name: std::collections::BTreeMap<&str, Vec<u64>> = std::collections::BTreeMap::new();
    for ev in events {
        by_name.entry(ev.name).or_default().push(ev.dur_ns);
    }
    let mut out: Vec<SpanAgg> = by_name
        .into_iter()
        .map(|(name, mut durs)| {
            durs.sort_unstable();
            let total: u64 = durs.iter().sum();
            SpanAgg {
                name: name.to_string(),
                count: durs.len() as u64,
                total_us: total as f64 / 1_000.0,
                p50_us: percentile_ns(&durs, 50.0) / 1_000.0,
                p99_us: percentile_ns(&durs, 99.0) / 1_000.0,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.total_us
            .partial_cmp(&a.total_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });
    out
}

/// Render aggregates (and, when non-empty, the counter inventory) as a
/// markdown table — the `photonn bench-report --trace` / process-exit
/// dump format.
pub fn render_table(aggs: &[SpanAgg], counters: &[(String, u64)]) -> String {
    let mut out = String::new();
    out.push_str("| span | count | total (ms) | p50 (µs) | p99 (µs) |\n");
    out.push_str("|---|---:|---:|---:|---:|\n");
    for a in aggs {
        out.push_str(&format!(
            "| {} | {} | {:.3} | {:.1} | {:.1} |\n",
            a.name,
            a.count,
            a.total_us / 1_000.0,
            a.p50_us,
            a.p99_us
        ));
    }
    if !counters.is_empty() {
        out.push_str("\n| counter | value |\n|---|---:|\n");
        for (name, value) in counters {
            out.push_str(&format!("| {} | {} |\n", name, value));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that toggle the global enable flag / registry.
    pub(crate) fn test_guard() -> MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        lock(GUARD.get_or_init(|| Mutex::new(())))
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = test_guard();
        set_enabled(false);
        reset();
        {
            let _s = span("test.disabled");
        }
        assert!(collect().events.is_empty());
    }

    #[test]
    fn span_nesting_depths_recorded() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        {
            let _outer = span("test.outer");
            {
                let _inner = span("test.inner");
            }
            assert_eq!(open_spans(), 1);
        }
        assert_eq!(open_spans(), 0);
        set_enabled(false);
        let t = collect();
        let inner = t.events.iter().find(|e| e.name == "test.inner").unwrap();
        let outer = t.events.iter().find(|e| e.name == "test.outer").unwrap();
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn counters_register_on_first_traced_add() {
        let _g = test_guard();
        static CTR: Counter = Counter::new("test.counter_register");
        set_enabled(false);
        CTR.add(5);
        assert_eq!(CTR.value(), 0, "disabled adds must be dropped");
        set_enabled(true);
        CTR.add(3);
        CTR.add(4);
        set_enabled(false);
        let snap = counters_snapshot();
        let got = snap.iter().find(|(n, _)| *n == "test.counter_register");
        assert_eq!(got, Some(&("test.counter_register", 7)));
    }

    #[test]
    fn record_span_lands_in_collection() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        record_span("test.measured", 10, 250);
        set_enabled(false);
        let t = collect();
        let ev = t.events.iter().find(|e| e.name == "test.measured").unwrap();
        assert_eq!(ev.start_ns, 10);
        assert_eq!(ev.dur_ns, 240);
    }

    #[test]
    fn worker_thread_events_flush_on_exit() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        let main_tid = SINK.with(|s| s.borrow().tid);
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _s = span("test.worker");
                })
                .join()
                .unwrap();
        });
        set_enabled(false);
        let t = collect();
        let ev = t.events.iter().find(|e| e.name == "test.worker").unwrap();
        assert_ne!(ev.tid, main_tid);
    }

    #[test]
    fn aggregate_and_table() {
        let evs = vec![
            SpanEvent {
                name: "a",
                tid: 1,
                start_ns: 0,
                dur_ns: 1_000,
                depth: 0,
            },
            SpanEvent {
                name: "a",
                tid: 1,
                start_ns: 2_000,
                dur_ns: 3_000,
                depth: 0,
            },
            SpanEvent {
                name: "b",
                tid: 2,
                start_ns: 0,
                dur_ns: 10_000,
                depth: 0,
            },
        ];
        let aggs = aggregate(&evs);
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].name, "b");
        assert_eq!(aggs[1].name, "a");
        assert_eq!(aggs[1].count, 2);
        assert!((aggs[1].total_us - 4.0).abs() < 1e-12);
        let table = render_table(&aggs, &[("c".to_string(), 42)]);
        assert!(table.contains("| a | 2 |"));
        assert!(table.contains("| c | 42 |"));
    }

    #[test]
    fn chrome_json_escapes_and_shapes() {
        let t = Trace {
            events: vec![SpanEvent {
                name: "x",
                tid: 3,
                start_ns: 1_500,
                dur_ns: 2_500,
                depth: 1,
            }],
            counters: vec![("simd.h".to_string(), 9)],
        };
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.500"));
        assert!(json.contains("\"simd.h\":9"));
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn percentiles() {
        let durs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&durs, 50.0), 51.0);
        assert_eq!(percentile_ns(&durs, 99.0), 99.0);
        assert_eq!(percentile_ns(&durs, 100.0), 100.0);
        assert_eq!(percentile_ns(&[], 50.0), 0.0);
    }
}
