//! `req-telemetry` — the service stack's self-hosted observability plane.
//!
//! The headline application of the REQ sketch is latency/percentile
//! monitoring, so the metrics registry here *dogfoods the repository's own
//! data structure*: every latency histogram is a
//! [`ConcurrentReqSketch<u64>`] on the typed fast lane, high-rank-accurate
//! so the p99/p999 that actually matter for tail latency carry the tight
//! side of the relative-error guarantee. Counters and gauges are single
//! relaxed atomics; a bounded ring-buffer event journal records structured
//! lifecycle events (WAL poison/heal, snapshot rotation, promote/repoint,
//! dedup stale-rejects, backpressure parks) without unbounded growth.
//!
//! Design rules, in order:
//!
//! 1. **The hot path pays one relaxed atomic** (counters/gauges) or one
//!    uncontended shard lock (histograms). Registration — the only place a
//!    name lookup happens — is a cold path; call sites cache handles.
//! 2. **Disabled means almost free.** Every handle shares the owning
//!    registry's `enabled` flag; when it is off, `observe`/`inc`/`event`
//!    return after a single relaxed load, and a span begun while disabled
//!    takes no `Instant`.
//! 3. **Exposition is deterministic.** [`Registry::render`] walks names in
//!    sorted order and prints Prometheus-style text, so golden tests can
//!    pin it byte-for-byte.
//!
//! Process-wide instrumentation (the service, the evented server, the
//! cluster shipper/router) records into [`global()`]; the `METRICS` and
//! `EVENTS` wire verbs render that registry.

use parking_lot::Mutex;
use req_core::{ConcurrentReqSketch, RankAccuracy, ReqSketch};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Shards per histogram: concurrent writers spread across this many
/// independently locked sketches, read as their union.
const HIST_SHARDS: usize = 8;

/// Section size of every telemetry sketch. Small on purpose — a histogram
/// costs a few KiB, and ±1% relative rank error is far below the noise
/// floor of any latency measurement.
const HIST_K: u32 = 16;

/// Base RNG seed for telemetry sketches (each shard derives its own).
const HIST_SEED: u64 = 0x7e1e_aa5e;

/// Default event-journal capacity: oldest events drop past this bound.
const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// Quantiles reported per histogram in the exposition, labelled by their
/// `Display` form; `1` is the exact maximum.
const EXPO_QUANTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 1.0];

/// Stable per-thread shard slot. Threads get round-robin slots on first
/// use, so up to [`HIST_SHARDS`] concurrent writers never contend.
fn shard_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|s| *s)
}

/// Monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Counter(Arc<CounterInner>);

struct CounterInner {
    value: AtomicU64,
    enabled: Arc<AtomicBool>,
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.0.enabled.load(Ordering::Relaxed) {
            self.0.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value (queue depths, lag, connection
/// counts). Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Gauge(Arc<CounterInner>);

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

impl Gauge {
    /// Set the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        if self.0.enabled.load(Ordering::Relaxed) {
            self.0.value.store(v, Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `v` if it is below it (per-interval high-water
    /// marks).
    #[inline]
    pub fn set_max(&self, v: u64) {
        if self.0.enabled.load(Ordering::Relaxed) {
            self.0.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

/// Latency/size distribution backed by a [`ConcurrentReqSketch<u64>`] — the
/// repository's own summary, instrumented with itself. Cloning shares the
/// underlying shards.
#[derive(Clone)]
pub struct Histogram(Arc<HistInner>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

struct HistInner {
    sketch: ConcurrentReqSketch<u64>,
    count: AtomicU64,
    sum: AtomicU64,
    enabled: Arc<AtomicBool>,
}

/// Opaque timing token from [`Histogram::begin`]; it holds no `Instant`
/// when the span began while recording was disabled.
#[must_use = "finish() records the span; dropping the token records nothing"]
pub struct Timed(Option<Instant>);

impl Histogram {
    /// Record one observation (microseconds for latency series).
    #[inline]
    pub fn observe(&self, value: u64) {
        if !self.0.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.0.sketch.update_in_shard(shard_slot(), value);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Start a timing span. Returns a token for [`Histogram::finish`].
    #[inline]
    pub fn begin(&self) -> Timed {
        Timed(self.0.enabled.load(Ordering::Relaxed).then(Instant::now))
    }

    /// End a span begun with [`Histogram::begin`], recording elapsed
    /// microseconds. Returns the recorded value (0 when disabled).
    #[inline]
    pub fn finish(&self, token: Timed) -> u64 {
        match token.0 {
            Some(t0) => {
                let micros = t0.elapsed().as_micros() as u64;
                self.observe(micros);
                micros
            }
            None => 0,
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Quantile estimate over all shards (`None` before any observation).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.0.sketch.quantile(q).ok().flatten()
    }
}

/// One structured lifecycle event in the journal.
#[derive(Debug, Clone)]
pub struct Event {
    /// Journal-assigned sequence number (monotonic, gap-free per registry).
    pub seq: u64,
    /// Microseconds since the registry was created.
    pub micros: u64,
    /// Event kind — a small closed taxonomy (`wal_poisoned`,
    /// `snapshot_rotated`, `router_repoint`, …).
    pub kind: &'static str,
    /// Free-form detail (`gen=3`, `node=b addr=…`).
    pub detail: String,
}

impl Event {
    /// One-line rendering, stable enough to parse: `seq +micros kind detail`.
    pub fn render(&self) -> String {
        if self.detail.is_empty() {
            format!("{} +{}us {}", self.seq, self.micros, self.kind)
        } else {
            format!(
                "{} +{}us {} {}",
                self.seq, self.micros, self.kind, self.detail
            )
        }
    }
}

struct Journal {
    ring: Mutex<JournalRing>,
    capacity: usize,
    dropped: AtomicU64,
}

struct JournalRing {
    events: VecDeque<Event>,
    next_seq: u64,
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A metrics registry plus event journal. Most code wants the process-wide
/// [`global()`] instance; tests construct their own.
pub struct Registry {
    enabled: Arc<AtomicBool>,
    start: Instant,
    metrics: Mutex<BTreeMap<String, Metric>>,
    journal: Journal,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A fresh, enabled registry with the default event capacity.
    pub fn new() -> Self {
        Registry::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A fresh, enabled registry whose journal keeps at most `capacity`
    /// events (oldest dropped beyond that).
    pub fn with_event_capacity(capacity: usize) -> Self {
        Registry {
            enabled: Arc::new(AtomicBool::new(true)),
            start: Instant::now(),
            metrics: Mutex::new(BTreeMap::new()),
            journal: Journal {
                ring: Mutex::new(JournalRing {
                    events: VecDeque::with_capacity(capacity.min(64)),
                    next_seq: 0,
                }),
                capacity: capacity.max(1),
                dropped: AtomicU64::new(0),
            },
        }
    }

    /// Runtime kill switch. Disabling stops *new* recording (one relaxed
    /// load per call site); already-recorded values still render.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is currently on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock();
        match metrics.entry(name.to_string()).or_insert_with(|| {
            Metric::Counter(Counter(Arc::new(CounterInner {
                value: AtomicU64::new(0),
                enabled: Arc::clone(&self.enabled),
            })))
        }) {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` is registered as a non-counter"),
        }
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock();
        match metrics.entry(name.to_string()).or_insert_with(|| {
            Metric::Gauge(Gauge(Arc::new(CounterInner {
                value: AtomicU64::new(0),
                enabled: Arc::clone(&self.enabled),
            })))
        }) {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` is registered as a non-gauge"),
        }
    }

    /// Get or create the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics.lock();
        match metrics.entry(name.to_string()).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(HistInner {
                sketch: ConcurrentReqSketch::new(
                    ReqSketch::<u64>::builder()
                        .k(HIST_K)
                        .rank_accuracy(RankAccuracy::HighRank)
                        .seed(HIST_SEED),
                    HIST_SHARDS,
                )
                .expect("telemetry sketch parameters are static and valid"),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                enabled: Arc::clone(&self.enabled),
            })))
        }) {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` is registered as a non-histogram"),
        }
    }

    /// Append a structured event to the journal (dropped while disabled;
    /// evicts the oldest event past capacity and counts the eviction).
    pub fn event(&self, kind: &'static str, detail: impl Into<String>) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let micros = self.start.elapsed().as_micros() as u64;
        let mut ring = self.journal.ring.lock();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == self.journal.capacity {
            ring.events.pop_front();
            self.journal.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.events.push_back(Event {
            seq,
            micros,
            kind,
            detail: detail.into(),
        });
    }

    /// The newest `max` events, oldest first, rendered one per line.
    pub fn recent_events(&self, max: usize) -> Vec<String> {
        let ring = self.journal.ring.lock();
        let skip = ring.events.len().saturating_sub(max);
        ring.events.iter().skip(skip).map(Event::render).collect()
    }

    /// Total events ever recorded (including since-dropped ones).
    pub fn events_recorded(&self) -> u64 {
        self.journal.ring.lock().next_seq
    }

    /// Events evicted from the ring because it was full.
    pub fn events_dropped(&self) -> u64 {
        self.journal.dropped.load(Ordering::Relaxed)
    }

    /// Prometheus-style text exposition: counters and gauges as single
    /// samples, histograms as quantile summaries (p50/p90/p99/p999 and the
    /// exact maximum, read off the REQ sketch's shards) plus
    /// `_count`/`_sum`. Deterministic: names in sorted order, journal
    /// self-metrics last.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let metrics = self.metrics.lock();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge\n{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} summary");
                    // One read for every quantile; it cannot fail, and an
                    // error must not take exposition down with it.
                    let values = h.0.sketch.quantiles(&EXPO_QUANTILES).unwrap_or_default();
                    for (q, v) in EXPO_QUANTILES.iter().zip(values) {
                        if let Some(v) = v {
                            let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
                        }
                    }
                    let _ = writeln!(out, "{name}_count {}", h.count());
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                }
            }
        }
        drop(metrics);
        let _ = writeln!(
            out,
            "# TYPE telemetry_events_total counter\ntelemetry_events_total {}",
            self.events_recorded()
        );
        let _ = writeln!(
            out,
            "# TYPE telemetry_events_dropped_total counter\ntelemetry_events_dropped_total {}",
            self.events_dropped()
        );
        out
    }
}

/// The process-wide registry every layer of the stack records into, and
/// the one the `METRICS`/`EVENTS` wire verbs render.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("reqs_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(reg.counter("reqs_total").get(), 5, "same handle by name");

        let g = reg.gauge("depth");
        g.set(7);
        g.set_max(3); // lower: no-op
        assert_eq!(g.get(), 7);
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("lat_micros");
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        let p50 = h.quantile(0.5).unwrap();
        assert!((450..=550).contains(&p50), "p50 {p50}");
        let p999 = h.quantile(0.999).unwrap();
        assert!(p999 >= 990, "p999 {p999}");
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let h = reg.histogram("h");
        reg.set_enabled(false);
        c.inc();
        h.observe(9);
        let t = h.begin();
        assert_eq!(h.finish(t), 0);
        reg.event("noop", "");
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(reg.events_recorded(), 0);
        reg.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn spans_record_elapsed_micros() {
        let reg = Registry::new();
        let h = reg.histogram("span_micros");
        let t = h.begin();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let recorded = h.finish(t);
        assert!(recorded >= 1_000, "recorded {recorded}us");
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn event_journal_caps_and_counts_drops() {
        let reg = Registry::with_event_capacity(4);
        for i in 0..10 {
            reg.event("tick", format!("i={i}"));
        }
        assert_eq!(reg.events_recorded(), 10);
        assert_eq!(reg.events_dropped(), 6);
        let recent = reg.recent_events(100);
        assert_eq!(recent.len(), 4);
        assert!(recent[0].contains("i=6"), "oldest surviving: {}", recent[0]);
        assert!(recent[3].contains("i=9"));
        let two = reg.recent_events(2);
        assert_eq!(two.len(), 2);
        assert!(two[1].contains("i=9"));
    }

    #[test]
    #[should_panic(expected = "registered as a non-counter")]
    fn type_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.gauge("x");
        let _ = reg.counter("x");
    }
}
