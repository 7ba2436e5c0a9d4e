//! Runtime observability: a thread-safe metrics registry and per-query
//! stage traces.
//!
//! The ROADMAP's target is a long-running service, but the paper's own
//! evaluation (§6.3.3) already frames query cost as a pipeline — sketch
//! the query, *filter* the dataset down to a candidate set, *rank* the
//! candidates — whose stages have very different costs. This module makes
//! those stages observable at runtime without any external dependency:
//!
//! * [`MetricsRegistry`] — named families of atomic [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket [`Histogram`]s (exact count and sum,
//!   lock-free on the hot path once a handle is held), rendered in
//!   Prometheus text exposition format by
//!   [`MetricsRegistry::render_prometheus`].
//! * [`QueryTrace`] — one record per query with wall time, candidate
//!   counts, and per-shard scan statistics for each pipeline stage.
//!
//! Collection never perturbs results: instrumented code paths compute the
//! same bytes with telemetry enabled or disabled (enforced by the
//! determinism regression tests in `tests/parallel_determinism.rs`).
//!
//! Histograms observe **integers** (`u64`), not floats, so concurrent
//! `fetch_add` updates make count and sum exactly equal to a serial
//! replay — there is no float rounding that depends on thread
//! interleaving. Latency histograms store nanoseconds internally and are
//! rendered in seconds (the Prometheus base unit) at exposition time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // ordering: Relaxed; counters are independent monotone tallies, no other data is published via them
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed; scrape reads tolerate racing increments
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        // ordering: Relaxed; gauges carry no happens-before obligations
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        // ordering: Relaxed; gauges carry no happens-before obligations
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` exceeds the current value (a
    /// high-watermark update, e.g. peak concurrent queries).
    pub fn fetch_max(&self, v: i64) {
        // ordering: Relaxed; high-watermark race only loses a transiently lower peak
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        // ordering: Relaxed; scrape reads tolerate racing updates
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` observations with exact count and
/// sum.
///
/// Buckets are defined by strictly increasing upper bounds; one implicit
/// `+Inf` bucket catches everything above the last bound. Observation is
/// three relaxed `fetch_add`s after a binary search — cheap enough for
/// the query hot path.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) counts; `bounds.len() + 1` entries,
    /// the last being the `+Inf` bucket.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A point-in-time copy of a histogram, for tests and reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper bounds of the finite buckets.
    pub bounds: Vec<u64>,
    /// **Cumulative** bucket counts, one per finite bound plus a final
    /// `+Inf` entry; the last entry always equals `count`.
    pub cumulative: Vec<u64>,
    /// Exact sum of all observations.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

impl Histogram {
    /// Creates a histogram with the given strictly increasing upper
    /// bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        // ordering: Relaxed; buckets/sum/count may be mutually torn, snapshot() documents approximation
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed; see above
        self.sum.fetch_add(value, Ordering::Relaxed);
        // ordering: Relaxed; see above
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        // ordering: Relaxed; monitoring read
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> u64 {
        // ordering: Relaxed; monitoring read
        self.sum.load(Ordering::Relaxed)
    }

    /// A consistent-enough snapshot (buckets are read one by one; exact
    /// under quiescence, approximate under concurrent writes).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = Vec::with_capacity(self.buckets.len());
        let mut running = 0u64;
        for b in &self.buckets {
            // ordering: Relaxed; approximate under concurrent writes by contract
            running += b.load(Ordering::Relaxed);
            cumulative.push(running);
        }
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            cumulative,
            sum: self.sum(),
            count: self.count(),
        }
    }
}

/// Default latency bucket upper bounds, in nanoseconds: roughly
/// exponential from 10µs to 5s, chosen so interactive queries (sub-ms
/// sketch scans, multi-ms EMD ranking) land mid-range.
pub const LATENCY_BUCKETS_NS: [u64; 16] = [
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    1_000_000_000,
    5_000_000_000,
];

/// Default size bucket upper bounds (batch sizes, candidate counts).
pub const SIZE_BUCKETS: [u64; 13] = [
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000,
];

/// How a histogram's integer observations are rendered at exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Render the raw integer value.
    Raw,
    /// Observations are nanoseconds; render as seconds.
    Nanoseconds,
}

impl Unit {
    fn render(self, v: u64) -> String {
        match self {
            Unit::Raw => v.to_string(),
            Unit::Nanoseconds => format_f64(v as f64 / 1e9),
        }
    }
}

/// Formats a float the way Prometheus expects (shortest round-trip).
fn format_f64(v: f64) -> String {
    format!("{v}")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

type LabelSet = Vec<(String, String)>;

struct Family {
    help: String,
    kind: Kind,
    unit: Unit,
    series: BTreeMap<LabelSet, Metric>,
}

/// A thread-safe registry of named metric families.
///
/// Families are keyed by metric name; each family holds one series per
/// label set. `counter`/`gauge`/`histogram` get-or-create a series and
/// return a shared handle that callers may cache — updates through the
/// handle are lock-free. Re-registering an existing name with a
/// different metric kind panics (a programming error, not a runtime
/// condition).
#[derive(Default)]
pub struct MetricsRegistry {
    families: RwLock<BTreeMap<String, Family>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn normalize(labels: &[(&str, &str)]) -> LabelSet {
        let mut set: LabelSet = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        set.sort();
        set
    }

    #[allow(clippy::too_many_arguments)]
    fn get_or_create<T, FGet, FNew>(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        unit: Unit,
        labels: &[(&str, &str)],
        get: FGet,
        new: FNew,
    ) -> Arc<T>
    where
        FGet: Fn(&Metric) -> Option<Arc<T>>,
        FNew: Fn() -> Metric,
    {
        let key = Self::normalize(labels);
        {
            let families = self.families.read();
            if let Some(family) = families.get(name) {
                assert!(
                    family.kind == kind,
                    "metric {name} already registered as {}",
                    family.kind.as_str()
                );
                if let Some(metric) = family.series.get(&key) {
                    match get(metric) {
                        Some(m) => return m,
                        None => unreachable!("every series of {name} has its family's kind"),
                    }
                }
            }
        }
        let mut families = self.families.write();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            unit,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name} already registered as {}",
            family.kind.as_str()
        );
        let metric = family.series.entry(key).or_insert_with(new);
        match get(metric) {
            Some(m) => m,
            None => unreachable!("every series of {name} has its family's kind"),
        }
    }

    /// Gets or creates a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.get_or_create(
            name,
            help,
            Kind::Counter,
            Unit::Raw,
            labels,
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || Metric::Counter(Arc::new(Counter::new())),
        )
    }

    /// Gets or creates a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.gauge_in(name, help, labels, Unit::Raw)
    }

    fn gauge_in(&self, name: &str, help: &str, labels: &[(&str, &str)], unit: Unit) -> Arc<Gauge> {
        self.get_or_create(
            name,
            help,
            Kind::Gauge,
            unit,
            labels,
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            || Metric::Gauge(Arc::new(Gauge::new())),
        )
    }

    /// Sets a gauge series that holds a duration: stored as nanoseconds,
    /// rendered in seconds (for one-off costs such as recovery stages,
    /// where a histogram of one sample would say less).
    pub fn set_duration_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)], d: Duration) {
        self.gauge_in(name, help, labels, Unit::Nanoseconds)
            .set(d.as_nanos().min(i64::MAX as u128) as i64);
    }

    /// Gets or creates a histogram series with the given bucket bounds
    /// and display unit. The bounds of the *first* registration of a
    /// family win; later calls reuse the existing series.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
        unit: Unit,
    ) -> Arc<Histogram> {
        self.get_or_create(
            name,
            help,
            Kind::Histogram,
            unit,
            labels,
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || Metric::Histogram(Arc::new(Histogram::new(bounds))),
        )
    }

    /// Eagerly creates an (empty) family for every series in the
    /// [`crate::series`] catalog, so `# HELP`/`# TYPE` headers for the
    /// whole documented `/metrics` surface are visible from the first
    /// scrape. Families created here have no label sets yet; call sites
    /// add series as usual, and their kind must match the catalog (the
    /// registry's kind assertion makes drift fail fast).
    pub fn register_catalog(&self) {
        use crate::series::{SeriesKind, SERIES};
        let mut families = self.families.write();
        for def in SERIES {
            let (kind, unit) = match def.kind {
                SeriesKind::Counter => (Kind::Counter, Unit::Raw),
                SeriesKind::Gauge => (Kind::Gauge, Unit::Raw),
                SeriesKind::DurationGauge => (Kind::Gauge, Unit::Nanoseconds),
                SeriesKind::Histogram { nanos: true } => (Kind::Histogram, Unit::Nanoseconds),
                SeriesKind::Histogram { nanos: false } => (Kind::Histogram, Unit::Raw),
            };
            families
                .entry(def.name.to_string())
                .or_insert_with(|| Family {
                    help: def.help.to_string(),
                    kind,
                    unit,
                    series: BTreeMap::new(),
                });
        }
    }

    /// One-shot counter increment (get-or-create plus `add`).
    pub fn inc_counter(&self, name: &str, help: &str, labels: &[(&str, &str)], n: u64) {
        self.counter(name, help, labels).add(n);
    }

    /// One-shot latency observation in a nanosecond histogram rendered
    /// as seconds, using [`LATENCY_BUCKETS_NS`].
    pub fn observe_latency(&self, name: &str, help: &str, labels: &[(&str, &str)], d: Duration) {
        self.histogram(name, help, labels, &LATENCY_BUCKETS_NS, Unit::Nanoseconds)
            .observe_duration(d);
    }

    /// Current value of a counter series, if registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = Self::normalize(labels);
        let families = self.families.read();
        match families.get(name)?.series.get(&key)? {
            Metric::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Snapshot of a histogram series, if registered.
    pub fn histogram_snapshot(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSnapshot> {
        let key = Self::normalize(labels);
        let families = self.families.read();
        match families.get(name)?.series.get(&key)? {
            Metric::Histogram(h) => Some(h.snapshot()),
            _ => None,
        }
    }

    /// Renders every family in Prometheus text exposition format
    /// (`text/plain; version=0.0.4`): `# HELP` and `# TYPE` per family,
    /// then one line per series sample, with histogram buckets emitted
    /// cumulatively including the `+Inf` bucket, `_sum`, and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let families = self.families.read();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&family.help)));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.as_str()));
            for (labels, metric) in &family.series {
                match metric {
                    Metric::Counter(c) => {
                        out.push_str(&format!("{name}{} {}\n", render_labels(labels), c.get()));
                    }
                    Metric::Gauge(g) => {
                        let value = match family.unit {
                            Unit::Raw => g.get().to_string(),
                            Unit::Nanoseconds => format_f64(g.get() as f64 / 1e9),
                        };
                        out.push_str(&format!("{name}{} {value}\n", render_labels(labels)));
                    }
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        for (i, &bound) in snap.bounds.iter().enumerate() {
                            let le = family.unit.render(bound);
                            out.push_str(&format!(
                                "{name}_bucket{} {}\n",
                                render_labels_with(labels, "le", &le),
                                snap.cumulative[i]
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_bucket{} {}\n",
                            render_labels_with(labels, "le", "+Inf"),
                            snap.count
                        ));
                        let sum = match family.unit {
                            Unit::Raw => snap.sum.to_string(),
                            Unit::Nanoseconds => format_f64(snap.sum as f64 / 1e9),
                        };
                        out.push_str(&format!("{name}_sum{} {sum}\n", render_labels(labels)));
                        out.push_str(&format!(
                            "{name}_count{} {}\n",
                            render_labels(labels),
                            snap.count
                        ));
                    }
                }
            }
        }
        out
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &LabelSet) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

fn render_labels_with(labels: &LabelSet, extra_key: &str, extra_value: &str) -> String {
    let mut all = labels.clone();
    all.push((extra_key.to_string(), extra_value.to_string()));
    // Series labels are stored sorted by key; keep the exposition sorted
    // too so the added key lands in deterministic position.
    all.sort_by(|a, b| a.0.cmp(&b.0));
    render_labels(&all)
}

/// Timing and scan statistics for one stage of a traced query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTrace {
    /// Wall-clock time spent in the stage.
    pub duration: Duration,
}

/// A per-query record of the pipeline's stage breakdown (paper §4.1.1:
/// sketch → filter → rank).
///
/// Produced by the engine when telemetry is enabled and carried on
/// [`QueryResponse`](crate::engine::QueryResponse); the service keeps a
/// short ring of recent traces for the `/trace` endpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryTrace {
    /// Query mode, as displayed by
    /// [`QueryMode`](crate::engine::QueryMode).
    pub mode: String,
    /// Total query wall time.
    pub total: Duration,
    /// Sketching the query object (absent for sketch-seeded queries).
    pub sketch: Option<StageTrace>,
    /// The filtering scan (filter mode only).
    pub filter: Option<StageTrace>,
    /// Ranking the candidates.
    pub rank: Option<StageTrace>,
    /// Objects visited during scanning.
    pub objects_scanned: usize,
    /// Segment sketches compared during filtering.
    pub segments_scanned: usize,
    /// Candidate-set size entering the ranking stage.
    pub candidates: usize,
    /// Object-distance evaluations in the ranking stage.
    pub distance_evals: usize,
    /// Results returned.
    pub results: usize,
}

impl QueryTrace {
    /// Renders the trace as a JSON object (dependency-free, stable key
    /// order) for the web interface's `/trace` endpoint.
    pub fn to_json(&self) -> String {
        let stage = |s: &Option<StageTrace>| match s {
            Some(st) => format!("{{\"seconds\":{}}}", format_f64(st.duration.as_secs_f64())),
            None => "null".to_string(),
        };
        format!(
            "{{\"mode\":\"{}\",\"total_seconds\":{},\"sketch\":{},\"filter\":{},\"rank\":{},\"objects_scanned\":{},\"segments_scanned\":{},\"candidates\":{},\"distance_evals\":{},\"results\":{}}}",
            escape_label_value(&self.mode),
            format_f64(self.total.as_secs_f64()),
            stage(&self.sketch),
            stage(&self.filter),
            stage(&self.rank),
            self.objects_scanned,
            self.segments_scanned,
            self.candidates,
            self.distance_evals,
            self.results,
        )
    }
}

/// A stopwatch that is free when disabled: `None` takes no timestamps at
/// all, so a telemetry-off query executes exactly the code it did before
/// instrumentation existed.
#[derive(Debug, Clone, Copy)]
pub struct StageClock {
    start: Option<Instant>,
}

impl StageClock {
    /// Starts a clock; `enabled = false` never reads the system clock.
    pub fn start(enabled: bool) -> Self {
        Self {
            start: enabled.then(Instant::now),
        }
    }

    /// Elapsed time since start, if enabled.
    pub fn elapsed(&self) -> Option<Duration> {
        self.start.map(|s| s.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn duration_gauge_renders_seconds() {
        let reg = MetricsRegistry::new();
        reg.set_duration_gauge(
            "recovery_seconds",
            "Stage time.",
            &[("stage", "decode")],
            Duration::from_millis(1500),
        );
        reg.gauge("plain", "Plain.", &[]).set(1500);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE recovery_seconds gauge\n"), "{text}");
        assert!(
            text.contains("recovery_seconds{stage=\"decode\"} 1.5\n"),
            "{text}"
        );
        assert!(text.contains("plain 1500\n"), "{text}");
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 10, 11, 100, 5000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1 + 10 + 11 + 100 + 5000);
        // le=10 → 2, le=100 → 4, le=1000 → 4, +Inf → 5.
        assert_eq!(snap.cumulative, vec![2, 4, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[10, 10]);
    }

    #[test]
    fn registry_get_or_create_returns_same_series() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests_total", "Requests.", &[("endpoint", "/search")]);
        let b = reg.counter("requests_total", "Requests.", &[("endpoint", "/search")]);
        a.inc();
        b.add(2);
        assert_eq!(
            reg.counter_value("requests_total", &[("endpoint", "/search")]),
            Some(3)
        );
        // A different label set is a different series.
        assert_eq!(
            reg.counter_value("requests_total", &[("endpoint", "/attr")]),
            None
        );
        // Label order does not matter.
        let c = reg.counter("multi", "m", &[("b", "2"), ("a", "1")]);
        c.inc();
        assert_eq!(
            reg.counter_value("multi", &[("a", "1"), ("b", "2")]),
            Some(1)
        );
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_mismatch() {
        let reg = MetricsRegistry::new();
        reg.counter("thing", "a thing", &[]);
        reg.gauge("thing", "a thing", &[]);
    }

    #[test]
    fn exposition_format() {
        let reg = MetricsRegistry::new();
        reg.counter(
            "ferret_commands_total",
            "Commands executed.",
            &[("command", "query")],
        )
        .add(3);
        reg.gauge("ferret_objects", "Objects stored.", &[]).set(42);
        let h = reg.histogram(
            "ferret_stage_seconds",
            "Stage latency.",
            &[("stage", "filter")],
            &[1_000_000, 1_000_000_000],
            Unit::Nanoseconds,
        );
        h.observe(500_000); // 0.5 ms
        h.observe(2_000_000_000); // 2 s
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP ferret_commands_total Commands executed.\n"));
        assert!(text.contains("# TYPE ferret_commands_total counter\n"));
        assert!(text.contains("ferret_commands_total{command=\"query\"} 3\n"));
        assert!(text.contains("# TYPE ferret_objects gauge\n"));
        assert!(text.contains("ferret_objects 42\n"));
        assert!(text.contains("# TYPE ferret_stage_seconds histogram\n"));
        assert!(text.contains("ferret_stage_seconds_bucket{le=\"0.001\",stage=\"filter\"} 1\n"));
        assert!(text.contains("ferret_stage_seconds_bucket{le=\"1\",stage=\"filter\"} 1\n"));
        assert!(text.contains("ferret_stage_seconds_bucket{le=\"+Inf\",stage=\"filter\"} 2\n"));
        assert!(text.contains("ferret_stage_seconds_count{stage=\"filter\"} 2\n"));
        // Sum: 2.0005 seconds.
        assert!(text.contains("ferret_stage_seconds_sum{stage=\"filter\"} 2.0005\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("c", "h", &[("q", "a\"b\\c\nd")]).inc();
        let text = reg.render_prometheus();
        assert!(text.contains("c{q=\"a\\\"b\\\\c\\nd\"} 1\n"), "{text}");
    }

    #[test]
    fn trace_renders_json() {
        let trace = QueryTrace {
            mode: "filtering".into(),
            total: Duration::from_millis(5),
            sketch: Some(StageTrace {
                duration: Duration::from_micros(100),
            }),
            filter: Some(StageTrace {
                duration: Duration::from_millis(3),
            }),
            rank: Some(StageTrace {
                duration: Duration::from_millis(2),
            }),
            objects_scanned: 100,
            segments_scanned: 250,
            candidates: 12,
            distance_evals: 12,
            results: 10,
        };
        let json = trace.to_json();
        assert!(json.contains("\"mode\":\"filtering\""), "{json}");
        assert!(json.contains("\"sketch\":{\"seconds\":0.0001}"), "{json}");
        assert!(!json.contains("strategy"), "{json}");
        assert!(json.contains("\"candidates\":12"), "{json}");
        assert!(json.contains("\"filter\":{\"seconds\":0.003}"), "{json}");
        assert!(json.ends_with("\"results\":10}"), "{json}");
        assert!(!json.contains("null") || trace.sketch.is_none());
    }

    #[test]
    fn stage_clock_disabled_reads_nothing() {
        let clock = StageClock::start(false);
        assert_eq!(clock.elapsed(), None);
        let clock = StageClock::start(true);
        assert!(clock.elapsed().is_some());
    }
}
