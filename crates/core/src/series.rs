//! Canonical catalog of every telemetry series the toolkit emits.
//!
//! This is the single eager-registration block the `ferret-lint`
//! `eager-metrics` rule cross-checks: a `ferret_*` series name used at a
//! `counter`/`gauge`/`histogram` call site anywhere in non-test code must
//! have an entry here (and a row in DESIGN.md §5.1's series table), so the
//! `/metrics` surface is a reviewed, documented contract rather than an
//! accident of which code paths ran.
//!
//! [`MetricsRegistry::register_catalog`](crate::telemetry::MetricsRegistry::register_catalog)
//! walks this table at service start-up and creates every family up front,
//! so `# HELP` / `# TYPE` headers for the full surface are visible from the
//! first scrape even before any samples exist.

/// Prometheus metric kind of a cataloged series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotonically increasing counter (name conventionally ends `_total`).
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Point-in-time duration: nanoseconds rendered as seconds.
    DurationGauge,
    /// Bucketed distribution. `nanos` selects second-rendered latency
    /// buckets; otherwise raw size buckets.
    Histogram {
        /// True when observations are nanoseconds rendered as seconds.
        nanos: bool,
    },
}

/// One documented telemetry series.
#[derive(Debug, Clone, Copy)]
pub struct SeriesDef {
    /// Fully qualified series name (`ferret_*`).
    pub name: &'static str,
    /// Metric kind; must match every call site (the registry panics on a
    /// kind mismatch, so drift fails fast in tests).
    pub kind: SeriesKind,
    /// Prometheus help text, canonical for all call sites.
    pub help: &'static str,
}

const C: SeriesKind = SeriesKind::Counter;
const G: SeriesKind = SeriesKind::Gauge;
const GD: SeriesKind = SeriesKind::DurationGauge;
const HL: SeriesKind = SeriesKind::Histogram { nanos: true };
const HS: SeriesKind = SeriesKind::Histogram { nanos: false };

macro_rules! series {
    ($($name:literal, $kind:expr, $help:literal;)*) => {
        &[$(SeriesDef { name: $name, kind: $kind, help: $help }),*]
    };
}

/// Every series the toolkit emits, sorted by name (enforced by a test).
pub const SERIES: &[SeriesDef] = series![
    "ferret_cache_evictions_total", C, "Result-cache entries evicted (LRU or epoch invalidation).";
    "ferret_cache_hits_total", C, "Result-cache lookups served from cache.";
    "ferret_cache_memory_bytes", G, "Approximate resident size of the result cache.";
    "ferret_cache_misses_total", C, "Result-cache lookups that fell through to the engine.";
    "ferret_commands_total", C, "Protocol commands executed, by command.";
    "ferret_compaction_seconds", HL, "Latency of segment compaction merges.";
    "ferret_compactions_total", C, "Segment compaction merges completed.";
    "ferret_fusion_queries_total", C, "Hybrid queries executed, by fusion mode.";
    "ferret_http_request_seconds", HL, "HTTP request latency, by endpoint.";
    "ferret_http_requests_total", C, "HTTP requests served, by endpoint and status.";
    "ferret_inflight_queries", G, "Queries currently admitted and executing.";
    "ferret_inflight_queries_peak", G, "High-water mark of concurrently executing queries.";
    "ferret_insert_batch_size", HS, "Objects per insert batch.";
    "ferret_inserts_total", C, "Objects inserted.";
    "ferret_lock_wait_seconds", HL, "Time spent waiting for the service lock, by operation class.";
    "ferret_memory_bytes", G, "Estimated resident bytes, by component (originals, sketches, attr, db_tables, cache, importer).";
    "ferret_memtable_objects", G, "Objects in the mutable memtable awaiting seal.";
    "ferret_pushdown_queries_total", C, "Filter-stage queries that carried an attribute candidate set.";
    "ferret_pushdown_skipped_total", C, "Objects excluded before heap admission by predicate pushdown.";
    "ferret_queries_total", C, "Similarity queries executed, by mode.";
    "ferret_query_candidates", HS, "Candidate-set size entering the ranking stage.";
    "ferret_query_distance_evals_total", C, "Object-distance evaluations in the ranking stage.";
    "ferret_query_objects_scanned_total", C, "Objects scanned in the filtering stage.";
    "ferret_query_seconds", HL, "End-to-end query latency, by mode.";
    "ferret_query_segments_scanned_total", C, "Segment sketches compared in the filtering stage.";
    "ferret_query_stage_seconds", HL, "Per-stage query latency, by stage.";
    "ferret_recovery_seconds", GD, "Wall time of each stage of the last cold start (db_open, decode, sketch_index, attrs, importer_state, initial_scan).";
    "ferret_rejected_total", C, "Queries rejected by admission control.";
    "ferret_segments", G, "Immutable sealed segments in the engine.";
    "ferret_sketch_build_seconds", HL, "Sketch-construction latency per ingest batch.";
    "ferret_sketch_objects_per_sec", G, "Ingest sketch-construction throughput of the most recent batch.";
    "ferret_sketch_objects_total", C, "Objects sketched on the ingest path.";
    "ferret_sketch_out_of_range_total", C, "Objects inserted with at least one component outside the calibrated sketch range.";
    "ferret_store_errors_total", C, "Store-layer failures surfaced by the service, by operation.";
];

/// Looks up a series definition by name.
pub fn lookup(name: &str) -> Option<&'static SeriesDef> {
    SERIES
        .binary_search_by(|def| def.name.cmp(name))
        .ok()
        .map(|i| &SERIES[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_unique_and_well_named() {
        for pair in SERIES.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "catalog must stay sorted and duplicate-free: {} vs {}",
                pair[0].name,
                pair[1].name
            );
        }
        for def in SERIES {
            assert!(def.name.starts_with("ferret_"), "bad prefix: {}", def.name);
            assert!(!def.help.is_empty(), "missing help: {}", def.name);
            if def.kind == SeriesKind::Counter {
                assert!(
                    def.name.ends_with("_total"),
                    "counters use the _total suffix: {}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn lookup_finds_every_entry() {
        for def in SERIES {
            assert_eq!(lookup(def.name).map(|d| d.name), Some(def.name));
        }
        assert!(lookup("ferret_nonexistent").is_none());
    }
}
