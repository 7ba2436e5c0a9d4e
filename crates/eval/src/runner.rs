//! The batch query runner: drives an engine with a benchmark suite and
//! collects quality and timing statistics (paper §4.3: "once the benchmark
//! file is given, we are able to drive the test and provide statistics like
//! average precision and time spent for the query").

use std::time::Duration;

use ferret_core::engine::{QueryOptions, SearchEngine};
use ferret_core::error::Result;
use ferret_core::object::ObjectId;

use crate::benchmark::BenchmarkSuite;
use crate::metrics::{score_query, QualityAccumulator, QualityScores};

/// Latency statistics over a batch of queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingStats {
    /// Number of timed queries.
    pub count: usize,
    /// Mean latency.
    pub mean: Duration,
    /// Median latency.
    pub median: Duration,
    /// 95th-percentile latency.
    pub p95: Duration,
    /// Minimum latency.
    pub min: Duration,
    /// Maximum latency.
    pub max: Duration,
}

impl TimingStats {
    /// Computes statistics from raw latencies (empty input gives zeros).
    pub fn from_durations(mut durations: Vec<Duration>) -> Self {
        if durations.is_empty() {
            return Self {
                count: 0,
                mean: Duration::ZERO,
                median: Duration::ZERO,
                p95: Duration::ZERO,
                min: Duration::ZERO,
                max: Duration::ZERO,
            };
        }
        durations.sort_unstable();
        let count = durations.len();
        let total: Duration = durations.iter().sum();
        let pick = |q: f64| durations[((count - 1) as f64 * q).round() as usize];
        Self {
            count,
            mean: total / count as u32,
            median: pick(0.5),
            p95: pick(0.95),
            min: durations[0],
            max: durations[count - 1],
        }
    }
}

/// Per-set detail of a suite run.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Name of the similarity set.
    pub set_name: String,
    /// The seed object used as the query.
    pub query: ObjectId,
    /// Quality scores of this query.
    pub scores: QualityScores,
    /// Latency of this query.
    pub elapsed: Duration,
    /// Candidates ranked (object-distance evaluations).
    pub distance_evals: usize,
}

/// Mean per-stage durations aggregated from query traces (present only
/// when the engine runs with telemetry enabled; see
/// [`SearchEngine::set_telemetry`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Queries that contributed a trace.
    pub traced: usize,
    /// Mean time sketching the query object.
    pub sketch: Duration,
    /// Mean time scanning sketches for candidates.
    pub filter: Duration,
    /// Mean time ranking candidates with the object distance.
    pub rank: Duration,
}

impl StageBreakdown {
    /// Folds one query trace into the running totals (call [`Self::finish`]
    /// afterwards to convert totals into means).
    fn accumulate(&mut self, trace: &ferret_core::telemetry::QueryTrace) {
        self.traced += 1;
        if let Some(s) = &trace.sketch {
            self.sketch += s.duration;
        }
        if let Some(s) = &trace.filter {
            self.filter += s.duration;
        }
        if let Some(s) = &trace.rank {
            self.rank += s.duration;
        }
    }

    /// Converts accumulated totals into means; `None` if nothing was traced.
    fn finish(self) -> Option<Self> {
        (self.traced > 0).then(|| {
            let n = self.traced as u32;
            Self {
                traced: self.traced,
                sketch: self.sketch / n,
                filter: self.filter / n,
                rank: self.rank / n,
            }
        })
    }
}

/// The aggregate result of running a benchmark suite.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Mean quality over all queries.
    pub quality: QualityScores,
    /// Latency statistics.
    pub timing: TimingStats,
    /// Mean number of object-distance evaluations per query.
    pub avg_distance_evals: f64,
    /// Per-query details.
    pub outcomes: Vec<QueryOutcome>,
    /// Mean per-stage latency, when the engine produced query traces.
    pub stages: Option<StageBreakdown>,
}

/// Runs every similarity set of `suite` against `engine`.
///
/// For each set, the first member seeds the query (as in §6.3.1). The
/// requested result count is raised to at least `2(|Q|−1) + 1` so the
/// second-tier metric is computable.
pub fn run_suite(
    engine: &SearchEngine,
    suite: &BenchmarkSuite,
    options: &QueryOptions,
) -> Result<SuiteResult> {
    let mut acc = QualityAccumulator::new();
    let mut durations = Vec::with_capacity(suite.len());
    let mut outcomes = Vec::with_capacity(suite.len());
    let mut total_evals = 0usize;
    let mut stages = StageBreakdown::default();
    for set in &suite.sets {
        let query = set.members[0];
        let mut opts = options.clone();
        opts.k = opts.k.max(2 * (set.members.len() - 1) + 1);
        let resp = engine.query_by_id(query, &opts)?;
        if let Some(trace) = &resp.trace {
            stages.accumulate(trace);
        }
        let ranked: Vec<ObjectId> = resp.results.iter().map(|r| r.id).collect();
        let Some(scores) = score_query(query, &set.members, &ranked, engine.len()) else {
            continue;
        };
        acc.add(scores);
        durations.push(resp.stats.elapsed);
        total_evals += resp.stats.distance_evals;
        outcomes.push(QueryOutcome {
            set_name: set.name.clone(),
            query,
            scores,
            elapsed: resp.stats.elapsed,
            distance_evals: resp.stats.distance_evals,
        });
    }
    let quality = acc.mean().unwrap_or(QualityScores {
        first_tier: 0.0,
        second_tier: 0.0,
        average_precision: 0.0,
    });
    let count = acc.count().max(1);
    Ok(SuiteResult {
        quality,
        timing: TimingStats::from_durations(durations),
        avg_distance_evals: total_evals as f64 / count as f64,
        outcomes,
        stages: stages.finish(),
    })
}

/// Times a batch of seed queries without quality scoring (the search-speed
/// benchmark suite of §6.1).
pub fn time_queries(
    engine: &SearchEngine,
    seeds: &[ObjectId],
    options: &QueryOptions,
) -> Result<TimingStats> {
    let mut durations = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let resp = engine.query_by_id(seed, options)?;
        durations.push(resp.stats.elapsed);
    }
    Ok(TimingStats::from_durations(durations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferret_core::engine::SearchEngine;
    use ferret_core::object::DataObject;
    use ferret_core::sketch::SketchParams;
    use ferret_core::vector::FeatureVector;

    fn engine_with_clusters() -> (SearchEngine, BenchmarkSuite) {
        let params = SketchParams::new(256, vec![0.0; 4], vec![1.0; 4]).unwrap();
        let mut engine = SearchEngine::builder(params, 11).build().unwrap();
        // Two clusters of 3 objects each + 4 distractors.
        let mut id = 0u64;
        let mut sets = Vec::new();
        for base in [0.1f32, 0.7] {
            let mut set = Vec::new();
            for j in 0..3 {
                let x = base + j as f32 * 0.01;
                let obj = DataObject::single(FeatureVector::new(vec![x, x, x, x]).unwrap());
                engine.insert(ObjectId(id), obj).unwrap();
                set.push(ObjectId(id));
                id += 1;
            }
            sets.push(set);
        }
        for j in 0..4 {
            let x = 0.35 + j as f32 * 0.02;
            let obj = DataObject::single(FeatureVector::new(vec![x, 0.9, x, 0.2]).unwrap());
            engine.insert(ObjectId(id), obj).unwrap();
            id += 1;
        }
        (engine, BenchmarkSuite::from_sets(&sets))
    }

    #[test]
    fn run_suite_scores_clusters_perfectly() {
        let (engine, suite) = engine_with_clusters();
        let result = run_suite(&engine, &suite, &QueryOptions::brute_force(1)).unwrap();
        assert_eq!(result.outcomes.len(), 2);
        assert!((result.quality.average_precision - 1.0).abs() < 1e-9);
        assert!((result.quality.first_tier - 1.0).abs() < 1e-9);
        assert_eq!(result.timing.count, 2);
        assert!(result.avg_distance_evals >= 1.0);
    }

    #[test]
    fn run_suite_raises_k_for_second_tier() {
        let (engine, suite) = engine_with_clusters();
        // k = 1 must internally become >= 2*(3-1)+1 = 5.
        let result = run_suite(&engine, &suite, &QueryOptions::brute_force(1)).unwrap();
        // Second tier computable and perfect.
        assert!((result.quality.second_tier - 1.0).abs() < 1e-9);
    }

    #[test]
    fn time_queries_returns_stats() {
        let (engine, _) = engine_with_clusters();
        let seeds = vec![ObjectId(0), ObjectId(3), ObjectId(6)];
        let stats = time_queries(&engine, &seeds, &QueryOptions::brute_force(3)).unwrap();
        assert_eq!(stats.count, 3);
        assert!(stats.max >= stats.min);
        assert!(stats.mean > Duration::ZERO);
    }

    #[test]
    fn timing_stats_math() {
        let ms = |v: u64| Duration::from_millis(v);
        let stats = TimingStats::from_durations(vec![ms(10), ms(20), ms(30), ms(40), ms(100)]);
        assert_eq!(stats.count, 5);
        assert_eq!(stats.median, ms(30));
        assert_eq!(stats.min, ms(10));
        assert_eq!(stats.max, ms(100));
        assert_eq!(stats.mean, ms(40));
        assert_eq!(stats.p95, ms(100));
        let empty = TimingStats::from_durations(vec![]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean, Duration::ZERO);
    }

    #[test]
    fn stage_breakdown_present_only_with_telemetry() {
        let (mut engine, suite) = engine_with_clusters();
        let result = run_suite(&engine, &suite, &QueryOptions::default()).unwrap();
        assert!(result.stages.is_none());

        let registry = std::sync::Arc::new(ferret_core::telemetry::MetricsRegistry::new());
        engine.set_telemetry(Some(registry));
        let result = run_suite(&engine, &suite, &QueryOptions::default()).unwrap();
        let stages = result.stages.expect("traces collected");
        assert_eq!(stages.traced, 2);
        assert!(stages.sketch > Duration::ZERO);
        assert!(stages.filter > Duration::ZERO);
    }

    #[test]
    fn unknown_seed_errors() {
        let (engine, _) = engine_with_clusters();
        let suite = BenchmarkSuite::from_sets(&[vec![ObjectId(999), ObjectId(0)]]);
        assert!(run_suite(&engine, &suite, &QueryOptions::brute_force(1)).is_err());
    }
}
