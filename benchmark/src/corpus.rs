//! The four workloads: corpus shape, corpus generation and request
//! scripts, all derived from `--seed`.
//!
//! Corpora are Gaussian clusters in `[-1, 1]^D` with Zipf(1.0)-skewed
//! cluster sizes, written as `.fvec` files in 1000-file subdirectories
//! `dNNN/oNNNNNNN.fvec`. The importer assigns ids in sorted path order, so
//! object `i` gets id `i` and directory `dNNN` holds ids
//! `NNN*1000 .. NNN*1000+999`; the importer's automatic `dir` attribute
//! makes `attr="dir:dNNN"` select exactly that range.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::proto::Expect;
use crate::rng::{zipf_sizes, SplitMix64, Zipf};

pub const FILES_PER_DIR: usize = 1000;
/// `mixed-ingest-20k`: one tick of thread B.
pub const INGEST_TICK_SECS: u64 = 2;
pub const INGEST_FILES_PER_TICK: usize = 250;
pub const INGEST_DELETES_PER_TICK: usize = 25;
/// `frontend-zipf-20k`: distinct request lines, below the server's default
/// 128-entry result cache.
pub const POOL_LINES: usize = 96;
const POOL_ZIPF_S: f64 = 1.1;
const CLUSTER_ZIPF_S: f64 = 1.0;

/// What the connections send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Every connection walks its own slice of a seeded permutation of the
    /// ids, so no request line repeats and the result cache never hits.
    Distinct { k: usize, cand: Option<usize> },
    /// Zipf(1.1) draws from a fixed pool of [`POOL_LINES`] lines.
    Pool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub objects: usize,
    pub dim: usize,
    pub segments: (u64, u64),
    pub sigma: f64,
    pub clusters: usize,
    pub traffic: Traffic,
    /// Reader connections, each a closed loop.
    pub readers: usize,
    /// One more connection ingests beside the readers: every
    /// [`INGEST_TICK_SECS`] it deletes [`INGEST_DELETES_PER_TICK`] preloaded
    /// objects and adds [`INGEST_FILES_PER_TICK`] files.
    pub ingest: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "filter-50k",
        objects: 50_000,
        dim: 16,
        segments: (1, 5),
        sigma: 0.05,
        clusters: 1000,
        traffic: Traffic::Distinct { k: 10, cand: None },
        readers: 2,
        ingest: false,
    },
    Workload {
        name: "rank-20k",
        objects: 20_000,
        dim: 14,
        segments: (4, 8),
        sigma: 0.3,
        clusters: 200,
        traffic: Traffic::Distinct {
            k: 20,
            cand: Some(600),
        },
        readers: 2,
        ingest: false,
    },
    Workload {
        name: "frontend-zipf-20k",
        objects: 20_000,
        dim: 16,
        segments: (1, 5),
        sigma: 0.05,
        clusters: 1000,
        traffic: Traffic::Pool,
        // Its requests take ~15 us of CPU. Two ping-pong connections (two
        // client and two worker threads) oversubscribe a 2-core host so
        // that whole runs land in different scheduler regimes, and p99
        // moves by 2x between identical runs.
        readers: 1,
        ingest: false,
    },
    Workload {
        name: "mixed-ingest-20k",
        objects: 20_000,
        dim: 16,
        segments: (1, 5),
        sigma: 0.05,
        clusters: 1000,
        traffic: Traffic::Distinct { k: 10, cand: None },
        readers: 1,
        ingest: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).cloned()
    }

    /// The same workload over `objects` objects (`--smoke`). Clusters
    /// shrink with it so clusters keep several members.
    pub fn scaled(&self, objects: usize) -> Workload {
        Workload {
            objects,
            clusters: self.clusters.min((objects / 10).max(1)),
            ..self.clone()
        }
    }

    /// Ids `0..objects` in a seeded order. Readers, the ingest thread's
    /// deletes and the traced run's own deletes take disjoint slices of it.
    fn id_order(&self, seed: u64) -> Vec<u64> {
        let mut ids: Vec<u64> = (0..self.objects as u64).collect();
        SplitMix64::stream(seed, "id-order").shuffle(&mut ids);
        ids
    }

    /// Preloaded ids thread B deletes, in order, [`INGEST_DELETES_PER_TICK`]
    /// per tick. Taken from the tail of the id order, which readers never
    /// reach.
    pub fn delete_ids(&self, seed: u64, ticks: usize) -> Vec<u64> {
        let want = ticks * INGEST_DELETES_PER_TICK;
        let ids = self.id_order(seed);
        assert!(want * 4 <= ids.len(), "corpus too small for {ticks} ticks");
        ids[ids.len() - want..].to_vec()
    }

    /// Ids no reader names and the ingest thread never deletes: the slice
    /// just before the deletes'.
    pub fn spare_ids(&self, seed: u64, count: usize) -> Vec<u64> {
        let ids = self.id_order(seed);
        let end = ids.len() - ids.len() / 4;
        ids[end - count.min(end)..end].to_vec()
    }

    fn distinct_line(&self, id: u64, k: usize, cand: Option<usize>) -> Request {
        let mut line = format!("query id={id} k={k} mode=filter");
        if let Some(c) = cand {
            line.push_str(&format!(" cand={c}"));
        }
        Request {
            line,
            expect: Expect::text(id, k),
        }
    }

    /// The query shape the recall probe compares with `mode=brute`.
    pub fn recall_lines(&self, id: u64) -> (String, String) {
        let (k, cand) = match self.traffic {
            Traffic::Distinct { k, cand } => (k.max(10), cand),
            Traffic::Pool => (10, None),
        };
        let filter = self.distinct_line(id, k, cand).line;
        (filter, format!("query id={id} k={k} mode=brute"))
    }

    /// The request source of reader connection `conn`.
    pub fn requests(&self, seed: u64, conn: usize) -> RequestSource {
        match self.traffic {
            Traffic::Distinct { k, cand } => self.distinct_source(seed, conn, k, cand),
            Traffic::Pool => RequestSource::Pool {
                pool: self.pool(seed),
                zipf: Zipf::new(POOL_LINES, POOL_ZIPF_S),
                rng: SplitMix64::stream(seed, &format!("pool-draws-{conn}")),
            },
        }
    }

    fn distinct_source(
        &self,
        seed: u64,
        conn: usize,
        k: usize,
        cand: Option<usize>,
    ) -> RequestSource {
        // The first half of the id order is the readers'; connection c
        // takes positions c, c + readers, ...
        let ids = self.id_order(seed);
        let half = ids.len() / 2;
        let requests = ids[..half]
            .iter()
            .skip(conn)
            .step_by(self.readers)
            .map(|&id| self.distinct_line(id, k, cand))
            .collect();
        RequestSource::Script { requests, next: 0 }
    }

    /// The fixed pool of `frontend-zipf-20k`: 60 % plain text, 20 % JSON
    /// with `limit`/`minsim`, 10 % attribute pushdown, 10 % RRF fusion.
    /// The hybrid lines seed from inside the directory they name, so the
    /// seed object passes the restriction and still comes first.
    pub fn pool(&self, seed: u64) -> Vec<Request> {
        let mut rng = SplitMix64::stream(seed, "pool");
        let mut seen = std::collections::BTreeSet::new();
        let mut pool = Vec::with_capacity(POOL_LINES);
        while pool.len() < POOL_LINES {
            let id = rng.below(self.objects as u64);
            if !seen.insert(id) {
                continue;
            }
            let slot = pool.len() % 10;
            let d = id as usize / FILES_PER_DIR;
            let dir = dir_name(d);
            let dir_range = {
                let lo = (d * FILES_PER_DIR) as u64;
                (lo, (lo + FILES_PER_DIR as u64).min(self.objects as u64))
            };
            pool.push(match slot {
                0..=5 => self.distinct_line(id, 10, None),
                6 | 7 => Request {
                    line: format!("query id={id} k=10 mode=filter format=json limit=5 minsim=0.2"),
                    expect: Expect::json(id, 5, 0.2),
                },
                8 => Request {
                    line: format!("query id={id} k=10 mode=filter attr=\"dir:{dir}\""),
                    expect: Expect::text(id, 10).within(dir_range),
                },
                _ => Request {
                    line: format!("query id={id} k=10 mode=filter attr=\"dir:{dir}\" fusion=rrf"),
                    expect: Expect::fused(id, 10, dir_range),
                },
            });
        }
        pool
    }

    /// The first `n` request lines of connection `conn` (self-tests and
    /// the traced run's replay).
    pub fn script(&self, seed: u64, conn: usize, n: usize) -> Vec<Request> {
        let mut source = self.requests(seed, conn);
        (0..n).map(|_| source.next()).collect()
    }
}

/// One request line and what a correct reply to it looks like.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub line: String,
    pub expect: Expect,
}

pub enum RequestSource {
    Script {
        requests: Vec<Request>,
        next: usize,
    },
    Pool {
        pool: Vec<Request>,
        zipf: Zipf,
        rng: SplitMix64,
    },
}

impl RequestSource {
    /// Lines a connection sends once, in order, before it starts drawing:
    /// the whole pool, so that the result cache holds every line when the
    /// warm-up clock starts. Nothing for scripts.
    pub fn cache_fill(&self) -> &[Request] {
        match self {
            RequestSource::Script { .. } => &[],
            RequestSource::Pool { pool, .. } => pool,
        }
    }

    /// The corpora are sized so that a run never reaches the end of a
    /// script. `--smoke` does and starts over: a cyclic walk over more
    /// lines than the result cache holds still never hits an LRU cache.
    pub fn next(&mut self) -> Request {
        match self {
            RequestSource::Script { requests, next } => {
                let r = requests[*next % requests.len()].clone();
                *next += 1;
                r
            }
            RequestSource::Pool { pool, zipf, rng } => pool[zipf.sample(rng)].clone(),
        }
    }
}

/// The generated objects of one workload and seed.
pub struct Corpus {
    spec: Workload,
    centers: Vec<f32>,
    labels: Vec<u32>,
    object_base: u64,
}

impl Corpus {
    /// Lays out the clusters for `objects + extra` objects; the extra ones
    /// are `mixed-ingest-20k`'s staged batches, drawn from the same
    /// clusters.
    pub fn new(spec: &Workload, seed: u64, extra: usize) -> Self {
        let total = spec.objects + extra;
        let mut rng = SplitMix64::stream(seed, "centers");
        let centers = (0..spec.clusters * spec.dim)
            .map(|_| (rng.next_f64() * 1.6 - 0.8) as f32)
            .collect();
        let mut labels = Vec::with_capacity(total);
        for (cluster, size) in zipf_sizes(total, spec.clusters, CLUSTER_ZIPF_S)
            .into_iter()
            .enumerate()
        {
            labels.extend(std::iter::repeat_n(cluster as u32, size));
        }
        SplitMix64::stream(seed, "labels").shuffle(&mut labels);
        Self {
            spec: spec.clone(),
            centers,
            labels,
            object_base: SplitMix64::stream(seed, "objects").next_u64(),
        }
    }

    /// Seed ids for the recall probe: a systematic sample over the
    /// preloaded objects ordered by cluster, largest cluster first, so
    /// that every seed probes the same mix of crowded and sparse clusters.
    /// (Recall is far lower in the head clusters, where many segments
    /// share a sketch; a random sample makes the metric swing with how
    /// many probes happen to land there.) Ids in `exclude` are skipped.
    pub fn recall_ids(&self, count: usize, exclude: &[u64]) -> Vec<u64> {
        let n = self.spec.objects;
        let mut by_cluster: Vec<usize> = (0..n).collect();
        by_cluster.sort_by_key(|&i| (self.labels[i], i));
        (0..count)
            .filter_map(|j| {
                let at = (2 * j + 1) * n / (2 * count);
                by_cluster[at..]
                    .iter()
                    .map(|&i| i as u64)
                    .find(|id| !exclude.contains(id))
            })
            .collect()
    }

    fn file_name(i: usize) -> String {
        format!("o{i:07}.fvec")
    }

    /// Path of preloaded object `i` below the watch directory.
    pub fn watch_path(i: usize) -> PathBuf {
        PathBuf::from(dir_name(i / FILES_PER_DIR)).join(Self::file_name(i))
    }

    /// The `.fvec` text of object `i`. Each object has its own generator,
    /// so directories can be produced in any order or in parallel.
    pub fn fvec_text(&self, i: usize) -> String {
        let spec = &self.spec;
        let mut rng =
            SplitMix64::new(self.object_base ^ (i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let center = {
            let c = self.labels[i] as usize * spec.dim;
            &self.centers[c..c + spec.dim]
        };
        let segments = rng.range_inclusive(spec.segments.0, spec.segments.1);
        let mut out = String::with_capacity(segments as usize * (8 + 8 * spec.dim));
        for _ in 0..segments {
            use std::fmt::Write;
            write!(out, "{:.3}", 0.5 + rng.next_f64()).expect("write to String");
            for &c in center {
                let v = (f64::from(c) + spec.sigma * rng.gaussian()).clamp(-1.0, 1.0);
                write!(out, " {v:.4}").expect("write to String");
            }
            out.push('\n');
        }
        out
    }

    /// Writes objects `range` into the single directory `dir`.
    // The repository's clippy.toml reserves `fs::write` for the Vfs seam;
    // these are benchmark inputs, not the program's durable state.
    #[allow(clippy::disallowed_methods)]
    pub fn write_dir(&self, dir: &Path, range: std::ops::Range<usize>) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        for i in range {
            fs::write(dir.join(Self::file_name(i)), self.fvec_text(i))?;
        }
        Ok(())
    }

    /// Writes the preloaded objects below `watch` as `dNNN/` directories of
    /// [`FILES_PER_DIR`] files, on `threads` threads.
    pub fn write_watch_dir(&self, watch: &Path, threads: usize) -> io::Result<()> {
        let dirs = self.spec.objects.div_ceil(FILES_PER_DIR);
        let threads = threads.clamp(1, dirs.max(1));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        for d in (t..dirs).step_by(threads) {
                            let hi = ((d + 1) * FILES_PER_DIR).min(self.spec.objects);
                            self.write_dir(&watch.join(dir_name(d)), d * FILES_PER_DIR..hi)?;
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("corpus writer panicked"))
        })
    }

    /// Writes staged batch `tick` of `mixed-ingest-20k` as the directory
    /// the ingest thread later renames into the watch directory; returns
    /// its path. Batch directories continue the watch directory's
    /// numbering, so the importer hands out ids in batch order.
    pub fn write_staged_batch(&self, staging: &Path, tick: usize) -> io::Result<PathBuf> {
        let lo = self.spec.objects + tick * INGEST_FILES_PER_TICK;
        let dir = staging.join(dir_name(self.spec.objects.div_ceil(FILES_PER_DIR) + tick));
        self.write_dir(&dir, lo..lo + INGEST_FILES_PER_TICK)?;
        Ok(dir)
    }
}

pub fn dir_name(d: usize) -> String {
    format!("d{d:03}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str) -> Workload {
        Workload::by_name(name).unwrap().scaled(2000)
    }

    fn corpus_bytes(spec: &Workload, seed: u64) -> Vec<u8> {
        let corpus = Corpus::new(spec, seed, 0);
        (0..spec.objects)
            .flat_map(|i| corpus.fvec_text(i).into_bytes())
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_corpus_and_script() {
        for w in &WORKLOADS {
            let spec = w.scaled(2000);
            assert_eq!(corpus_bytes(&spec, 5), corpus_bytes(&spec, 5), "{}", w.name);
            for conn in 0..spec.readers {
                assert_eq!(spec.script(5, conn, 300), spec.script(5, conn, 300));
            }
        }
    }

    #[test]
    fn other_seed_gives_other_ids_but_the_same_sizes() {
        let spec = small("filter-50k");
        assert_ne!(corpus_bytes(&spec, 5), corpus_bytes(&spec, 6));
        let (a, b) = (spec.script(5, 0, 300), spec.script(6, 0, 300));
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
        // Cluster sizes do not depend on the seed.
        let sizes = |seed| {
            let mut counts = vec![0usize; spec.clusters];
            for &l in &Corpus::new(&spec, seed, 0).labels {
                counts[l as usize] += 1;
            }
            counts
        };
        assert_eq!(sizes(5), sizes(6));
        assert_eq!(sizes(5), zipf_sizes(2000, spec.clusters, 1.0));
    }

    #[test]
    fn fvec_text_has_the_declared_shape() {
        let spec = small("rank-20k");
        let corpus = Corpus::new(&spec, 1, 0);
        for i in [0, 1, 1999] {
            let text = corpus.fvec_text(i);
            let lines: Vec<&str> = text.lines().collect();
            assert!((4..=8).contains(&lines.len()), "{} segments", lines.len());
            for line in lines {
                let nums: Vec<f64> = line.split(' ').map(|t| t.parse().unwrap()).collect();
                assert_eq!(nums.len(), 1 + spec.dim);
                assert!((0.5..=1.5).contains(&nums[0]));
                assert!(nums[1..].iter().all(|v| (-1.0..=1.0).contains(v)));
            }
        }
    }

    #[test]
    fn distinct_scripts_never_repeat_and_avoid_deleted_and_spare_ids() {
        let spec = small("mixed-ingest-20k");
        let script = spec.script(9, 0, 1000);
        assert_eq!(
            spec.script(9, 0, 1001)[1000],
            script[0],
            "then it starts over"
        );
        let lines: std::collections::BTreeSet<&str> =
            script.iter().map(|r| r.line.as_str()).collect();
        assert_eq!(lines.len(), script.len());
        let queried: std::collections::BTreeSet<u64> =
            script.iter().map(|r| r.expect.seed_id).collect();
        let deleted = spec.delete_ids(9, 5);
        assert_eq!(deleted.len(), 5 * INGEST_DELETES_PER_TICK);
        let spare = spec.spare_ids(9, 50);
        assert_eq!(spare.len(), 50);
        assert!(deleted.iter().all(|id| !queried.contains(id)));
        assert!(spare.iter().all(|id| !queried.contains(id)));
        assert!(spare.iter().all(|id| !deleted.contains(id)));
    }

    #[test]
    fn recall_probe_samples_the_same_clusters_for_every_seed() {
        let spec = small("filter-50k");
        let clusters = |seed| -> Vec<u32> {
            let corpus = Corpus::new(&spec, seed, 0);
            let ids = corpus.recall_ids(25, &[]);
            assert_eq!(ids.len(), 25);
            ids.iter().map(|&id| corpus.labels[id as usize]).collect()
        };
        assert_eq!(clusters(5), clusters(6));
        assert_eq!(
            clusters(5)[0],
            0,
            "the first probe is in the largest cluster"
        );
        // Excluded ids are replaced by a neighbour in the same order.
        let corpus = Corpus::new(&spec, 5, 0);
        let ids = corpus.recall_ids(25, &[]);
        let without = corpus.recall_ids(25, &ids[..3]);
        assert_eq!(without.len(), 25);
        assert!(ids[..3].iter().all(|id| !without.contains(id)));
        assert_eq!(ids[3..], without[3..]);
    }

    #[test]
    fn two_readers_split_the_ids() {
        let spec = small("filter-50k");
        let a: Vec<u64> = spec
            .script(2, 0, 500)
            .iter()
            .map(|r| r.expect.seed_id)
            .collect();
        let b: Vec<u64> = spec
            .script(2, 1, 500)
            .iter()
            .map(|r| r.expect.seed_id)
            .collect();
        assert!(a.iter().all(|id| !b.contains(id)));
    }

    #[test]
    fn pool_has_the_declared_mix_and_fills_the_cache_first() {
        let spec = small("frontend-zipf-20k");
        let pool = spec.pool(4);
        assert_eq!(pool.len(), POOL_LINES);
        let count = |needle: &str| pool.iter().filter(|r| r.line.contains(needle)).count();
        assert_eq!(count("format=json"), 18);
        assert_eq!(count("fusion=rrf"), 9);
        assert_eq!(count("attr="), 18);
        let lines: std::collections::BTreeSet<&str> =
            pool.iter().map(|r| r.line.as_str()).collect();
        assert_eq!(lines.len(), POOL_LINES, "pool lines are distinct");
        // A reader fills the cache with the whole pool, then draws.
        let source = spec.requests(4, 0);
        assert_eq!(source.cache_fill(), &pool[..]);
        assert!(spec.requests(4, 0).cache_fill() == source.cache_fill());
        assert!(small("filter-50k").requests(4, 0).cache_fill().is_empty());
        let script = spec.script(4, 0, 2000);
        let head = script.iter().filter(|r| **r == pool[0]).count();
        let tail = script.iter().filter(|r| **r == pool[95]).count();
        assert!(head > 10 * tail.max(1), "Zipf head {head} vs tail {tail}");
    }

    #[test]
    fn files_land_in_thousand_file_directories() {
        let spec = small("mixed-ingest-20k");
        let corpus = Corpus::new(&spec, 3, 2 * INGEST_FILES_PER_TICK);
        let root = std::env::temp_dir().join(format!("ferret-bench-corpus-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        corpus.write_watch_dir(&root.join("watch"), 2).unwrap();
        let staged = corpus.write_staged_batch(&root.join("staging"), 1).unwrap();
        let count = |dir: &Path| fs::read_dir(dir).unwrap().count();
        assert_eq!(count(&root.join("watch")), 2);
        assert_eq!(count(&root.join("watch").join("d000")), 1000);
        assert_eq!(count(&root.join("watch").join("d001")), 1000);
        assert_eq!(staged, root.join("staging").join("d003"));
        assert_eq!(count(&staged), INGEST_FILES_PER_TICK);
        assert!(staged.join("o0002250.fvec").exists());
        let text = fs::read_to_string(root.join("watch/d001/o0001234.fvec")).unwrap();
        assert_eq!(text, corpus.fvec_text(1234));
        fs::remove_dir_all(&root).unwrap();
    }
}
