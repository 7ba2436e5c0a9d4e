//! The closed-loop load generator: one thread per connection, each sending
//! its next request only after the previous reply, never more than two
//! connections.

use std::fs;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::corpus::{RequestSource, INGEST_DELETES_PER_TICK, INGEST_TICK_SECS};
use crate::proto::{Client, Reply};
use crate::stats::Sample;

/// Operations attempted and failed. `ERR`, `BUSY`, a timeout, a closed
/// socket and a reply that fails the checker all count as failed and
/// yield no latency sample.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(why);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 5usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// The ingest connection of `mixed-ingest-20k` (thread B): every
/// [`INGEST_TICK_SECS`] it deletes the next [`INGEST_DELETES_PER_TICK`] of
/// `deletes`, then
/// renames one staged directory of new files into the watch directory.
/// Deletes come first so that the rescan which picks the files up also
/// flushes them: the server's WAL buffers commits, and only a scan that
/// changed something forces a flush.
pub struct IngestPlan {
    pub staged: Vec<PathBuf>,
    pub watch: PathBuf,
    pub deletes: Vec<u64>,
}

/// What the ingest thread got done.
#[derive(Debug, Default)]
pub struct IngestDone {
    pub ticks: usize,
    pub deleted: Vec<u64>,
}

pub struct LoadResult {
    /// Successful queries of the timed phase, ordered by completion.
    pub samples: Vec<Sample>,
    /// Every operation of warm-up and timed phase, ingest included.
    pub tally: Tally,
    pub ingest: IngestDone,
    /// Wall time of the warm-up, cache fill included.
    pub warmup: Duration,
}

/// Runs `warmup` then `measure` of traffic against `addr`. Readers run
/// through both phases without a pause; only requests sent in the timed
/// phase yield samples. The ingest thread, if any, starts with the timed
/// phase.
pub fn run(
    addr: SocketAddr,
    sources: Vec<RequestSource>,
    ingest: Option<IngestPlan>,
    warmup: Duration,
    measure: Duration,
) -> Result<LoadResult, String> {
    let begin = Instant::now();
    // The warm-up clock starts once every connection has filled the cache.
    let mut clients = Vec::new();
    let mut tally = Tally::default();
    for source in &sources {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        for request in source.cache_fill() {
            tally.record(exchange(&mut client, &request.line, |r| {
                request.expect.check(r).map(drop)
            }));
        }
        clients.push(client);
    }
    let timed_from = Instant::now() + warmup;
    let until = timed_from + measure;

    let (readers, ingest_done) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(sources)
            .map(|(client, source)| {
                scope.spawn(move || reader(addr, client, source, timed_from, until))
            })
            .collect();
        let ingest_handle =
            ingest.map(|plan| scope.spawn(move || ingest_loop(addr, plan, timed_from, until)));
        let readers: Vec<ReaderDone> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        let ingest_done = ingest_handle.map(|h| h.join().expect("ingest thread panicked"));
        (readers, ingest_done)
    });

    let mut samples = Vec::new();
    for done in readers {
        samples.extend(done.samples);
        tally.merge(done.tally);
    }
    samples.sort_by_key(|s| s.done);
    let mut ingest = IngestDone::default();
    if let Some((done, ingest_tally)) = ingest_done {
        ingest = done;
        tally.merge(ingest_tally);
    }
    Ok(LoadResult {
        samples,
        tally,
        ingest,
        warmup: timed_from - begin,
    })
}

/// Sends one line and judges the reply; the error says what went wrong.
fn exchange(
    client: &mut Client,
    line: &str,
    judge: impl FnOnce(&Reply) -> Result<(), String>,
) -> Result<(), String> {
    match client.send(line) {
        Ok(reply) => judge(&reply).map_err(|why| format!("{line:?}: {why}")),
        Err(e) => Err(format!("{line:?}: {e}")),
    }
}

struct ReaderDone {
    samples: Vec<Sample>,
    tally: Tally,
}

fn reader(
    addr: SocketAddr,
    mut client: Client,
    mut source: RequestSource,
    timed_from: Instant,
    until: Instant,
) -> ReaderDone {
    let mut done = ReaderDone {
        samples: Vec::new(),
        tally: Tally::default(),
    };
    loop {
        let sent = Instant::now();
        if sent >= until {
            return done;
        }
        let request = source.next();
        let outcome = exchange(&mut client, &request.line, |r| {
            request.expect.check(r).map(drop)
        });
        let received = Instant::now();
        // A request belongs to the phase it was sent in; one that started
        // in time but finished after `until` still counts.
        if outcome.is_ok() {
            if sent >= timed_from {
                done.samples.push(Sample {
                    done: received - timed_from,
                    latency: received - sent,
                });
            }
        } else if let Ok(fresh) = Client::connect(addr) {
            // A timed-out or closed connection may hold half a reply.
            client = fresh;
        }
        done.tally.record(outcome);
    }
}

fn ingest_loop(
    addr: SocketAddr,
    plan: IngestPlan,
    timed_from: Instant,
    until: Instant,
) -> (IngestDone, Tally) {
    let mut done = IngestDone::default();
    let mut tally = Tally::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.record(Err(format!("ingest connection: {e}")));
            return (done, tally);
        }
    };
    let mut deletes = plan.deletes.chunks(INGEST_DELETES_PER_TICK);
    for (tick, staged) in plan.staged.iter().enumerate() {
        let due = timed_from + Duration::from_secs(INGEST_TICK_SECS) * tick as u32;
        // The last tick must leave the rescan time to land before `until`.
        if due + Duration::from_secs(INGEST_TICK_SECS) > until {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        for &id in deletes.next().unwrap_or_default() {
            let outcome = exchange(&mut client, &format!("delete id={id}"), |r| match r {
                Reply::Ack => Ok(()),
                other => Err(format!("{other:?}")),
            });
            if outcome.is_ok() {
                done.deleted.push(id);
            }
            tally.record(outcome);
        }
        let name = staged.file_name().expect("staged directory has a name");
        tally.record(
            fs::rename(staged, plan.watch.join(name))
                .map_err(|e| format!("rename {}: {e}", staged.display())),
        );
        done.ticks = tick + 1;
    }
    (done, tally)
}
