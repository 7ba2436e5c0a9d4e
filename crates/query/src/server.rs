//! One serving implementation for both surfaces.
//!
//! "When the core components of the toolkit run as a server, we found it
//! very convenient to allow clients to issue queries" (paper §4.1.4). A
//! [`Server`] serves one bound listener in one [`Protocol`]: the line
//! protocol, or the web interface (§4.3), which is a thin front end over
//! the same commands. Every listener runs the same code:
//!
//! * One accept loop blocks in `accept` and hands each connection to the
//!   listener's own fixed pool of workers through a bounded queue (four
//!   connections per worker). When the queue is full, a new connection
//!   gets one `BUSY` line or a 503 and is closed.
//! * One [`Dispatcher`], shared by every listener, runs each command: a
//!   similarity query is admitted by the [`AdmissionControl`] first, then
//!   the service lock is taken, shared for reads ([`Command::is_read`])
//!   and exclusive for `delete`, and the wait is recorded. A saturated
//!   server answers `BUSY`/503 at once instead of queueing.
//! * Stopping drains gracefully: workers finish the command in flight,
//!   then close their connections.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use ferret_core::telemetry::MetricsRegistry;

use crate::admission::AdmissionControl;
use crate::protocol::{
    parse_command, render_error, render_reply, Command, ProtocolError, Response, BUSY_LINE,
};
use crate::service::{FerretService, ServiceError};

/// Runs the commands of every connection of every listener: one service,
/// one admission controller, and the one place that takes the service
/// lock.
pub struct Dispatcher {
    service: Arc<RwLock<FerretService>>,
    admission: Arc<AdmissionControl>,
    registry: Option<Arc<MetricsRegistry>>,
}

impl Dispatcher {
    /// A dispatcher over `service` whose similarity queries `admission`
    /// meters. Share one between listeners to cap in-flight queries
    /// across both surfaces.
    pub fn new(service: Arc<RwLock<FerretService>>, admission: Arc<AdmissionControl>) -> Self {
        let registry = service.read().telemetry().cloned();
        Self {
            service,
            admission,
            registry,
        }
    }

    pub(crate) fn service(&self) -> &RwLock<FerretService> {
        &self.service
    }

    pub(crate) fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.registry.as_ref()
    }

    /// Runs one command. A similarity query takes an admission slot
    /// before the service lock and holds it until the command is done;
    /// `None` means admission turned it away, and the surface answers
    /// `BUSY`/503. The lock is shared for reads and exclusive for
    /// writes, and its wait is recorded in `ferret_lock_wait_seconds`.
    pub(crate) fn dispatch(&self, command: &Command) -> Option<Result<Response, ServiceError>> {
        let _slot = match command {
            Command::Query { .. } => Some(self.admission.try_admit()?),
            _ => None,
        };
        let start = Instant::now();
        if command.is_read() {
            let svc = self.service.read();
            self.observe_lock_wait("read", start.elapsed());
            Some(svc.execute_read(command))
        } else {
            let mut svc = self.service.write();
            self.observe_lock_wait("write", start.elapsed());
            Some(svc.execute(command))
        }
    }

    fn observe_lock_wait(&self, lock: &str, waited: Duration) {
        if let Some(reg) = &self.registry {
            reg.observe_latency(
                "ferret_lock_wait_seconds",
                "Time spent waiting for the service lock, by lock kind.",
                &[("lock", lock)],
                waited,
            );
        }
    }
}

/// What a listener speaks, which picks the handler of each connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The line protocol (paper §4.1.4): a session of commands per
    /// connection.
    Line,
    /// The web interface (§4.3): one HTTP request per connection.
    Http,
}

/// Connections accepted but not yet taken by a worker.
struct ConnQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    depth: usize,
}

impl ConnQueue {
    fn new(depth: usize) -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Locks the queue, recovering it from a poisoned lock: the lock is
    /// held only around a `push_back`/`pop_front`, which a panic cannot
    /// leave half done.
    fn lock(&self) -> MutexGuard<'_, VecDeque<TcpStream>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues a connection; on a full queue the stream is handed back
    /// so the caller can reject it.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.lock();
        if q.len() >= self.depth {
            return Err(stream);
        }
        q.push_back(stream);
        self.ready.notify_one();
        Ok(())
    }

    /// Pops the next connection, or `None` once `shutdown` is set.
    fn pop(&self, shutdown: &AtomicBool) -> Option<TcpStream> {
        let mut q = self.lock();
        loop {
            // ordering: Relaxed; flag only ends the wait loop, queue mutex + join order the rest
            if shutdown.load(Ordering::Relaxed) {
                return None;
            }
            if let Some(stream) = q.pop_front() {
                return Some(stream);
            }
            q = self
                .ready
                .wait_timeout(q, Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// A running listener: one accept loop feeding a fixed pool of workers.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Serves `listener` in `protocol` with `workers` threads (at least
    /// one), running every command through `dispatcher`. The caller
    /// binds, so a bad address fails before anything starts, and clients
    /// that connect before this call wait in the listen backlog.
    pub fn start(
        listener: TcpListener,
        protocol: Protocol,
        workers: usize,
        dispatcher: Arc<Dispatcher>,
    ) -> std::io::Result<Self> {
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let workers = workers.max(1);
        let queue = Arc::new(ConnQueue::new(4 * workers));
        let handle = std::thread::spawn(move || {
            let pool: Vec<_> = (0..workers)
                .map(|_| {
                    let queue = Arc::clone(&queue);
                    let stop = Arc::clone(&stop);
                    let dispatcher = Arc::clone(&dispatcher);
                    std::thread::spawn(move || {
                        while let Some(stream) = queue.pop(&stop) {
                            let _ = match protocol {
                                Protocol::Line => serve_session(stream, &dispatcher, &stop),
                                Protocol::Http => crate::http::serve_request(stream, &dispatcher),
                            };
                        }
                    })
                })
                .collect();
            for stream in listener.incoming() {
                // ordering: Acquire; pairs with the Release store in drop, which connects after it
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if let Err(mut rejected) = queue.push(stream) {
                    let busy = match protocol {
                        Protocol::Line => BUSY_LINE.to_string(),
                        Protocol::Http => crate::http::busy_reply(),
                    };
                    let _ = rejected.write_all(busy.as_bytes());
                }
            }
            // Refuse new connections while the workers drain.
            drop(listener);
            queue.ready.notify_all();
            for w in pool {
                let _ = w.join();
            }
        });
        Ok(Self {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, lets each worker finish the command in flight,
    /// and joins them.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // ordering: Release; pairs with the accept loop's Acquire load after the wake-up below
        self.shutdown.store(true, Ordering::Release);
        // The accept loop blocks until a connection arrives: make one.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        let _ = TcpStream::connect(wake);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The most one request can make the server buffer: a protocol line,
/// newline included, or an HTTP request line with its headers. The
/// longest legal line, a `query` with `attr` and `weights`, is far below
/// it. An over-long line gets `ERR protocol error: line too long` and an
/// over-long head a 431; either way the connection is closed.
pub(crate) const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// How long [`close_unread`] waits for a client to stop sending.
const LINGER: Duration = Duration::from_secs(1);

/// Reads from a stream until a fixed instant, then fails with `TimedOut`.
pub(crate) struct Deadline<'a> {
    pub(crate) stream: &'a TcpStream,
    pub(crate) until: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// Ends a connection whose client may still be sending: shuts the write
/// side so the reply already written is delivered, then discards input
/// until the client closes or [`LINGER`] passes. Closing with unread
/// input would reset the connection, and the client could lose the
/// reply.
pub(crate) fn close_unread(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let mut rest = Deadline {
        stream,
        until: Instant::now() + LINGER,
    };
    let _ = std::io::copy(&mut rest, &mut std::io::sink());
}

/// Serves one line-protocol session until the client quits or hangs up,
/// or the server stops.
fn serve_session(
    stream: TcpStream,
    dispatcher: &Dispatcher,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    // The timeout only lets the loop see a stop: a line that arrives in
    // parts keeps its bytes across timeouts.
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    writer.write_all(b"ferret ready\n")?;
    let mut line = Vec::new();
    loop {
        // ordering: Relaxed; graceful-drain check between commands, no data rides on it
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        // A line cut short by the cap is never run.
        let room = (MAX_REQUEST_BYTES - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) if line.is_empty() => break, // EOF.
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
        if line.len() == MAX_REQUEST_BYTES && !line.ends_with(b"\n") {
            writer.write_all(render_error(&ProtocolError("line too long".into())).as_bytes())?;
            close_unread(&writer);
            break;
        }
        let reply = match String::from_utf8_lossy(&line).trim() {
            "" => None,
            trimmed => Some(match parse_command(trimmed) {
                Ok(cmd) => match dispatcher.dispatch(&cmd) {
                    None => BUSY_LINE.to_string(),
                    Some(Ok(resp)) => render_reply(&cmd, &resp),
                    Some(Err(e)) => render_error(&e),
                },
                Err(e) => render_error(&e),
            }),
        };
        line.clear();
        if let Some(reply) = reply {
            writer.write_all(reply.as_bytes())?;
            if reply.starts_with("OK bye") {
                break;
            }
        }
    }
    Ok(())
}

/// A minimal blocking client for the line protocol (used by tools and
/// tests).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects and consumes the greeting line.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut greeting = String::new();
        reader.read_line(&mut greeting)?;
        Ok(Self { reader, writer })
    }

    /// Sends one command and reads the full response.
    ///
    /// The first line is `OK <n>` / `OK <tag>` / `ERR <msg>`; `n` further
    /// payload lines follow for numeric statuses, and help responses are
    /// read until their known length.
    pub fn send(&mut self, command: &str) -> std::io::Result<String> {
        self.writer.write_all(command.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut status = String::new();
        self.reader.read_line(&mut status)?;
        let mut out = status.clone();
        let mut extra_lines = 0usize;
        if let Some(rest) = status.strip_prefix("OK ") {
            let tag = rest.trim();
            if let Ok(n) = tag.parse::<usize>() {
                extra_lines = n;
            } else if tag == "help" {
                extra_lines = crate::protocol::HELP_TEXT.lines().count();
            }
        }
        for _ in 0..extra_lines {
            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            out.push_str(&line);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferret_core::engine::EngineConfig;
    use ferret_core::object::{DataObject, ObjectId};
    use ferret_core::sketch::SketchParams;
    use ferret_core::vector::FeatureVector;

    fn service() -> Arc<RwLock<FerretService>> {
        let config = EngineConfig::basic(
            SketchParams::new(64, vec![0.0; 2], vec![1.0; 2]).unwrap(),
            3,
        );
        let mut svc = FerretService::in_memory(config).unwrap();
        for i in 0..5u64 {
            let x = 0.1 + i as f32 * 0.2;
            svc.insert(
                ObjectId(i),
                DataObject::single(FeatureVector::new(vec![x, x]).unwrap()),
                None,
            )
            .unwrap();
        }
        Arc::new(RwLock::new(svc))
    }

    /// Serves `svc` on an ephemeral loopback port.
    fn serve(
        svc: &Arc<RwLock<FerretService>>,
        protocol: Protocol,
        workers: usize,
        admission: Arc<AdmissionControl>,
    ) -> Server {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dispatcher = Arc::new(Dispatcher::new(Arc::clone(svc), admission));
        Server::start(listener, protocol, workers, dispatcher).unwrap()
    }

    fn line_server(svc: &Arc<RwLock<FerretService>>) -> Server {
        serve(
            svc,
            Protocol::Line,
            4,
            Arc::new(AdmissionControl::new(0, None)),
        )
    }

    #[test]
    fn query_over_tcp() {
        let server = line_server(&service());
        let mut client = Client::connect(server.addr()).unwrap();
        let reply = client.send("query id=0 k=2 mode=brute").unwrap();
        let lines: Vec<&str> = reply.lines().collect();
        assert_eq!(lines[0], "OK 2");
        assert!(lines[1].starts_with("0 "));
        assert!(lines[2].starts_with("1 "));
        server.stop();
    }

    #[test]
    fn multiple_commands_one_connection() {
        let server = line_server(&service());
        let mut client = Client::connect(server.addr()).unwrap();
        assert!(client.send("stat").unwrap().contains("objects 5"));
        assert!(client.send("help").unwrap().contains("delete id=<n>"));
        assert!(client.send("bogus").unwrap().starts_with("ERR"));
        assert!(client.send("quit").unwrap().starts_with("OK bye"));
        server.stop();
    }

    #[test]
    fn concurrent_clients() {
        let server = line_server(&service());
        let addr = server.addr();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for _ in 0..5 {
                        let reply = c.send("query id=1 k=3 mode=sketch").unwrap();
                        assert!(reply.starts_with("OK 3"), "{reply}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.stop();
    }

    #[test]
    fn mutation_over_tcp_is_shared() {
        let svc = service();
        let server = line_server(&svc);
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.send("delete id=4").unwrap(), "OK\n");
        assert_eq!(svc.read().engine().len(), 4);
        server.stop();
    }

    /// A line that arrives in parts, with more than one read timeout
    /// between them, is still one command.
    #[test]
    fn a_line_split_across_read_timeouts_is_kept_whole() {
        let server = line_server(&service());
        let mut client = Client::connect(server.addr()).unwrap();
        client.writer.write_all(b"query id=1 ").unwrap();
        std::thread::sleep(Duration::from_millis(450));
        let reply = client.send("k=2 mode=brute").unwrap();
        assert!(reply.starts_with("OK 2"), "{reply}");
        server.stop();
    }

    /// A line past the cap is refused and its session closed; the server
    /// reads no more of it than the cap. A line just under the cap is
    /// served, and so is a fresh connection after a refusal.
    #[test]
    fn an_over_long_line_is_refused_and_the_session_closed() {
        let server = line_server(&service());
        let mut client = Client::connect(server.addr()).unwrap();
        let padded = format!("stat{}", " ".repeat(MAX_REQUEST_BYTES - 5));
        assert!(client.send(&padded).unwrap().starts_with("OK 4"));
        client
            .reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        client
            .writer
            .write_all(&vec![b'a'; 4 * MAX_REQUEST_BYTES])
            .unwrap();
        let mut reply = String::new();
        client.reader.read_to_string(&mut reply).unwrap();
        assert_eq!(reply, "ERR protocol error: line too long\n");
        let mut fresh = Client::connect(server.addr()).unwrap();
        assert!(fresh.send("stat").unwrap().starts_with("OK 4"));
        server.stop();
    }

    /// Every connection is accepted as it arrives: a fresh connection
    /// per command costs about what a command on an open one does.
    #[test]
    fn sequential_connections_are_not_delayed() {
        let svc = service();
        let tcp = line_server(&svc);
        let start = Instant::now();
        for _ in 0..200 {
            let mut client = Client::connect(tcp.addr()).unwrap();
            assert!(client.send("stat").unwrap().starts_with("OK 4"));
        }
        let tcp_wall = start.elapsed();
        tcp.stop();
        let web = serve(
            &svc,
            Protocol::Http,
            4,
            Arc::new(AdmissionControl::new(0, None)),
        );
        let start = Instant::now();
        for _ in 0..200 {
            let (status, _) = crate::http::http_get(web.addr(), "/stat").unwrap();
            assert!(status.contains("200"), "{status}");
        }
        let web_wall = start.elapsed();
        web.stop();
        assert!(tcp_wall < Duration::from_millis(500), "tcp: {tcp_wall:?}");
        assert!(web_wall < Duration::from_millis(500), "http: {web_wall:?}");
    }

    #[test]
    fn saturated_admission_returns_busy_not_a_hang() {
        let svc = service();
        let registry = Arc::new(ferret_core::telemetry::MetricsRegistry::new());
        svc.write().enable_telemetry(Arc::clone(&registry));
        let admission = Arc::new(AdmissionControl::new(1, Some(&registry)));
        let server = serve(&svc, Protocol::Line, 4, Arc::clone(&admission));
        let addr = server.addr();

        // Holding the write lock makes the slow query wait on the read
        // lock after it was admitted, so it keeps the single slot...
        let gate = svc.write();
        let slow = std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.send("query id=0 k=2 mode=brute").unwrap()
        });
        // ...and holds it before the second client starts: a second query
        // racing it to the slot would take the slot itself, bounce the slow
        // one, and then never find the slot occupied by anyone else.
        let settle = Instant::now() + Duration::from_secs(5);
        while admission.inflight() != 1 && Instant::now() < settle {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            admission.inflight(),
            1,
            "the slow query never took the slot"
        );
        // The second client keeps trying until it gets turned away. The
        // reply must come back promptly (BUSY, not a queued hang).
        let mut fast = Client::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut saw_busy = false;
        while Instant::now() < deadline {
            let start = Instant::now();
            let reply = fast.send("query id=1 k=1 mode=brute").unwrap();
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "reply took {:?}",
                start.elapsed()
            );
            if reply.starts_with("ERR BUSY") {
                saw_busy = true;
                break;
            }
            assert!(reply.starts_with("OK"), "{reply}");
        }
        assert!(saw_busy, "saturating the limit never produced BUSY");
        drop(gate);
        assert!(slow.join().unwrap().starts_with("OK"));
        assert!(
            registry
                .counter_value("ferret_rejected_total", &[])
                .unwrap()
                >= 1
        );
        server.stop();
    }

    #[test]
    fn non_query_commands_bypass_admission() {
        let svc = service();
        let registry = Arc::new(ferret_core::telemetry::MetricsRegistry::new());
        svc.write().enable_telemetry(Arc::clone(&registry));
        // A zero-slot controller rejects every query...
        let admission = Arc::new(AdmissionControl::new(1, Some(&registry)));
        let _held = admission.try_admit().unwrap();
        let server = serve(&svc, Protocol::Line, 2, admission);
        let mut client = Client::connect(server.addr()).unwrap();
        // ...but stat/attr/help/delete still work.
        assert!(client.send("query id=0").unwrap().starts_with("ERR BUSY"));
        assert!(client.send("stat").unwrap().contains("objects 5"));
        assert_eq!(client.send("delete id=4").unwrap(), "OK\n");
        server.stop();
    }

    /// A client that connects and sends nothing holds an HTTP worker for
    /// at most the request deadline: it neither blocks a stop nor, with
    /// every worker taken, starves the next request.
    #[test]
    fn silent_http_clients_are_dropped_at_the_deadline() {
        let svc = service();
        let web = serve(
            &svc,
            Protocol::Http,
            2,
            Arc::new(AdmissionControl::new(0, None)),
        );
        let silent: Vec<_> = (0..2)
            .map(|_| TcpStream::connect(web.addr()).unwrap())
            .collect();
        let start = Instant::now();
        let (status, _) = crate::http::http_get(web.addr(), "/stat").unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "{:?}",
            start.elapsed()
        );
        // The silent connections were closed without a reply.
        for mut s in silent {
            let mut rest = String::new();
            s.read_to_string(&mut rest).unwrap();
            assert!(rest.is_empty(), "{rest}");
        }

        let _idle = TcpStream::connect(web.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        web.stop();
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "{:?}",
            start.elapsed()
        );
    }
}
