//! Minimal web interface (paper §4.3).
//!
//! "The web interface provides users with a simple, yet platform
//! independent way to issue query and present search results." The paper
//! used a small Python web server speaking the command-line protocol; here
//! a dependency-free HTTP/1.1 server maps `GET` endpoints onto the same
//! service:
//!
//! * `GET /search?id=42&k=10&mode=filter&attr=<urlencoded>` → JSON results
//! * `GET /attr?q=<urlencoded expression>` → JSON id list
//! * `GET /stat` → JSON statistics
//! * `GET /metrics` → Prometheus text exposition (telemetry must be on)
//! * `GET /trace?id=<n>` → stage breakdown of a recent query as JSON
//! * `GET /` → a small HTML query form

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use crate::admission::AdmissionControl;
use crate::server::{ConnQueue, ServeConfig};
use crate::service::FerretService;

/// Percent-decodes a URL component (`%41` → `A`, `+` → space).
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                // Two hex digits must follow; otherwise keep the literal '%'.
                if i + 3 <= bytes.len() {
                    let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or("");
                    if let Ok(v) = u8::from_str_radix(hex, 16) {
                        out.push(v);
                        i += 3;
                        continue;
                    }
                }
                out.push(b'%');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parses a query string into key/value pairs.
pub fn parse_query_string(qs: &str) -> Vec<(String, String)> {
    qs.split('&')
        .filter(|p| !p.is_empty())
        .map(|p| match p.split_once('=') {
            Some((k, v)) => (url_decode(k), url_decode(v)),
            None => (url_decode(p), String::new()),
        })
        .collect()
}

use crate::protocol::json_escape;
pub use crate::protocol::response_to_json;

const INDEX_HTML: &str = "<!DOCTYPE html>\n<html><head><title>Ferret similarity search</title></head>\n<body>\n<h1>Ferret similarity search</h1>\n<form action=\"/search\" method=\"get\">\n  seed object id: <input name=\"id\" value=\"0\">\n  results: <input name=\"k\" value=\"10\">\n  mode: <select name=\"mode\"><option>filter</option><option>sketch</option><option>brute</option></select>\n  attributes: <input name=\"attr\" value=\"\">\n  <button type=\"submit\">search</button>\n</form>\n<p>Endpoints: /search?id=&amp;k=&amp;mode=&amp;attr= &middot; /attr?q= &middot; /stat &middot; /metrics &middot; /trace?id=</p>\n</body></html>\n";

fn http_reply(status: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Routes one HTTP request path (with query string) to a JSON/HTML reply,
/// without admission control (every query is executed).
pub fn route(
    service: &Arc<RwLock<FerretService>>,
    path_and_query: &str,
) -> (String, String, String) {
    route_with(service, None, None, path_and_query)
}

/// Routes one HTTP request with optional admission control for `/search`
/// (a saturated server answers 503 instead of queueing) and an optional
/// artificial per-query hold (load-testing knob; see
/// [`ServeConfig::hold`]).
pub fn route_with(
    service: &Arc<RwLock<FerretService>>,
    admission: Option<&Arc<AdmissionControl>>,
    hold: Option<Duration>,
    path_and_query: &str,
) -> (String, String, String) {
    let (path, qs) = match path_and_query.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path_and_query, ""),
    };
    let params = parse_query_string(qs);
    let get = |key: &str| {
        params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    match path {
        "/" => (
            "200 OK".into(),
            "text/html; charset=utf-8".into(),
            INDEX_HTML.into(),
        ),
        "/metrics" => {
            let registry = service.read().telemetry().cloned();
            match registry {
                Some(reg) => (
                    "200 OK".into(),
                    "text/plain; version=0.0.4; charset=utf-8".into(),
                    reg.render_prometheus(),
                ),
                None => (
                    "404 Not Found".into(),
                    "application/json".into(),
                    "{\"ok\":false,\"error\":\"telemetry disabled\"}".into(),
                ),
            }
        }
        "/trace" => {
            let svc = service.read();
            let found = match get("id") {
                Some(raw) => match raw.parse::<u64>() {
                    Ok(id) => svc.trace(id).map(|t| (id, t)),
                    Err(_) => return error_json("invalid id parameter"),
                },
                None => svc.last_trace(),
            };
            match found {
                Some((id, trace)) => (
                    "200 OK".into(),
                    "application/json".into(),
                    format!("{{\"ok\":true,\"id\":{id},\"trace\":{}}}", trace.to_json()),
                ),
                None => (
                    "404 Not Found".into(),
                    "application/json".into(),
                    "{\"ok\":false,\"error\":\"no trace recorded\"}".into(),
                ),
            }
        }
        "/stat" => {
            let svc = service.read();
            match svc.execute_read(&crate::protocol::Command::Stat) {
                Ok(resp) => (
                    "200 OK".into(),
                    "application/json".into(),
                    response_to_json(&resp),
                ),
                Err(e) => error_json(&e.to_string()),
            }
        }
        "/attr" => {
            let Some(q) = get("q") else {
                return error_json("missing q parameter");
            };
            let svc = service.read();
            match svc.execute_read(&crate::protocol::Command::Attr { expression: q }) {
                Ok(resp) => (
                    "200 OK".into(),
                    "application/json".into(),
                    response_to_json(&resp),
                ),
                Err(e) => error_json(&e.to_string()),
            }
        }
        "/search" => {
            // Rebuild a protocol line and reuse its validation.
            let mut line = String::from("query");
            if let Some(id) = get("id") {
                line.push_str(&format!(" id={id}"));
            }
            for key in [
                "k",
                "mode",
                "r",
                "cand",
                "threshold",
                "fusion",
                "rrfk",
                "fw",
                "minsim",
                "limit",
            ] {
                if let Some(v) = get(key) {
                    line.push_str(&format!(" {key}={v}"));
                }
            }
            if let Some(attr) = get("attr") {
                if !attr.is_empty() {
                    line.push_str(&format!(" attr=\"{attr}\""));
                }
            }
            match crate::protocol::parse_command(&line) {
                Ok(cmd) => {
                    // Similarity queries are what admission control
                    // meters; a saturated server answers 503 at once.
                    let _slot = match admission {
                        Some(ctl) => match ctl.try_admit() {
                            Some(guard) => Some(guard),
                            None => {
                                return (
                                    "503 Service Unavailable".into(),
                                    "application/json".into(),
                                    "{\"ok\":false,\"error\":\"BUSY too many in-flight queries, retry later\"}"
                                        .into(),
                                )
                            }
                        },
                        None => None,
                    };
                    let svc = service.read();
                    let result = svc.execute_read(&cmd);
                    drop(svc);
                    if let Some(hold) = hold {
                        std::thread::sleep(hold);
                    }
                    match result {
                        Ok(resp) => (
                            "200 OK".into(),
                            "application/json".into(),
                            response_to_json(&resp),
                        ),
                        Err(e) => error_json(&e.to_string()),
                    }
                }
                Err(e) => error_json(&e.to_string()),
            }
        }
        _ => (
            "404 Not Found".into(),
            "application/json".into(),
            "{\"ok\":false,\"error\":\"not found\"}".into(),
        ),
    }
}

fn error_json(msg: &str) -> (String, String, String) {
    (
        "400 Bad Request".into(),
        "application/json".into(),
        format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(msg)),
    )
}

/// A running HTTP server.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Everything an HTTP worker needs to serve requests.
struct HttpContext {
    service: Arc<RwLock<FerretService>>,
    admission: Arc<AdmissionControl>,
    hold: Option<Duration>,
}

impl HttpServer {
    /// Starts the web interface on `addr` (port 0 for ephemeral) with a
    /// default [`ServeConfig`] and a private admission controller.
    pub fn start(service: Arc<RwLock<FerretService>>, addr: &str) -> std::io::Result<Self> {
        let config = ServeConfig::default();
        let registry = service.read().telemetry().cloned();
        let admission = Arc::new(AdmissionControl::new(
            config.max_inflight,
            registry.as_ref(),
        ));
        Self::start_with(service, addr, config, admission)
    }

    /// Starts the web interface with an explicit configuration and
    /// admission controller. Pass the TCP server's controller to cap
    /// in-flight queries across both surfaces.
    pub fn start_with(
        service: Arc<RwLock<FerretService>>,
        addr: &str,
        config: ServeConfig,
        admission: Arc<AdmissionControl>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let context = Arc::new(HttpContext {
            service,
            admission,
            hold: config.hold,
        });
        let queue = Arc::new(ConnQueue::new(config.queue_depth));
        let workers = config.workers.max(1);
        let handle = std::thread::spawn(move || {
            let pool: Vec<_> = (0..workers)
                .map(|_| {
                    let queue = Arc::clone(&queue);
                    let stop = Arc::clone(&stop);
                    let ctx = Arc::clone(&context);
                    std::thread::spawn(move || {
                        while let Some(stream) = queue.pop(&stop) {
                            let _ = serve_one(stream, &ctx);
                        }
                    })
                })
                .collect();
            loop {
                // ordering: Relaxed; stop flag carries no data, stop()/drop join after
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        if let Err(mut rejected) = queue.push(stream) {
                            // Connection queue full: fast 503, then close.
                            let reply = http_reply(
                                "503 Service Unavailable",
                                "application/json",
                                "{\"ok\":false,\"error\":\"server overloaded\"}",
                            );
                            let _ = rejected.write_all(reply.as_bytes());
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            queue.notify_all();
            for w in pool {
                let _ = w.join();
            }
        });
        Ok(Self {
            addr: local,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server.
    pub fn stop(mut self) {
        // ordering: Relaxed; the join below is the real synchronization point
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        // ordering: Relaxed; the join below is the real synchronization point
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Bounded label for per-endpoint metrics: known paths keep their name,
/// everything else collapses to `other` so clients cannot explode the
/// label cardinality by probing random paths.
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/" => "/",
        "/search" => "/search",
        "/attr" => "/attr",
        "/stat" => "/stat",
        "/metrics" => "/metrics",
        "/trace" => "/trace",
        _ => "other",
    }
}

fn serve_one(stream: TcpStream, context: &HttpContext) -> std::io::Result<()> {
    let service = &context.service;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next();
    let version = parts.next();
    // Drain headers.
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    // A malformed request line (missing target, missing or non-HTTP
    // version, or a target that is not an absolute path) gets a proper
    // 400 reply instead of a dropped connection.
    let well_formed =
        target.filter(|t| t.starts_with('/') && version.is_some_and(|v| v.starts_with("HTTP/")));
    let reply = match well_formed {
        None => http_reply(
            "400 Bad Request",
            "application/json",
            "{\"ok\":false,\"error\":\"malformed request line\"}",
        ),
        Some(_) if method != "GET" => http_reply(
            "405 Method Not Allowed",
            "application/json",
            "{\"ok\":false,\"error\":\"GET only\"}",
        ),
        Some(target) => {
            let registry = service.read().telemetry().cloned();
            let start = registry.is_some().then(Instant::now);
            let (status, ctype, body) =
                route_with(service, Some(&context.admission), context.hold, target);
            if let (Some(reg), Some(start)) = (registry, start) {
                let path = target.split_once('?').map_or(target, |(p, _)| p);
                let endpoint = endpoint_label(path);
                let code = status.split_whitespace().next().unwrap_or("0");
                reg.inc_counter(
                    "ferret_http_requests_total",
                    "HTTP requests served, by endpoint and status code.",
                    &[("endpoint", endpoint), ("status", code)],
                    1,
                );
                reg.observe_latency(
                    "ferret_http_request_seconds",
                    "HTTP request latency, by endpoint.",
                    &[("endpoint", endpoint)],
                    start.elapsed(),
                );
            }
            http_reply(&status, &ctype, &body)
        }
    };
    writer.write_all(reply.as_bytes())?;
    writer.flush()
}

/// Fetches `path` from a running [`HttpServer`] (test/tooling helper).
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or((response.as_str(), ""));
    let status = head.lines().next().unwrap_or("").to_string();
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferret_attr::AttrsBuilder;
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
        for i in 0..4u64 {
            let x = 0.1 + i as f32 * 0.25;
            svc.insert(
                ObjectId(i),
                DataObject::single(FeatureVector::new(vec![x, x]).unwrap()),
                Some(
                    AttrsBuilder::new()
                        .keyword("parity", if i % 2 == 0 { "even" } else { "odd" })
                        .build(),
                ),
            )
            .unwrap();
        }
        Arc::new(RwLock::new(svc))
    }

    #[test]
    fn url_decoding() {
        assert_eq!(url_decode("a+b%3Ac"), "a b:c");
        assert_eq!(url_decode("plain"), "plain");
        assert_eq!(url_decode("%zz"), "%zz");
        assert_eq!(url_decode("trailing%"), "trailing%");
        // Truncated escape: only one hex digit follows the '%'.
        assert_eq!(url_decode("%4"), "%4");
        assert_eq!(url_decode("a%4"), "a%4");
        // '+' is a space even when adjacent to escapes.
        assert_eq!(url_decode("+%41+"), " A ");
        // An embedded NUL byte decodes without truncating the string.
        assert_eq!(url_decode("a%00b"), "a\0b");
        // Invalid UTF-8 from decoded bytes is replaced, not panicked on.
        assert_eq!(url_decode("%ff"), "\u{fffd}");
        assert_eq!(
            parse_query_string("id=1&attr=a%20b&flag"),
            vec![
                ("id".to_string(), "1".to_string()),
                ("attr".to_string(), "a b".to_string()),
                ("flag".to_string(), String::new())
            ]
        );
    }

    #[test]
    fn routes_without_network() {
        let svc = service();
        let (status, _, body) = route(&svc, "/stat");
        assert_eq!(status, "200 OK");
        assert!(body.contains("\"objects\":4"), "{body}");
        let (status, _, body) = route(&svc, "/search?id=0&k=2&mode=brute");
        assert_eq!(status, "200 OK");
        assert!(body.contains("\"id\":0"), "{body}");
        let (status, _, body) = route(&svc, "/attr?q=parity%3Aeven");
        assert_eq!(status, "200 OK");
        assert!(body.contains("\"ids\":[0,2]"), "{body}");
        let (status, _, _) = route(&svc, "/nope");
        assert_eq!(status, "404 Not Found");
        let (status, _, body) = route(&svc, "/search?id=99");
        assert_eq!(status, "400 Bad Request");
        assert!(body.contains("unknown object"), "{body}");
        let (_, ctype, body) = route(&svc, "/");
        assert!(ctype.contains("text/html"));
        assert!(body.contains("<form"));
    }

    #[test]
    fn http_server_end_to_end() {
        let server = HttpServer::start(service(), "127.0.0.1:0").unwrap();
        let (status, body) = http_get(server.addr(), "/search?id=1&k=2&mode=sketch").unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(body.starts_with("{\"ok\":true"), "{body}");
        let (status, body) = http_get(server.addr(), "/stat").unwrap();
        assert!(status.contains("200"));
        assert!(body.contains("\"segments\":4"));
        server.stop();
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn metrics_and_trace_routes() {
        let svc = service();
        // Telemetry off: /metrics and /trace report their absence.
        let (status, _, body) = route(&svc, "/metrics");
        assert_eq!(status, "404 Not Found");
        assert!(body.contains("telemetry disabled"), "{body}");

        let registry = Arc::new(ferret_core::telemetry::MetricsRegistry::new());
        svc.write().enable_telemetry(Arc::clone(&registry));
        let (status, _, body) = route(&svc, "/trace");
        assert_eq!(status, "404 Not Found");
        assert!(body.contains("no trace recorded"), "{body}");
        let (status, _, body) = route(&svc, "/trace?id=borked");
        assert_eq!(status, "400 Bad Request");
        assert!(body.contains("invalid id"), "{body}");

        // A query populates both the registry and the trace ring.
        let (status, _, _) = route(&svc, "/search?id=0&k=2&mode=filter");
        assert_eq!(status, "200 OK");
        let (status, ctype, body) = route(&svc, "/metrics");
        assert_eq!(status, "200 OK");
        assert!(ctype.starts_with("text/plain"), "{ctype}");
        assert!(
            body.contains("ferret_queries_total{mode=\"filtering\"} 1"),
            "{body}"
        );
        assert!(body.contains("ferret_query_seconds_count"), "{body}");
        let (status, _, body) = route(&svc, "/trace");
        assert_eq!(status, "200 OK");
        assert!(body.contains("\"mode\":\"filtering\""), "{body}");
        let (status, _, body) = route(&svc, "/trace?id=999");
        assert_eq!(status, "404 Not Found");
        assert!(body.contains("no trace"), "{body}");
    }

    /// Sends raw bytes as an HTTP request and returns the status line.
    fn raw_request(addr: SocketAddr, payload: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(payload.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response.lines().next().unwrap_or("").to_string()
    }

    #[test]
    fn malformed_request_lines_get_400_not_dropped() {
        let server = HttpServer::start(service(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        // No target or version at all.
        assert!(raw_request(addr, "GET\r\n\r\n").contains("400"));
        // Target does not start with '/'.
        assert!(raw_request(addr, "GET nope HTTP/1.1\r\n\r\n").contains("400"));
        // Version token is not HTTP/x.
        assert!(raw_request(addr, "GET / FTP/1.0\r\n\r\n").contains("400"));
        // Garbage line.
        assert!(raw_request(addr, "??\r\n\r\n").contains("400"));
        // Non-GET methods still get 405, unknown endpoints 404.
        assert!(raw_request(addr, "POST /stat HTTP/1.1\r\n\r\n").contains("405"));
        assert!(raw_request(addr, "GET /nope HTTP/1.1\r\n\r\n").contains("404"));
        server.stop();
    }

    #[test]
    fn saturated_search_gets_503_then_recovers() {
        let svc = service();
        let registry = Arc::new(ferret_core::telemetry::MetricsRegistry::new());
        svc.write().enable_telemetry(Arc::clone(&registry));
        let admission = Arc::new(AdmissionControl::new(1, Some(&registry)));
        let held = admission.try_admit().unwrap();
        let (status, _, body) =
            route_with(&svc, Some(&admission), None, "/search?id=0&k=2&mode=brute");
        assert_eq!(status, "503 Service Unavailable");
        assert!(body.contains("BUSY"), "{body}");
        // Non-query endpoints are never metered by admission.
        let (status, _, _) = route_with(&svc, Some(&admission), None, "/stat");
        assert_eq!(status, "200 OK");
        drop(held);
        let (status, _, _) =
            route_with(&svc, Some(&admission), None, "/search?id=0&k=2&mode=brute");
        assert_eq!(status, "200 OK");
        assert_eq!(
            registry.counter_value("ferret_rejected_total", &[]),
            Some(1)
        );
    }

    #[test]
    fn http_requests_recorded_in_registry() {
        let svc = service();
        let registry = Arc::new(ferret_core::telemetry::MetricsRegistry::new());
        svc.write().enable_telemetry(Arc::clone(&registry));
        let server = HttpServer::start(svc, "127.0.0.1:0").unwrap();
        let (status, _) = http_get(server.addr(), "/stat").unwrap();
        assert!(status.contains("200"));
        let (status, _) = http_get(server.addr(), "/definitely-not-real").unwrap();
        assert!(status.contains("404"));
        server.stop();
        assert_eq!(
            registry.counter_value(
                "ferret_http_requests_total",
                &[("endpoint", "/stat"), ("status", "200")],
            ),
            Some(1)
        );
        assert_eq!(
            registry.counter_value(
                "ferret_http_requests_total",
                &[("endpoint", "other"), ("status", "404")],
            ),
            Some(1)
        );
        let snap = registry
            .histogram_snapshot("ferret_http_request_seconds", &[("endpoint", "/stat")])
            .unwrap();
        assert_eq!(snap.count, 1);
    }
}
