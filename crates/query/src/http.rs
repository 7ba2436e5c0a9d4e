//! Minimal web interface (paper §4.3).
//!
//! "The web interface provides users with a simple, yet platform
//! independent way to issue query and present search results." The paper
//! used a small Python web server speaking the command-line protocol; here
//! an HTTP listener runs the same [`Server`](crate::server::Server) as the
//! line protocol, and this module only turns a `GET` request into a
//! [`Command`] (or one of the routes that are not commands) and renders
//! the reply as JSON:
//!
//! * `GET /search?id=42&k=10&mode=filter&attr=<urlencoded>` → JSON results;
//!   it takes exactly the keys of the protocol's `query` command
//! * `GET /attr?q=<urlencoded expression>` → JSON id list
//! * `GET /stat` → JSON statistics
//! * `GET /metrics` → Prometheus text exposition (telemetry must be on)
//! * `GET /trace?id=<n>` → stage breakdown of a recent query as JSON
//! * `GET /` → a small HTML query form

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::protocol::{json_escape, parse_query, Command};
use crate::server::{close_unread, Deadline, Dispatcher, MAX_REQUEST_BYTES};

pub use crate::protocol::response_to_json;

/// How long a client may take to send its request line and headers. Past
/// it the connection is closed unanswered, so a silent client holds a
/// worker, or a stop, for no longer than this. A head longer than
/// [`MAX_REQUEST_BYTES`] gets a 431.
const REQUEST_DEADLINE: Duration = Duration::from_secs(1);

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

const INDEX_HTML: &str = "<!DOCTYPE html>\n<html><head><title>Ferret similarity search</title></head>\n<body>\n<h1>Ferret similarity search</h1>\n<form action=\"/search\" method=\"get\">\n  seed object id: <input name=\"id\" value=\"0\">\n  results: <input name=\"k\" value=\"10\">\n  mode: <select name=\"mode\"><option>filter</option><option>sketch</option><option>brute</option></select>\n  attributes: <input name=\"attr\" value=\"\">\n  <button type=\"submit\">search</button>\n</form>\n<p>Endpoints: /search?id=&amp;k=&amp;mode=&amp;attr= &middot; /attr?q= &middot; /stat &middot; /metrics &middot; /trace?id=</p>\n</body></html>\n";

const JSON: &str = "application/json";

/// A routed reply: status line, content type and body.
type Reply = (&'static str, &'static str, String);

fn http_reply(status: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

fn error_json(status: &'static str, msg: &str) -> Reply {
    (
        status,
        JSON,
        format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(msg)),
    )
}

fn bad_request(msg: &str) -> Reply {
    error_json("400 Bad Request", msg)
}

fn busy() -> Reply {
    error_json(
        "503 Service Unavailable",
        "BUSY too many in-flight queries, retry later",
    )
}

/// The full reply to a connection turned away because every worker and
/// queue slot is taken.
pub(crate) fn busy_reply() -> String {
    let (status, ctype, body) = busy();
    http_reply(status, ctype, &body)
}

/// Routes one request target (path and query string) to a reply. Every
/// route that runs a command goes through `dispatcher`, so `/search` is
/// admitted before it takes the service lock, like a protocol query.
pub fn route(dispatcher: &Dispatcher, target: &str) -> Reply {
    let (path, qs) = target.split_once('?').unwrap_or((target, ""));
    let params = parse_query_string(qs);
    let get = |key: &str| {
        params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    let command = match path {
        "/" => return ("200 OK", "text/html; charset=utf-8", INDEX_HTML.into()),
        "/metrics" => {
            return match dispatcher.registry() {
                Some(reg) => (
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    reg.render_prometheus(),
                ),
                None => error_json("404 Not Found", "telemetry disabled"),
            }
        }
        "/trace" => {
            let id = match get("id").map(str::parse::<u64>) {
                Some(Ok(id)) => Some(id),
                Some(Err(_)) => return bad_request("invalid id parameter"),
                None => None,
            };
            let svc = dispatcher.service().read();
            let found = match id {
                Some(id) => svc.trace(id).map(|t| (id, t)),
                None => svc.last_trace(),
            };
            return match found {
                Some((id, trace)) => (
                    "200 OK",
                    JSON,
                    format!("{{\"ok\":true,\"id\":{id},\"trace\":{}}}", trace.to_json()),
                ),
                None => error_json("404 Not Found", "no trace recorded"),
            };
        }
        "/stat" => Command::Stat,
        "/attr" => match get("q") {
            Some(q) => Command::Attr {
                expression: q.to_string(),
            },
            None => return bad_request("missing q parameter"),
        },
        // The HTML form always sends `attr`; empty means no filter.
        "/search" => match parse_query(
            params
                .iter()
                .filter(|(k, v)| !(k == "attr" && v.is_empty()))
                .map(|(k, v)| (k.as_str(), v.as_str())),
        ) {
            Ok(command) => command,
            Err(e) => return bad_request(&e.to_string()),
        },
        _ => return error_json("404 Not Found", "not found"),
    };
    match dispatcher.dispatch(&command) {
        None => busy(),
        Some(Ok(resp)) => ("200 OK", JSON, response_to_json(&resp)),
        Some(Err(e)) => bad_request(&e.to_string()),
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

/// Serves one HTTP request and closes the connection.
pub(crate) fn serve_request(stream: TcpStream, dispatcher: &Dispatcher) -> std::io::Result<()> {
    let mut reader = BufReader::new(Deadline {
        stream: &stream,
        until: Instant::now() + REQUEST_DEADLINE,
    })
    .take(MAX_REQUEST_BYTES as u64);
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
    // The cap ran out before the blank line that ends the head.
    if reader.limit() == 0 && !line.ends_with('\n') {
        let reply = http_reply(
            "431 Request Header Fields Too Large",
            JSON,
            "{\"ok\":false,\"error\":\"request head too long\"}",
        );
        (&stream).write_all(reply.as_bytes())?;
        close_unread(&stream);
        return Ok(());
    }
    // A malformed request line (missing target, missing or non-HTTP
    // version, or a target that is not an absolute path) gets a proper
    // 400 reply instead of a dropped connection.
    let well_formed =
        target.filter(|t| t.starts_with('/') && version.is_some_and(|v| v.starts_with("HTTP/")));
    let reply = match well_formed {
        None => http_reply(
            "400 Bad Request",
            JSON,
            "{\"ok\":false,\"error\":\"malformed request line\"}",
        ),
        Some(_) if method != "GET" => http_reply(
            "405 Method Not Allowed",
            JSON,
            "{\"ok\":false,\"error\":\"GET only\"}",
        ),
        Some(target) => {
            let start = Instant::now();
            let (status, ctype, body) = route(dispatcher, target);
            if let Some(reg) = dispatcher.registry() {
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
            http_reply(status, ctype, &body)
        }
    };
    (&stream).write_all(reply.as_bytes())
}

/// Fetches `path` from a running HTTP listener (test/tooling helper).
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
    use crate::admission::AdmissionControl;
    use crate::server::{Protocol, Server};
    use crate::service::FerretService;
    use ferret_attr::AttrsBuilder;
    use ferret_core::engine::EngineConfig;
    use ferret_core::object::{DataObject, ObjectId};
    use ferret_core::sketch::SketchParams;
    use ferret_core::vector::FeatureVector;
    use parking_lot::RwLock;
    use std::net::TcpListener;
    use std::sync::Arc;

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

    /// A dispatcher with no admission limit.
    fn dispatcher(svc: &Arc<RwLock<FerretService>>) -> Dispatcher {
        Dispatcher::new(Arc::clone(svc), Arc::new(AdmissionControl::new(0, None)))
    }

    /// Serves the web interface for `svc` on an ephemeral loopback port.
    fn web(svc: Arc<RwLock<FerretService>>) -> Server {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        Server::start(listener, Protocol::Http, 4, Arc::new(dispatcher(&svc))).unwrap()
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
        let d = dispatcher(&service());
        let (status, _, body) = route(&d, "/stat");
        assert_eq!(status, "200 OK");
        assert!(body.contains("\"objects\":4"), "{body}");
        let (status, _, body) = route(&d, "/search?id=0&k=2&mode=brute");
        assert_eq!(status, "200 OK");
        assert!(body.contains("\"id\":0"), "{body}");
        let (status, _, body) = route(&d, "/attr?q=parity%3Aeven");
        assert_eq!(status, "200 OK");
        assert!(body.contains("\"ids\":[0,2]"), "{body}");
        let (status, _, _) = route(&d, "/nope");
        assert_eq!(status, "404 Not Found");
        let (status, _, body) = route(&d, "/search?id=99");
        assert_eq!(status, "400 Bad Request");
        assert!(body.contains("unknown object"), "{body}");
        let (_, ctype, body) = route(&d, "/");
        assert!(ctype.contains("text/html"));
        assert!(body.contains("<form"));
    }

    /// `/search` takes the protocol's keys one value each: a value cannot
    /// set another key, and an unknown key is refused by name.
    #[test]
    fn search_takes_exactly_the_protocol_keys() {
        let d = dispatcher(&service());
        let (status, _, body) = route(&d, "/search?id=0&k=2%20k%3D7&mode=brute");
        assert_eq!(status, "400 Bad Request");
        assert!(body.contains("invalid k"), "{body}");
        let (status, _, body) = route(&d, "/search?id=0&k=2&bogus=1");
        assert_eq!(status, "400 Bad Request");
        assert!(body.contains("bogus"), "{body}");
        let (status, _, body) = route(&d, "/search?id=0&k=3&mode=brute&weights=1");
        assert_eq!(status, "200 OK", "{body}");
        assert_eq!(body.matches("\"id\"").count(), 3, "{body}");
        // The form's empty attr field is no filter; a filled one filters.
        let (status, _, body) = route(&d, "/search?id=0&k=4&mode=brute&attr=");
        assert_eq!(status, "200 OK", "{body}");
        assert_eq!(body.matches("\"id\"").count(), 4, "{body}");
        let (status, _, body) = route(&d, "/search?id=0&k=4&mode=brute&attr=parity%3Aodd");
        assert_eq!(status, "200 OK", "{body}");
        assert!(
            !body.contains("\"id\":0,") && !body.contains("\"id\":2,"),
            "{body}"
        );
    }

    #[test]
    fn http_server_end_to_end() {
        let server = web(service());
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
        let (status, _, body) = route(&dispatcher(&svc), "/metrics");
        assert_eq!(status, "404 Not Found");
        assert!(body.contains("telemetry disabled"), "{body}");

        let registry = Arc::new(ferret_core::telemetry::MetricsRegistry::new());
        svc.write().enable_telemetry(Arc::clone(&registry));
        let d = dispatcher(&svc);
        let (status, _, body) = route(&d, "/trace");
        assert_eq!(status, "404 Not Found");
        assert!(body.contains("no trace recorded"), "{body}");
        let (status, _, body) = route(&d, "/trace?id=borked");
        assert_eq!(status, "400 Bad Request");
        assert!(body.contains("invalid id"), "{body}");

        // A query populates both the registry and the trace ring.
        let (status, _, _) = route(&d, "/search?id=0&k=2&mode=filter");
        assert_eq!(status, "200 OK");
        let (status, ctype, body) = route(&d, "/metrics");
        assert_eq!(status, "200 OK");
        assert!(ctype.starts_with("text/plain"), "{ctype}");
        assert!(
            body.contains("ferret_queries_total{mode=\"filtering\"} 1"),
            "{body}"
        );
        assert!(body.contains("ferret_query_seconds_count"), "{body}");
        // The query's wait for the service lock was recorded.
        assert!(
            body.contains("ferret_lock_wait_seconds_count{lock=\"read\"} 1"),
            "{body}"
        );
        let (status, _, body) = route(&d, "/trace");
        assert_eq!(status, "200 OK");
        assert!(body.contains("\"mode\":\"filtering\""), "{body}");
        let (status, _, body) = route(&d, "/trace?id=999");
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
        let server = web(service());
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

    /// A request head past the cap gets a 431 whether the request line
    /// or a header runs over; the server reads no more of it than the
    /// cap. A head just under the cap is served.
    #[test]
    fn an_over_long_request_head_gets_431() {
        let server = web(service());
        let addr = server.addr();
        let pad = "a".repeat(4 * MAX_REQUEST_BYTES);
        let long_header = format!("GET /stat HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n");
        let status = raw_request(addr, &long_header);
        assert!(status.contains("431"), "{status}");
        let long_target = format!("GET /stat?{pad} HTTP/1.1\r\n\r\n");
        let status = raw_request(addr, &long_target);
        assert!(status.contains("431"), "{status}");
        let pad = "a".repeat(MAX_REQUEST_BYTES - 100);
        let status = raw_request(addr, &format!("GET /stat HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n"));
        assert!(status.contains("200"), "{status}");
        server.stop();
    }

    #[test]
    fn saturated_search_gets_503_then_recovers() {
        let svc = service();
        let registry = Arc::new(ferret_core::telemetry::MetricsRegistry::new());
        svc.write().enable_telemetry(Arc::clone(&registry));
        let admission = Arc::new(AdmissionControl::new(1, Some(&registry)));
        let d = Dispatcher::new(Arc::clone(&svc), Arc::clone(&admission));
        let held = admission.try_admit().unwrap();
        let (status, _, body) = route(&d, "/search?id=0&k=2&mode=brute");
        assert_eq!(status, "503 Service Unavailable");
        assert!(body.contains("BUSY"), "{body}");
        // Non-query endpoints are never metered by admission.
        let (status, _, _) = route(&d, "/stat");
        assert_eq!(status, "200 OK");
        drop(held);
        let (status, _, _) = route(&d, "/search?id=0&k=2&mode=brute");
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
        let server = web(svc);
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
