//! The harness's own line-protocol client, reply reader and reply checker.
//!
//! Deliberately independent of `ferret_query::Client`: the checker must not
//! share code with the program it checks.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::json::Json;

/// A reply that takes longer counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// One complete reply, split by how the protocol framed it.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `OK <n>` followed by `n` payload lines.
    Lines(Vec<String>),
    /// `OK` alone or `OK <tag>` (`delete`, `quit`).
    Ack,
    /// A single-line JSON document (`format=json`).
    Json(String),
    /// `ERR BUSY ...`: admission control refused the query.
    Busy,
    /// Any other `ERR ...` line.
    Err(String),
}

/// Reads one reply. A stream that ends inside a reply is
/// `UnexpectedEof`, never a short `Lines`.
pub fn read_reply(reader: &mut impl BufRead) -> io::Result<Reply> {
    let status = read_full_line(reader)?;
    if status.starts_with('{') {
        return Ok(Reply::Json(status));
    }
    if let Some(message) = status.strip_prefix("ERR ") {
        return Ok(if message.starts_with("BUSY") {
            Reply::Busy
        } else {
            Reply::Err(message.to_string())
        });
    }
    let Some(rest) = status.strip_prefix("OK") else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unframed reply line {status:?}"),
        ));
    };
    match rest.trim().parse::<usize>() {
        Ok(n) => (0..n)
            .map(|_| read_full_line(reader))
            .collect::<io::Result<_>>()
            .map(Reply::Lines),
        Err(_) => Ok(Reply::Ack),
    }
}

/// One `\n`-terminated line without its terminator; EOF before the
/// terminator is an error.
fn read_full_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("stream ended inside a reply after {line:?}"),
        ));
    }
    line.truncate(line.trim_end().len());
    Ok(line)
}

/// A blocking connection: one request in flight at a time (closed loop).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects and consumes the greeting line.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        let writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        read_full_line(&mut reader)?;
        Ok(Self { reader, writer })
    }

    pub fn send(&mut self, line: &str) -> io::Result<Reply> {
        // One write per request: with TCP_NODELAY two writes would be two
        // segments.
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out)?;
        read_reply(&mut self.reader)
    }

    /// `stat`'s `objects` count.
    pub fn stat_objects(&mut self) -> Result<u64, String> {
        match self.send("stat") {
            Ok(Reply::Lines(lines)) => lines
                .iter()
                .find_map(|l| l.strip_prefix("objects ")?.parse().ok())
                .ok_or_else(|| format!("stat reply without an objects line: {lines:?}")),
            other => Err(format!("stat answered {other:?}")),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Format {
    /// `id distance`
    Text,
    /// `{"ok":true,"results":[{"id":..,"distance":..},..]}`
    Json,
    /// `id score distance|-`, ordered by score
    Fused,
}

/// What a correct reply to one query looks like.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    pub seed_id: u64,
    pub max_results: usize,
    pub format: Format,
    /// Hits must lie in this id range `[lo, hi)`. For fused replies only
    /// the attribute-only hits (no distance) are bound by it: the
    /// similarity pool of a fusion query is unrestricted.
    pub ids_within: Option<(u64, u64)>,
    /// `minsim`: every hit's similarity `1 / (1 + distance)` is at least this.
    pub min_similarity: Option<f64>,
    /// `mode=brute`: the seed object must be in the reply. The sketch
    /// filter is approximate and may lose it: in the head cluster of a
    /// skewed corpus more than `cand` segments can share one sketch, and
    /// the seed then loses the Hamming tie. That is a quality miss, which
    /// `recall_at_10` measures, not a failed operation.
    pub exact: bool,
}

impl Expect {
    pub fn text(seed_id: u64, k: usize) -> Self {
        Self {
            seed_id,
            max_results: k,
            format: Format::Text,
            ids_within: None,
            min_similarity: None,
            exact: false,
        }
    }

    pub fn exact(mut self) -> Self {
        self.exact = true;
        self
    }

    pub fn json(seed_id: u64, limit: usize, min_similarity: f64) -> Self {
        Self {
            max_results: limit,
            format: Format::Json,
            min_similarity: Some(min_similarity),
            ..Self::text(seed_id, limit)
        }
    }

    pub fn fused(seed_id: u64, k: usize, dir: (u64, u64)) -> Self {
        Self {
            format: Format::Fused,
            ids_within: Some(dir),
            ..Self::text(seed_id, k)
        }
    }

    pub fn within(mut self, range: (u64, u64)) -> Self {
        self.ids_within = Some(range);
        self
    }

    /// Validates a reply; returns the hit ids in reply order.
    ///
    /// Checked: framing matches the requested format; `1 <= n <=
    /// max_results`; the seed object, if present (`exact`: it must be),
    /// is at distance 0 and comes first (fused: anywhere); distances
    /// (fused: scores) are ordered; ids are distinct and inside the named
    /// directory; `minsim` holds.
    pub fn check(&self, reply: &Reply) -> Result<Vec<u64>, String> {
        let hits = match (self.format, reply) {
            (Format::Text, Reply::Lines(lines)) => parse_text_hits(lines)?,
            (Format::Fused, Reply::Lines(lines)) => parse_fused_hits(lines)?,
            (Format::Json, Reply::Json(doc)) => parse_json_hits(doc)?,
            (format, other) => return Err(format!("expected a {format:?} reply, got {other:?}")),
        };
        if hits.is_empty() || hits.len() > self.max_results {
            return Err(format!(
                "{} hits, expected 1..={}",
                hits.len(),
                self.max_results
            ));
        }
        // The seed object is at distance 0 from itself, so nothing can
        // come before it — except under fusion, which may rank an object
        // that scores on both lists higher.
        match hits.iter().position(|h| h.id == self.seed_id) {
            Some(at) if hits[at].distance != Some(0.0) => {
                return Err(format!(
                    "the seed object is not at distance 0: {:?}",
                    hits[at]
                ));
            }
            Some(at) if at > 0 && self.format != Format::Fused => {
                return Err(format!("{:?} comes before the seed object", hits[0]));
            }
            None if self.exact => {
                return Err(format!("the seed object {} is missing", self.seed_id));
            }
            _ => {}
        }
        for pair in hits.windows(2) {
            let ordered = match self.format {
                Format::Fused => pair[0].key >= pair[1].key,
                _ => pair[0].key <= pair[1].key,
            };
            if !ordered {
                return Err(format!(
                    "hits out of order: {:?} then {:?}",
                    pair[0], pair[1]
                ));
            }
        }
        let mut ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(format!("an id appears twice: {ids:?}"));
        }
        for hit in &hits {
            if let Some((lo, hi)) = self.ids_within {
                let bound = self.format != Format::Fused || hit.distance.is_none();
                if bound && !(lo..hi).contains(&hit.id) {
                    return Err(format!(
                        "hit {} outside the named directory {lo}..{hi}",
                        hit.id
                    ));
                }
            }
            if let (Some(min), Some(d)) = (self.min_similarity, hit.distance) {
                // Distances are printed with six decimals.
                if 1.0 / (1.0 + d) < min - 1e-6 {
                    return Err(format!(
                        "hit {} at distance {d} is below minsim {min}",
                        hit.id
                    ));
                }
            }
        }
        Ok(hits.iter().map(|h| h.id).collect())
    }
}

#[derive(Debug)]
struct Hit {
    id: u64,
    /// What the reply is ordered by: distance, or fused score.
    key: f64,
    distance: Option<f64>,
}

fn number<T: std::str::FromStr>(token: Option<&str>, line: &str) -> Result<T, String> {
    token
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("malformed hit line {line:?}"))
}

fn parse_text_hits(lines: &[String]) -> Result<Vec<Hit>, String> {
    lines
        .iter()
        .map(|line| {
            let mut tokens = line.split(' ');
            let id = number(tokens.next(), line)?;
            let distance: f64 = number(tokens.next(), line)?;
            if tokens.next().is_some() || !distance.is_finite() {
                return Err(format!("malformed hit line {line:?}"));
            }
            Ok(Hit {
                id,
                key: distance,
                distance: Some(distance),
            })
        })
        .collect()
}

fn parse_fused_hits(lines: &[String]) -> Result<Vec<Hit>, String> {
    lines
        .iter()
        .map(|line| {
            let mut tokens = line.split(' ');
            let id = number(tokens.next(), line)?;
            let score: f64 = number(tokens.next(), line)?;
            let distance = match tokens.next() {
                Some("-") => None,
                other => Some(number(other, line)?),
            };
            if tokens.next().is_some() || !score.is_finite() {
                return Err(format!("malformed hit line {line:?}"));
            }
            Ok(Hit {
                id,
                key: score,
                distance,
            })
        })
        .collect()
}

fn parse_json_hits(doc: &str) -> Result<Vec<Hit>, String> {
    let json = Json::parse(doc).map_err(|e| format!("reply is not JSON ({e}): {doc:?}"))?;
    if json.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("JSON reply without \"ok\":true: {doc:?}"));
    }
    let results = json
        .get("results")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("JSON reply without a results array: {doc:?}"))?;
    results
        .iter()
        .map(|item| {
            let id = item.get("id").and_then(Json::as_f64);
            let distance = item.get("distance").and_then(Json::as_f64);
            match (id, distance) {
                (Some(id), Some(d)) if id >= 0.0 && id.fract() == 0.0 => Ok(Hit {
                    id: id as u64,
                    key: d,
                    distance: Some(d),
                }),
                _ => Err(format!("malformed JSON hit in {doc:?}")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(bytes: &str) -> io::Result<Reply> {
        read_reply(&mut bytes.as_bytes())
    }

    fn lines(items: &[&str]) -> Reply {
        Reply::Lines(items.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn reads_multi_line_and_single_line_replies() {
        assert_eq!(
            read("OK 2\n7 0.000000\n9 0.250000\nOK 1\n").unwrap(),
            lines(&["7 0.000000", "9 0.250000"])
        );
        assert_eq!(read("OK 0\n").unwrap(), lines(&[]));
        assert_eq!(read("OK\n").unwrap(), Reply::Ack);
        assert_eq!(read("OK bye\n").unwrap(), Reply::Ack);
        assert_eq!(
            read("{\"ok\":true,\"results\":[]}\n").unwrap(),
            Reply::Json("{\"ok\":true,\"results\":[]}".into())
        );
    }

    #[test]
    fn reads_consecutive_replies_from_one_stream() {
        let mut stream = "OK 1\n3 0.000000\nERR unknown object 9\nOK\n".as_bytes();
        assert_eq!(read_reply(&mut stream).unwrap(), lines(&["3 0.000000"]));
        assert_eq!(
            read_reply(&mut stream).unwrap(),
            Reply::Err("unknown object 9".into())
        );
        assert_eq!(read_reply(&mut stream).unwrap(), Reply::Ack);
    }

    #[test]
    fn tells_busy_from_other_errors() {
        assert_eq!(
            read("ERR BUSY too many in-flight queries, retry later\n").unwrap(),
            Reply::Busy
        );
        assert_eq!(
            read("ERR protocol error: empty command\n").unwrap(),
            Reply::Err("protocol error: empty command".into())
        );
    }

    #[test]
    fn truncated_replies_are_errors_not_short_replies() {
        for cut in ["OK 2\n7 0.000000\n", "OK 2\n7 0.000000\n9 0.25", "OK 3", ""] {
            let err = read(cut).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{cut:?}");
        }
        assert_eq!(
            read("ferret ready\n").unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn accepts_a_correct_text_reply() {
        let reply = lines(&["7 0.000000", "9 0.250000", "4 0.250000"]);
        assert_eq!(Expect::text(7, 10).check(&reply).unwrap(), vec![7, 9, 4]);
    }

    #[test]
    fn rejects_wrong_text_replies() {
        let cases: [(&[&str], &str); 7] = [
            (&[], "0 hits"),
            (&["9 0.000000", "7 0.000000"], "before the seed"),
            (&["7 0.100000"], "not at distance 0"),
            (&["7 0.000000", "9 0.5", "4 0.25"], "out of order"),
            (&["7 0.000000", "9 0.5", "9 0.6"], "twice"),
            (&["7 0.000000", "9 x"], "malformed"),
            (&["7 0.000000", "1 0.1", "2 0.2", "3 0.3"], "4 hits"),
        ];
        for (reply, why) in cases {
            let err = Expect::text(7, 3).check(&lines(reply)).unwrap_err();
            assert!(err.contains(why), "{reply:?}: {err}");
        }
        // Only an exact (brute) reply must contain the seed object.
        assert!(Expect::text(7, 3).check(&lines(&["9 0.100000"])).is_ok());
        let err = Expect::text(7, 3)
            .exact()
            .check(&lines(&["9 0.100000"]))
            .unwrap_err();
        assert!(err.contains("missing"), "{err}");
        assert!(Expect::text(7, 3).check(&Reply::Busy).is_err());
        assert!(Expect::text(7, 3).check(&Reply::Err("x".into())).is_err());
        assert!(Expect::text(7, 3).check(&Reply::Json("{}".into())).is_err());
    }

    #[test]
    fn directory_restriction_binds_every_text_hit() {
        let expect = Expect::text(2007, 10).within((2000, 3000));
        assert!(expect.check(&lines(&["2007 0.000000", "2999 0.1"])).is_ok());
        let err = expect
            .check(&lines(&["2007 0.000000", "3000 0.1"]))
            .unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn fused_replies_order_by_score_and_bind_attribute_only_hits() {
        let expect = Expect::fused(2007, 10, (2000, 3000));
        let ok = lines(&[
            "2007 0.032787 0.000000",
            "5 0.016129 0.300000",
            "2100 0.015873 -",
        ]);
        assert_eq!(expect.check(&ok).unwrap(), vec![2007, 5, 2100]);
        let outside = lines(&["2007 0.032787 0.000000", "5 0.016129 -"]);
        assert!(expect.check(&outside).unwrap_err().contains("outside"));
        let second = lines(&["2100 0.032787 0.100000", "2007 0.032522 0.000000"]);
        assert_eq!(expect.check(&second).unwrap(), vec![2100, 2007]);
        let far = lines(&["2100 0.032787 0.100000", "2007 0.032522 0.200000"]);
        assert!(expect
            .check(&far)
            .unwrap_err()
            .contains("not at distance 0"));
        let unordered = lines(&["2007 0.01 0.000000", "5 0.02 0.300000"]);
        assert!(expect
            .check(&unordered)
            .unwrap_err()
            .contains("out of order"));
    }

    #[test]
    fn json_replies_must_parse_and_honour_limit_and_minsim() {
        let expect = Expect::json(7, 2, 0.2);
        let ok = "{\"ok\":true,\"results\":[{\"id\":7,\"distance\":0.000000},{\"id\":9,\"distance\":4.000000}]}";
        assert_eq!(expect.check(&Reply::Json(ok.into())).unwrap(), vec![7, 9]);
        let far = ok.replace("4.000000", "4.100000");
        assert!(expect
            .check(&Reply::Json(far))
            .unwrap_err()
            .contains("minsim"));
        let cut = &ok[..ok.len() - 3];
        assert!(expect
            .check(&Reply::Json(cut.into()))
            .unwrap_err()
            .contains("not JSON"));
        let three = "{\"ok\":true,\"results\":[{\"id\":7,\"distance\":0},{\"id\":1,\"distance\":1},{\"id\":2,\"distance\":2}]}";
        assert!(expect
            .check(&Reply::Json(three.into()))
            .unwrap_err()
            .contains("3 hits"));
        assert!(expect.check(&lines(&["7 0.000000"])).is_err());
    }
}
