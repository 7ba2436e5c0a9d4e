//! Property-based robustness tests for the command protocol: arbitrary
//! input must never panic the parser or the service, valid commands
//! must roundtrip through a live service, and a `/search` parameter sets
//! its own key and no other.

use std::sync::Arc;

use parking_lot::RwLock;
use proptest::prelude::*;

use ferret_core::engine::EngineConfig;
use ferret_core::object::{DataObject, ObjectId};
use ferret_core::sketch::SketchParams;
use ferret_core::vector::FeatureVector;
use ferret_query::http::route;
use ferret_query::{
    parse_command, parse_query, response_to_json, AdmissionControl, Dispatcher, FerretService,
};

fn service(n: u64) -> FerretService {
    let config = EngineConfig::basic(
        SketchParams::new(64, vec![0.0; 2], vec![1.0; 2]).unwrap(),
        5,
    );
    let mut svc = FerretService::in_memory(config).unwrap();
    for i in 0..n {
        let x = (i as f32 + 0.5) / n as f32;
        svc.insert(
            ObjectId(i),
            DataObject::single(FeatureVector::new(vec![x, 1.0 - x]).unwrap()),
            Some(
                ferret_attr::AttrsBuilder::new()
                    .int("idx", i as i64)
                    .keyword("tag", "t")
                    .build(),
            ),
        )
        .unwrap();
    }
    svc
}

/// Every key `/search` takes (the protocol's `query` keys), each with
/// values it accepts on its own.
const SEARCH_KEYS: [(&str, &[&str]); 14] = [
    ("id", &["0", "3"]),
    ("k", &["2", "5"]),
    ("mode", &["brute", "sketch", "filter"]),
    ("r", &["1", "2"]),
    ("cand", &["10"]),
    ("threshold", &["8"]),
    ("attr", &["tag:t", "idx>=2"]),
    ("weights", &["1"]),
    ("fusion", &["none", "rrf"]),
    ("rrfk", &["30"]),
    ("fw", &["0.5"]),
    ("minsim", &["0.1"]),
    ("limit", &["3"]),
    ("format", &["json", "text"]),
];

/// What a value is padded with: the characters a protocol line or a query
/// string would split on or quote with.
const JUNK: [&str; 9] = [" ", "=", "\"", "&", "\0", "k=7", " k=7", "&k=7", "x"];

/// Percent-encodes every byte but ASCII letters and digits.
fn url_encode(s: &str) -> String {
    s.bytes()
        .map(|b| {
            if b.is_ascii_alphanumeric() {
                (b as char).to_string()
            } else {
                format!("%{b:02X}")
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_never_panics(input in ".{0,120}") {
        let _ = parse_command(&input);
    }

    /// The full service pipeline never panics on arbitrary lines and always
    /// answers with an OK or ERR status line.
    #[test]
    fn service_always_answers(input in ".{0,120}") {
        let mut svc = service(4);
        let reply = svc.execute_line(&input);
        prop_assert!(
            reply.starts_with("OK") || reply.starts_with("ERR"),
            "unexpected reply {reply:?}"
        );
    }

    /// Well-formed queries with random parameters always succeed against a
    /// populated service.
    #[test]
    fn valid_queries_succeed(
        seed in 0u64..8,
        k in 1usize..20,
        mode_pick in 0usize..3,
        r in 1usize..4,
        cand in 1usize..60,
    ) {
        let mode = ["brute", "sketch", "filter"][mode_pick];
        let mut svc = service(8);
        let line = format!("query id={seed} k={k} mode={mode} r={r} cand={cand}");
        let reply = svc.execute_line(&line);
        prop_assert!(reply.starts_with("OK"), "{line} -> {reply}");
        // The seed object itself must appear among the results (it has
        // distance zero to itself).
        let ids: Vec<u64> = reply
            .lines()
            .skip(1)
            .filter_map(|l| l.split_whitespace().next())
            .filter_map(|t| t.parse().ok())
            .collect();
        prop_assert!(ids.contains(&seed), "{line} -> {reply}");
    }

    /// Attribute range queries match the expected id subsets.
    #[test]
    fn attr_ranges_are_consistent(lo in 0i64..8, hi in 0i64..8) {
        let mut svc = service(8);
        let line = format!("attr idx>={lo} AND idx<={hi}");
        let reply = svc.execute_line(&line);
        prop_assert!(reply.starts_with("OK"), "{reply}");
        let count: usize = reply
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("OK "))
            .and_then(|n| n.parse().ok())
            .unwrap();
        let expected = if hi >= lo { (hi - lo + 1) as usize } else { 0 };
        prop_assert_eq!(count, expected.min(8), "{}", line);
    }

    /// A `/search` value with a space, `=`, `"`, `&` or NUL in it is that
    /// key's value and nothing else: the reply is exactly what the same
    /// `(key, value)` pairs give as a typed query, and a value the query
    /// rejects is a 400 that names its key.
    #[test]
    fn search_values_never_set_another_key(
        key_pick in 0..SEARCH_KEYS.len(),
        value_pick in 0usize..3,
        junk in prop::collection::vec(0..JUNK.len(), 0..4),
    ) {
        let (key, values) = SEARCH_KEYS[key_pick];
        let mut value = values[value_pick % values.len()].to_string();
        for j in junk {
            value.push_str(JUNK[j]);
        }
        let mut pairs: Vec<(&str, &str)> = [("id", "0"), ("k", "2"), ("mode", "brute")]
            .into_iter()
            .filter(|(k, _)| *k != key)
            .collect();
        pairs.push((key, &value));
        let target = format!(
            "/search?{}",
            pairs
                .iter()
                .map(|(k, v)| format!("{k}={}", url_encode(v)))
                .collect::<Vec<_>>()
                .join("&")
        );

        let svc = Arc::new(RwLock::new(service(8)));
        let dispatcher = Dispatcher::new(Arc::clone(&svc), Arc::new(AdmissionControl::new(0, None)));
        let (status, _, body) = route(&dispatcher, &target);
        match parse_query(pairs.iter().copied()) {
            Err(_) => {
                prop_assert_eq!(status, "400 Bad Request", "{} -> {}", target, body);
                prop_assert!(body.contains(key), "{} -> {}", target, body);
            }
            Ok(cmd) => match svc.read().execute_read(&cmd) {
                Ok(resp) => {
                    prop_assert_eq!(status, "200 OK", "{} -> {}", target, body);
                    prop_assert_eq!(body, response_to_json(&resp), "{}", target);
                }
                Err(_) => prop_assert_eq!(status, "400 Bad Request", "{} -> {}", target, body),
            },
        }
    }
}
