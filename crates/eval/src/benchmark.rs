//! Benchmark files: the ground-truth format consumed by the evaluation
//! tool.
//!
//! "The input we take is a formatted benchmark file containing the
//! performance benchmark suite which describes the ground truth for
//! similarity search" (paper §4.3). The format is line-oriented:
//!
//! ```text
//! # comment
//! set <name> <id> <id> <id> ...
//! ```

use ferret_core::object::ObjectId;

/// One named gold-standard similarity set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimilaritySet {
    /// Set name (unique within a suite).
    pub name: String,
    /// Member object ids; the first is used as the default query seed.
    pub members: Vec<ObjectId>,
}

/// A benchmark suite: a list of similarity sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchmarkSuite {
    /// The gold-standard sets.
    pub sets: Vec<SimilaritySet>,
}

/// A benchmark file parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for BenchmarkParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "benchmark line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for BenchmarkParseError {}

impl BenchmarkSuite {
    /// Builds a suite from raw similarity sets (auto-named `set-<i>`).
    pub fn from_sets(sets: &[Vec<ObjectId>]) -> Self {
        Self {
            sets: sets
                .iter()
                .enumerate()
                .map(|(i, members)| SimilaritySet {
                    name: format!("set-{i}"),
                    members: members.clone(),
                })
                .collect(),
        }
    }

    /// Parses the benchmark file format.
    pub fn parse(text: &str) -> Result<Self, BenchmarkParseError> {
        let mut sets = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let keyword = parts.next().expect("non-empty line");
            if keyword != "set" {
                return Err(BenchmarkParseError {
                    line: lineno + 1,
                    message: format!("unknown keyword {keyword:?}"),
                });
            }
            let name = parts
                .next()
                .ok_or_else(|| BenchmarkParseError {
                    line: lineno + 1,
                    message: "missing set name".into(),
                })?
                .to_string();
            if !seen.insert(name.clone()) {
                return Err(BenchmarkParseError {
                    line: lineno + 1,
                    message: format!("duplicate set name {name:?}"),
                });
            }
            let members: Result<Vec<ObjectId>, _> = parts
                .map(|tok| {
                    tok.parse::<u64>()
                        .map(ObjectId)
                        .map_err(|_| BenchmarkParseError {
                            line: lineno + 1,
                            message: format!("invalid object id {tok:?}"),
                        })
                })
                .collect();
            let members = members?;
            if members.len() < 2 {
                return Err(BenchmarkParseError {
                    line: lineno + 1,
                    message: "a similarity set needs at least 2 members".into(),
                });
            }
            sets.push(SimilaritySet { name, members });
        }
        Ok(Self { sets })
    }

    /// Serializes to the benchmark file format.
    #[cfg(test)]
    fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("# Ferret benchmark suite\n");
        for set in &self.sets {
            let _ = write!(out, "set {}", set.name);
            for id in &set.members {
                let _ = write!(out, " {}", id.0);
            }
            out.push('\n');
        }
        out
    }

    /// Number of sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True if the suite has no sets.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic() {
        let suite = BenchmarkSuite::parse("# comment\n\nset dogs 1 2 3\nset cats 4 5\n").unwrap();
        assert_eq!(suite.len(), 2);
        assert_eq!(suite.sets[0].name, "dogs");
        assert_eq!(
            suite.sets[0].members,
            vec![ObjectId(1), ObjectId(2), ObjectId(3)]
        );
        assert_eq!(suite.sets[1].members.len(), 2);
    }

    #[test]
    fn roundtrip() {
        let suite = BenchmarkSuite::from_sets(&[
            vec![ObjectId(1), ObjectId(2)],
            vec![ObjectId(7), ObjectId(8), ObjectId(9)],
        ]);
        let text = suite.to_text();
        let back = BenchmarkSuite::parse(&text).unwrap();
        assert_eq!(suite, back);
    }

    #[test]
    fn parse_errors() {
        for (text, needle) in [
            ("wibble a b", "unknown keyword"),
            ("set", "missing set name"),
            ("set a 1", "at least 2"),
            ("set a 1 x", "invalid object id"),
            ("set a 1 2\nset a 3 4", "duplicate set name"),
        ] {
            let err = BenchmarkSuite::parse(text).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{text:?}: {} does not contain {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn error_reports_line() {
        let err = BenchmarkSuite::parse("set a 1 2\nbogus\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn empty_suite() {
        let suite = BenchmarkSuite::parse("# nothing\n").unwrap();
        assert!(suite.is_empty());
        assert_eq!(suite.len(), 0);
    }
}
