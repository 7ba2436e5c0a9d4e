//! Generic pre-extracted feature-vector files.
//!
//! Not every user plugs raw media into the toolkit; many (like the
//! genomics group in §5.4) already have feature vectors. The `.fvec` text
//! format carries one object per file as weighted segments:
//!
//! ```text
//! # comment
//! <weight> <v1> <v2> ... <vD>
//! <weight> <v1> <v2> ... <vD>
//! ```
//!
//! Every data line is one segment; all lines must share a dimensionality.

use std::path::Path;

use ferret_core::error::{CoreError, Result};
use ferret_core::object::DataObject;
use ferret_core::plugin::{Extractor, FileExtractor};
use ferret_core::vector::FeatureVector;

/// Parses the `.fvec` text format into a [`DataObject`].
pub fn parse_fvec(text: &str) -> Result<DataObject> {
    let mut parts: Vec<(FeatureVector, f32)> = Vec::new();
    let mut dim: Option<usize> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut nums = Vec::new();
        for tok in line.split_whitespace() {
            let v: f32 = tok.parse().map_err(|_| {
                CoreError::Extraction(format!("fvec line {}: bad number {tok:?}", lineno + 1))
            })?;
            nums.push(v);
        }
        if nums.len() < 2 {
            return Err(CoreError::Extraction(format!(
                "fvec line {}: need a weight and at least one component",
                lineno + 1
            )));
        }
        let weight = nums[0];
        let components = nums[1..].to_vec();
        match dim {
            None => dim = Some(components.len()),
            Some(d) if d != components.len() => {
                return Err(CoreError::Extraction(format!(
                    "fvec line {}: dimensionality {} != {}",
                    lineno + 1,
                    components.len(),
                    d
                )));
            }
            Some(_) => {}
        }
        parts.push((FeatureVector::new(components)?, weight));
    }
    DataObject::new(parts)
}

/// Serializes a [`DataObject`] to the `.fvec` text format.
#[cfg(test)]
fn format_fvec(obj: &DataObject) -> String {
    let mut out = String::from("# ferret fvec: one weighted segment per line\n");
    for seg in obj.segments() {
        out.push_str(&format!("{}", seg.weight));
        for c in seg.vector.components() {
            out.push_str(&format!(" {c}"));
        }
        out.push('\n');
    }
    out
}

/// Extractor over `.fvec` file contents.
#[derive(Debug, Clone, Copy, Default)]
pub struct FvecExtractor {
    /// Expected dimensionality (0 = accept any).
    pub dim: usize,
}

impl FvecExtractor {
    /// An extractor that requires `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Self {
        Self { dim }
    }
}

impl Extractor for FvecExtractor {
    type Input = str;

    fn name(&self) -> &'static str {
        "fvec"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn extract(&self, input: &str) -> Result<DataObject> {
        let obj = parse_fvec(input)?;
        if self.dim != 0 && obj.dim() != self.dim {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim,
                actual: obj.dim(),
            });
        }
        Ok(obj)
    }
}

impl FileExtractor for FvecExtractor {
    fn name(&self) -> &'static str {
        "fvec"
    }

    fn extract_file(&self, path: &Path) -> Result<DataObject> {
        // ferret-lint: allow(vfs-bypass) -- read-only load of a user input file for feature extraction; durability is not involved
        let text = std::fs::read_to_string(path)
            .map_err(|e| CoreError::Extraction(format!("read {}: {e}", path.display())))?;
        self.extract(&text)
    }
}

#[cfg(test)]
// Tests write fixture files directly; the Vfs seam is for production durability.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic() {
        let obj = parse_fvec("# two segments\n1.0 0.5 0.5\n3.0 0.1 0.9\n").unwrap();
        assert_eq!(obj.num_segments(), 2);
        assert_eq!(obj.dim(), 2);
        assert!((obj.segment(0).weight - 0.25).abs() < 1e-6);
        assert!((obj.segment(1).weight - 0.75).abs() < 1e-6);
    }

    #[test]
    fn roundtrip() {
        let obj = parse_fvec("0.5 1 2 3\n0.5 4 5 6\n").unwrap();
        let text = format_fvec(&obj);
        let back = parse_fvec(&text).unwrap();
        assert_eq!(obj, back);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_fvec("").is_err());
        assert!(parse_fvec("# only comments\n").is_err());
        assert!(parse_fvec("1.0\n").is_err());
        assert!(parse_fvec("1.0 nope\n").is_err());
        assert!(parse_fvec("1.0 1 2\n1.0 1 2 3\n").is_err());
        assert!(parse_fvec("-1.0 1 2\n").is_err()); // Negative weight.
    }

    #[test]
    fn extractor_checks_dim() {
        let e = FvecExtractor::new(3);
        assert!(e.extract("1 1 2 3\n").is_ok());
        assert!(e.extract("1 1 2\n").is_err());
        assert_eq!(Extractor::name(&e), "fvec");
        assert_eq!(Extractor::dim(&e), 3);
        // Unconstrained extractor accepts anything consistent.
        assert!(FvecExtractor::default().extract("1 7\n").is_ok());
    }

    #[test]
    fn file_extractor_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ferret-fvec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("obj.fvec");
        std::fs::write(&path, "1.0 0.1 0.2\n2.0 0.3 0.4\n").unwrap();
        let e = FvecExtractor::default();
        let obj = e.extract_file(&path).unwrap();
        assert_eq!(obj.num_segments(), 2);
        assert!(e.extract_file(Path::new("/no/such/file")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
