//! The plug-in interface for data-type specific modules.
//!
//! System builders parameterize the toolkit with a segmentation and feature
//! extraction module and (optionally) their own distance functions (paper
//! §4.2). [`Extractor`] is the Rust counterpart of the C interface
//! `ObjectT seg_extract_func(const char *filename)`: it digests one raw
//! input into a [`DataObject`] — a weighted set of feature vectors.

use crate::error::Result;
use crate::object::DataObject;

/// A segmentation and feature extraction module for one data type.
///
/// Implementations segment the raw input into `k` segments, extract one
/// `D`-dimensional feature vector per segment and assign each segment an
/// importance weight (normalized by [`DataObject::new`]).
pub trait Extractor: Send + Sync {
    /// The raw input this extractor digests (file contents, a PCM buffer, a
    /// voxel grid, a microarray row, ...).
    type Input: ?Sized;

    /// Human-readable name of the data type ("image", "audio", ...).
    fn name(&self) -> &'static str;

    /// The dimensionality `D` of the feature vectors this extractor emits.
    fn dim(&self) -> usize;

    /// Segments the input and extracts one weighted feature vector per
    /// segment.
    fn extract(&self, input: &Self::Input) -> Result<DataObject>;
}

/// An extractor that reads its input from a file on disk.
///
/// This is the shape the paper's data acquisition component expects: each
/// newly discovered file is handed to the plug-in by path.
pub trait FileExtractor: Send + Sync {
    /// Human-readable name of the data type.
    fn name(&self) -> &'static str;

    /// Segments and extracts the object stored in `path`.
    fn extract_file(&self, path: &std::path::Path) -> Result<DataObject>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::FeatureVector;

    /// A toy extractor: each byte becomes a 1-d segment with weight 1.
    struct ByteExtractor;

    impl Extractor for ByteExtractor {
        type Input = [u8];

        fn name(&self) -> &'static str {
            "bytes"
        }

        fn dim(&self) -> usize {
            1
        }

        fn extract(&self, input: &[u8]) -> Result<DataObject> {
            DataObject::new(
                input
                    .iter()
                    .map(|&b| (FeatureVector::from_components(vec![f32::from(b)]), 1.0))
                    .collect(),
            )
        }
    }

    #[test]
    fn extractor_produces_objects() {
        let e = ByteExtractor;
        let obj = e.extract(&[1, 2, 3]).unwrap();
        assert_eq!(obj.num_segments(), 3);
        assert_eq!(e.dim(), 1);
        assert_eq!(e.name(), "bytes");
    }

    #[test]
    fn extractor_propagates_errors() {
        let e = ByteExtractor;
        assert!(e.extract(&[]).is_err());
    }
}
