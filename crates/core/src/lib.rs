//! # ferret-core
//!
//! Core of the Ferret toolkit: a general-purpose content-based similarity
//! search engine for feature-rich data, after *Ferret: A Toolkit for
//! Content-Based Similarity Search of Feature-Rich Data* (Lv, Josephson,
//! Wang, Charikar, Li — EuroSys 2006).
//!
//! Objects are weighted sets of high-dimensional feature vectors. The
//! engine converts feature vectors into compact bit-vector **sketches**
//! whose Hamming distances estimate (a thresholded transform of) the
//! weighted ℓ₁ distance, **filters** the dataset by streaming sketches to
//! form a small candidate set, and **ranks** candidates with an accurate
//! object distance — by default the Earth Mover's Distance.
//!
//! ```
//! use ferret_core::prelude::*;
//!
//! // An engine over 2-d feature vectors in [0, 1]^2 with 64-bit sketches.
//! let params = SketchParams::new(64, vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
//! let mut engine = SearchEngine::builder(params, 42).build().unwrap();
//!
//! // Insert two single-segment objects.
//! let near = DataObject::single(FeatureVector::new(vec![0.21, 0.19]).unwrap());
//! let far = DataObject::single(FeatureVector::new(vec![0.9, 0.85]).unwrap());
//! engine.insert(ObjectId(1), near).unwrap();
//! engine.insert(ObjectId(2), far).unwrap();
//!
//! // Query near (0.2, 0.2): object 1 must rank first.
//! let query = DataObject::single(FeatureVector::new(vec![0.2, 0.2]).unwrap());
//! let resp = engine.query(&query, &QueryOptions::brute_force(1)).unwrap();
//! assert_eq!(resp.results[0].id, ObjectId(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod distance;
pub mod engine;
pub mod error;
pub mod filter;
pub mod object;
pub mod parallel;
pub mod plugin;
pub mod rank;
pub mod series;
pub mod sketch;
mod storage;
pub mod telemetry;
pub mod vector;

/// Commonly used types, for glob import.
pub mod prelude {
    pub use crate::distance::emd::{Emd, GreedyEmd, ThresholdedEmd};
    pub use crate::distance::hamming::{Hamming, NormalizedHamming, ScaledHamming, SketchDistance};
    pub use crate::distance::histogram::{ChiSquare, HistogramIntersection};
    pub use crate::distance::lp::{LInf, Lp, WeightedL1, L1, L2};
    pub use crate::distance::{ObjectDistance, SegmentDistance};
    pub use crate::engine::{
        EngineBuilder, EngineConfig, MetadataFootprint, QueryMode, QueryOptions, QueryResponse,
        QueryStats, RankingMethod, SearchEngine,
    };
    pub use crate::error::{CoreError, Result};
    pub use crate::filter::{FilterParams, FilterScan, FilterStats};
    pub use crate::object::{DataObject, ObjectId, Segment};
    pub use crate::parallel::Parallelism;
    pub use crate::plugin::{Extractor, FileExtractor};
    pub use crate::rank::SearchResult;
    pub use crate::sketch::{BitVec, SketchBuilder, SketchParams, SketchedObject};
    pub use crate::telemetry::{
        Counter, Gauge, Histogram, MetricsRegistry, QueryTrace, StageTrace,
    };
    pub use crate::vector::FeatureVector;
}
