//! # ferret-datatypes
//!
//! The four data-type plug-ins of the Ferret paper (§5) — image, audio,
//! 3D shape, and genomic microarray — implemented end to end, plus
//! synthetic benchmark generators with planted ground-truth similarity
//! sets standing in for the VARY, TIMIT, and PSB collections (the
//! substitutions are documented in DESIGN.md).
//!
//! Each plug-in provides a segmentation/feature-extraction module
//! implementing [`ferret_core::plugin::Extractor`], sketch-parameter
//! helpers, and generators for the paper's quality and speed benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audio;
pub mod common;
pub mod generic;
pub mod genomic;
pub mod image;
pub mod shape;

pub use common::Dataset;
