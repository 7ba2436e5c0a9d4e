//! # ferret-query
//!
//! The query-facing layer of the Ferret toolkit: the command-line query
//! protocol (paper §4.1.4), the composed search service (core engine +
//! attribute search + transactional metadata), and one server that speaks
//! the line protocol or the minimal web interface (§4.3) on each listener.
//!
//! ```
//! use ferret_core::engine::EngineConfig;
//! use ferret_core::object::{DataObject, ObjectId};
//! use ferret_core::sketch::SketchParams;
//! use ferret_core::vector::FeatureVector;
//! use ferret_query::FerretService;
//!
//! let config = EngineConfig::basic(
//!     SketchParams::new(64, vec![0.0; 2], vec![1.0; 2]).unwrap(), 1);
//! let mut service = FerretService::in_memory(config).unwrap();
//! service.insert(
//!     ObjectId(1),
//!     DataObject::single(FeatureVector::new(vec![0.5, 0.5]).unwrap()),
//!     None,
//! ).unwrap();
//! let reply = service.execute_line("query id=1 k=1 mode=brute");
//! assert!(reply.starts_with("OK 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod fusion;
pub mod http;
pub mod protocol;
pub mod server;
pub mod service;

pub use admission::{AdmissionControl, AdmissionGuard};
pub use cache::ResultCache;
pub use fusion::{rrf_fuse, weighted_fuse, FusedHit};
pub use protocol::{
    parse_command, parse_query, render_error, render_reply, render_response, response_to_json,
    Command, ProtocolError, BUSY_LINE, HELP_TEXT,
};
pub use server::{Client, Dispatcher, Protocol, Server};
pub use service::{
    FerretService, RecoveryReport, Response, ServiceBuilder, ServiceError, CALIBRATION_KEY,
    CALIBRATION_TABLE, DEFAULT_TRACE_CAPACITY, FEATURES_TABLE,
};
