//! # arp-formats — file formats of the accelerographic-records pipeline
//!
//! Every artifact the pipeline reads or writes has a typed representation
//! with a text serialization, a validating parser, and disk I/O:
//!
//! | Module | Files |
//! |---|---|
//! | [`v1`] | `<s>.v1` (raw station), `<s><c>.v1` (per component) |
//! | [`v2`] | `<s><c>.v2` (corrected records) |
//! | [`ffile`] | `<s><c>.f` (Fourier spectra) |
//! | [`rfile`] | `<s><c>.r` (response spectra) |
//! | [`gem`] | `<s><c>GEM<2\|R><A\|V\|D>.gem` (GEM products) |
//! | [`meta`] | flags, file lists, filter params, max values |
//!
//! All formats share the layout implemented in [`numio`]: a magic line,
//! `KEY: value` headers, and counted `BEGIN`/`END` numeric blocks, so a
//! corrupt or truncated file is always detected rather than silently
//! mis-read.

#![deny(missing_docs)]

pub mod encode;
pub mod error;
pub mod ffile;
pub mod filter;
pub mod fsio;
pub mod gem;
pub mod iter;
pub mod meta;
pub mod numio;
pub mod query;
pub mod rfile;
pub mod stats;
pub mod types;
pub mod v1;
pub mod v2;

pub use encode::RecordEncoder;
pub use error::FormatError;
pub use ffile::FFile;
pub use filter::Filter;
pub use gem::{GemFile, GemSource};
pub use iter::{Record, RecordKind, RecordMeta, RecordReader};
pub use meta::{FileList, FilterParams, FlagFile, MaxEntry, MaxValues, StationCorners};
pub use query::{Query, QueryHit, QueryIter};
pub use rfile::RFile;
pub use types::{names, Component, MotionTriple, Quantity, RecordHeader};
pub use v1::{V1ComponentFile, V1StationFile};
pub use v2::V2File;
