//! # arp-plot — minimal plotting for the seismic pipeline
//!
//! The original pipeline spends three of its twenty processes producing
//! PostScript plots (`<s>.ps`, `<s>f.ps`, `<s>r.ps`). This crate implements
//! that capability from scratch:
//!
//! * [`axis`] — linear/log scales and nice tick generation;
//! * [`backend`] — PostScript and SVG emitters;
//! * [`chart`] — line charts, stacked-panel figures, grouped bar charts;
//! * [`flame`] — flame/icicle graphs from folded stacks (profiling).
//!
//! No external dependencies; output is plain text in both formats.

#![warn(missing_docs)]

pub mod axis;
pub mod backend;
pub mod chart;
mod fixed2;
pub mod flame;
pub mod histogram;

pub use axis::{Axis, Scale};
pub use backend::{Anchor, Backend, Color, PostScript, Svg};
pub use chart::{Figure, GroupedBarChart, LineChart, Series};
pub use flame::{FlameFrame, FlameGraph};
pub use histogram::Histogram;
