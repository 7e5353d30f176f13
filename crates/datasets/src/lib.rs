//! # pcs-datasets — synthetic profiled-graph datasets
//!
//! The paper evaluates on ACMDL, PubMed (real co-authorship networks
//! with CCS/MeSH profiles), Flickr, DBLP (hash-synthesized profiles),
//! and three Facebook ego-networks with ground-truth circles. None of
//! those dumps ship with this repository, so this crate generates
//! **calibrated substitutes**: seeded random profiled graphs matching
//! the statistics that drive algorithmic behaviour (vertex/edge counts
//! at a configurable scale, average degree `d̂`, average P-tree size
//! `P̂`, GP-tree size, planted overlapping communities with shared
//! *theme* subtrees). See DESIGN.md §3 for the substitution argument.
//!
//! * [`taxonomy`] — random GP-trees with CCS-like (1 908 labels) and
//!   MeSH-like (10 132 labels) shapes;
//! * [`gen`] — the community-structured profiled-graph generator;
//! * [`suite`] — the four paper datasets at a chosen scale (Table 2);
//! * [`ego`] — FB1–FB3 ego-network substitutes with ground-truth
//!   circles (Table 4);
//! * [`scale`] — vertex / P-tree / GP-tree percentage sub-sampling for
//!   the scalability sweeps (Figs. 13–14);
//! * [`queries`] — query-vertex sampling from the 6-core, as in the
//!   paper's setup;
//! * [`updates`] — timestamped edge/profile mutation streams for the
//!   engine's live-update path.

#![deny(unsafe_code)]

pub mod ego;
pub mod gen;
pub mod queries;
pub mod scale;
pub mod suite;
pub mod taxonomy;
pub mod updates;

pub use gen::{DatasetSpec, ProfiledDataset};
pub use queries::sample_query_vertices;
pub use suite::{SuiteConfig, SuiteDataset};
pub use updates::{update_stream, StreamOp, TimedOp, UpdateStreamSpec};
