//! The one benchmark of the PCS stack: four workloads, end-to-end
//! metrics with regression bounds, and a per-layer traced run.
//! `README.md` says what is measured and why; `BENCHMARK.json` at the
//! repository root names every metric and fixes the bounds.
//!
//! * [`layers`] — the only file that calls into the workspace crates;
//! * [`inputs`] — pinned corpus, stratified query pool, seeded op lists;
//! * [`loadgen`] — the closed-loop HTTP load generator;
//! * [`oracle`] — expected answers from `basic`, from scratch;
//! * [`workloads`] — the four workloads and their checks;
//! * [`trace`], [`probes`] — harness-side spans and the per-layer run;
//! * [`compare`] — result files and verdicts against the bounds.

pub mod compare;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod loadgen;
pub mod oracle;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;
