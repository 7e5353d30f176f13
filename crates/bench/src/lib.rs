//! # pcs-bench — the paper-reproduction harness
//!
//! One binary per table/figure of the paper's evaluation (see
//! DESIGN.md §4 for the full index) plus the `bench_snapshot`
//! perf-trajectory harness.
//! This library holds the shared plumbing: a tiny CLI parser, timing
//! helpers, and table printing.
//!
//! Every binary accepts `--scale <f64>` (dataset size multiplier,
//! default 0.02), `--queries <n>` (query count, default 100), and
//! `--seed <u64>`; run e.g.
//!
//! ```text
//! cargo run -p pcs-bench --release --bin fig14_query_efficiency -- --section k
//! ```

#![deny(unsafe_code)]

use std::time::{Duration, Instant};

/// Common harness options parsed from `std::env::args`.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Dataset scale multiplier against paper sizes.
    pub scale: f64,
    /// Number of query vertices per dataset.
    pub queries: usize,
    /// Master seed.
    pub seed: u64,
    /// Degree bound `k` (paper default 6).
    pub k: u32,
    /// Figure-specific section selector (e.g. fig14's `k`, `vertex`,
    /// `ptree`, `gptree`, `find`, `all`).
    pub section: String,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs { scale: 0.02, queries: 100, seed: 0x9c5_5eed, k: 6, section: "all".into() }
    }
}

/// Parses `--scale`, `--queries`, `--seed`, `--k`, `--section` from the
/// process arguments; unknown flags abort with a usage message.
pub fn parse_args() -> HarnessArgs {
    let mut out = HarnessArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--scale" => out.scale = take("--scale").parse().expect("--scale takes a float"),
            "--queries" => {
                out.queries = take("--queries").parse().expect("--queries takes an integer")
            }
            "--seed" => out.seed = take("--seed").parse().expect("--seed takes an integer"),
            "--k" => out.k = take("--k").parse().expect("--k takes an integer"),
            "--section" => out.section = take("--section"),
            "--help" | "-h" => {
                eprintln!(
                    "options: --scale <f64> --queries <n> --seed <u64> --k <u32> --section <name>"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; see --help");
                std::process::exit(2);
            }
        }
    }
    out
}

/// Owned [`PcsEngine`] over a dataset the harness keeps borrowing for
/// query sampling and subsampling: graph, taxonomy, and profiles are
/// cloned in, and the CP-tree index is prebuilt so timed regions
/// measure queries only. Binaries that are done with their dataset
/// should use [`engine_owning`] instead to avoid the copy.
pub fn engine_for(ds: &pcs_datasets::ProfiledDataset) -> pcs_engine::PcsEngine {
    engine_owning(ds.clone())
}

/// Owned [`PcsEngine`] consuming a dataset outright (no clone), with
/// the CP-tree index prebuilt. The dataset's ground-truth groups and
/// name are dropped; extract them first if the harness needs them.
pub fn engine_owning(ds: pcs_datasets::ProfiledDataset) -> pcs_engine::PcsEngine {
    pcs_engine::PcsEngine::builder()
        .graph(ds.graph)
        .taxonomy(ds.tax)
        .profiles(ds.profiles)
        .index_mode(pcs_engine::IndexMode::Eager)
        .build()
        .expect("consistent dataset")
}

/// Times a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed())
}

/// Prints a header row followed by a separator.
pub fn header(cols: &[&str]) {
    let line: Vec<String> = cols.iter().map(|c| format!("{c:>14}")).collect();
    let joined = line.join(" ");
    println!("{joined}");
    println!("{}", "-".repeat(joined.len()));
}

/// Prints one row of right-aligned cells.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Convenience: format a float cell.
pub fn f(v: f64) -> String {
    format!("{v:.3}")
}

/// Convenience: format a percentage cell.
pub fn pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let a = HarnessArgs::default();
        assert_eq!(a.queries, 100);
        assert_eq!(a.k, 6);
        assert!(a.scale > 0.0);
        assert_eq!(a.section, "all");
    }

    #[test]
    fn time_measures() {
        let (v, d) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(0.5), "0.500");
        assert_eq!(pct(0.43), "43%");
    }
}

/// Shared quality-experiment machinery (Figs. 9-12).
pub mod quality;
