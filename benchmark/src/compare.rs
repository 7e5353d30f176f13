//! `benchmark set` and `benchmark compare`: result files and the
//! verdict on two of them against the bounds in `BENCHMARK.json`.
//!
//! A result file holds one JSON object per line:
//! `{"workload": .., "seed": .., "trace": 0|1, "result": <result line>}`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::stats::{median, quartile_spread};

/// One end-to-end metric of `BENCHMARK.json`.
pub struct Bounded {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// What the benchmark's definition file says.
pub struct Definition {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bounded>,
    pub per_layer: Vec<String>,
}

impl Definition {
    pub fn read(path: &Path) -> Result<Definition, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let names = |key: &str| -> Result<Vec<&Json>, String> {
            Ok(json
                .get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("{}: no array `{key}`", path.display()))?
                .iter()
                .collect())
        };
        let name_of = |j: &Json| -> Result<String, String> {
            Ok(j.get("name").and_then(Json::as_str).ok_or("entry without a name")?.to_string())
        };
        let mut end_to_end = Vec::new();
        for m in names("end_to_end")? {
            end_to_end.push(Bounded {
                name: name_of(m)?,
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?,
            });
        }
        Ok(Definition {
            workloads: names("workloads")?.into_iter().map(name_of).collect::<Result<_, _>>()?,
            end_to_end,
            per_layer: names("per_layer")?.into_iter().map(name_of).collect::<Result<_, _>>()?,
        })
    }
}

/// `(workload, metric) -> values` of a result file's untraced runs.
fn read_results(path: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let row = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        if row.get("trace").and_then(Json::as_u64) == Some(1) {
            continue;
        }
        let workload = row.get("workload").and_then(Json::as_str).unwrap_or("?").to_string();
        let metrics = row.get("result").and_then(|r| r.get("metrics")).and_then(Json::as_obj);
        for (name, m) in metrics.unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.clone(), name.clone())).or_default().push(v);
            }
        }
    }
    Ok(out)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound,
    /// so the two medians cannot be told apart at that bound.
    Unresolved,
}

/// The share of the base median by which the other median is worse
/// (negative when it is better).
pub fn worsening(base: f64, other: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        other / base - 1.0
    } else {
        1.0 - other / base
    }
}

pub fn verdict(worse: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints every (metric, workload) pair of two result files; returns
/// how many pairs regressed and how many are unresolved.
pub fn compare(def: &Definition, a: &Path, b: &Path) -> Result<(usize, usize), String> {
    let (ra, rb) = (read_results(a)?, read_results(b)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<12} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "base median", "other median", "ratio", "spreadA", "spreadB", "bound"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for w in &def.workloads {
        for m in &def.end_to_end {
            let key = (w.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (ra.get(&key), rb.get(&key)) else {
                let _ = writeln!(out, "{w:<12} {:<12} missing from a file", m.name);
                unresolved += 1;
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let spread = |v: &[f64]| if v.len() >= 2 { quartile_spread(v) } else { 0.0 };
            let (sa, sb) = (spread(va), spread(vb));
            let v = verdict(worsening(ma, mb, m.lower_is_better), sa.max(sb), m.bound);
            match v {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            let _ = writeln!(
                out,
                "{w:<12} {:<12} {ma:>14.4} {mb:>14.4} {:>8.4} {sa:>8.4} {sb:>8.4} {:>6.2}  {}",
                m.name,
                mb / ma,
                m.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    print!("{out}");
    println!(
        "ratio = other median / base median; spread = quartile distance / median over a file's \
         runs (n = {} and {} per pair); {regressed} regressed, {unresolved} unresolved",
        ra.values().map(Vec::len).max().unwrap_or(0),
        rb.values().map(Vec::len).max().unwrap_or(0)
    );
    Ok((regressed, unresolved))
}

/// Runs every workload once per seed, each in a process of its own,
/// and appends the result lines to `out`. Returns how many runs
/// failed.
pub fn run_set(
    def: &Definition,
    seeds: &[u64],
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: &Path,
) -> std::io::Result<usize> {
    use std::io::Write as _;
    let exe = std::env::current_exe()?;
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(out)?;
    let mut failures = 0;
    for &seed in seeds {
        for w in &def.workloads {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["run", "--workload", w, "--seed", &seed.to_string()]);
            cmd.args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
            if smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.stderr(std::process::Stdio::inherit()).output()?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout.lines().last().unwrap_or("null");
            if !output.status.success() {
                failures += 1;
            }
            writeln!(
                file,
                "{{\"workload\": \"{w}\", \"seed\": {seed}, \"trace\": {}, \"result\": {result}}}",
                u8::from(trace)
            )?;
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound() {
        // 8% slower, bound 10%: ok; 12%: regressed; noisy: unresolved.
        assert_eq!(verdict(worsening(100.0, 108.0, true), 0.02, 0.10), Verdict::Ok);
        assert_eq!(verdict(worsening(100.0, 112.0, true), 0.02, 0.10), Verdict::Regressed);
        assert_eq!(verdict(worsening(100.0, 112.0, true), 0.15, 0.10), Verdict::Unresolved);
        // Higher is better: a drop is what worsens.
        assert_eq!(verdict(worsening(100.0, 85.0, false), 0.02, 0.10), Verdict::Regressed);
        assert_eq!(verdict(worsening(100.0, 130.0, false), 0.02, 0.10), Verdict::Ok);
    }
}
