//! `benchmark run | set | compare`: see README.md.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use pcs_benchmark::compare::{self, Definition};
use pcs_benchmark::workloads::{self, RunArgs, Sizing, WORKLOADS};

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         benchmark run --workload <{}> --seed <u64> [--seconds <n>] [--trace 0|1] [--smoke]\n  \
         benchmark set --seeds <a,b,..> --out <file> [--seconds <n>] [--trace 0|1] [--smoke] \
         [--benchmark <BENCHMARK.json>]\n  \
         benchmark compare <base file> <other file> [--benchmark <BENCHMARK.json>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// `--name value` pairs (and the bare `--smoke`, `--setup-only`); other
/// words are positional.
fn parse(args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(word) = it.next() {
        match word.strip_prefix("--") {
            Some(bare @ ("smoke" | "setup-only")) => {
                flags.insert(bare.to_string(), "1".to_string());
            }
            Some(name) => {
                let Some(value) = it.next() else { usage() };
                flags.insert(name.to_string(), value.clone());
            }
            None => positional.push(word.clone()),
        }
    }
    (flags, positional)
}

/// Scratch space of one run: inside the build directory, beside the
/// executable, so the benchmark writes nowhere else.
fn work_dir(workload: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe
        .parent()
        .expect("executable has a directory")
        .join("bench-work")
        .join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create work directory");
    dir
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let (flags, positional) = parse(&args[1..]);
    let number = |name: &str, default: u64| -> u64 {
        flags.get(name).map_or(default, |v| v.parse().unwrap_or_else(|_| usage()))
    };
    let definition = || {
        let path = flags.get("benchmark").map_or("BENCHMARK.json", String::as_str);
        Definition::read(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    };
    match command.as_str() {
        "run" => {
            let workload = flags.get("workload").cloned().unwrap_or_else(|| usage());
            if !WORKLOADS.contains(&workload.as_str()) {
                eprintln!("unknown workload {workload}");
                usage();
            }
            let sizing = if flags.contains_key("smoke") {
                Sizing::smoke()
            } else {
                Sizing::for_seconds(number("seconds", 10))
            };
            let run = RunArgs {
                work: work_dir(&workload),
                workload,
                seed: number("seed", 1),
                sizing,
                trace: number("trace", 0) == 1,
                setup_only: flags.contains_key("setup-only"),
                cli: args[1..].to_vec(),
            };
            let report = workloads::run(&run);
            let _ = std::fs::remove_dir_all(&run.work);
            if run.setup_only {
                // A child of a run's set-up: just the time it took.
                return println!("{}", report.metrics[0].value);
            }
            for line in &report.notes {
                eprintln!("[{}] {line}", run.workload);
            }
            for m in &report.metrics {
                eprintln!("[{}] {:<36} {:>16.4} {}", run.workload, m.name, m.value, m.unit);
            }
            println!("{}", report.to_json());
            if report.failed > 0 {
                std::process::exit(1);
            }
        }
        // The child of `cold-scale`'s set-up.
        "build-snapshot" => {
            let get = |name: &str| flags.get(name).cloned().unwrap_or_else(|| usage());
            workloads::build_snapshot(
                get("scale").parse().unwrap_or_else(|_| usage()),
                get("pool").parse().unwrap_or_else(|_| usage()),
                Path::new(&get("out")),
            );
        }
        "set" => {
            let seeds: Vec<u64> = flags
                .get("seeds")
                .unwrap_or_else(|| usage())
                .split(',')
                .map(|s| s.parse().unwrap_or_else(|_| usage()))
                .collect();
            let out = PathBuf::from(flags.get("out").unwrap_or_else(|| usage()));
            let failures = compare::run_set(
                &definition(),
                &seeds,
                number("seconds", 10),
                number("trace", 0) == 1,
                flags.contains_key("smoke"),
                &out,
            )
            .unwrap_or_else(|e| {
                eprintln!("set: {e}");
                std::process::exit(2);
            });
            eprintln!("set: results appended to {}; {failures} runs failed", out.display());
            if failures > 0 {
                std::process::exit(1);
            }
        }
        "compare" => {
            let [a, b] = positional.as_slice() else { usage() };
            match compare::compare(&definition(), Path::new(a), Path::new(b)) {
                Ok((0, _)) => {}
                Ok(_) => std::process::exit(1),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
        }
        _ => usage(),
    }
}
