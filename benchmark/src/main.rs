//! The benchmark of this repository: four workloads — `build-dblp`,
//! `query-inex`, `serve-http`, `maintain-dblp` — with oracle-checked
//! outputs and a per-layer traced run. `BENCHMARK.json` at the repository
//! root lists three of them; `serve-http` runs by name, under `all`, and
//! as the server layer of `query-inex`'s traced run. See `README.md`
//! beside this crate.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name>|all [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--repeat N]
//! ```
//!
//! One workload runs in this process and ends its standard output with one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`). `all` and
//! `--repeat` run every workload in a child process of its own.

#![forbid(unsafe_code)]

mod access;
mod inputs;
mod layers;
mod oracle;
mod reference;
mod report;
mod stats;
mod trace;
mod workloads;

use rand::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Ctx, WORKLOADS};

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|&(n, _)| n).collect();
    format!(
        "usage: benchmark --workload <{}|all> [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--repeat N]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut seconds_given = false;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--smoke" => args.smoke = true,
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    args.trace = false;
                    i += 1;
                }
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|&(n, _)| n == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) || args.repeat == 0 {
        return Err("--seconds and --repeat must be positive".to_string());
    }
    if args.smoke && !seconds_given {
        args.seconds = 0.2;
    }
    Ok(args)
}

/// Set in the environment of a process that was re-started on one CPU.
const PINNED: &str = "HOPI_BENCHMARK_PINNED";

/// Every workload runs on one CPU. The speed of a vCPU of a shared host
/// moves with what the host runs beside it on the same core, and the two
/// vCPUs of the reference box move independently of each other (their
/// readings of one kernel over 90 s correlate at −0.1): a reference reading
/// taken on one CPU says nothing about an operation that ran on the other.
/// For `serve-http` there is a second reason: a request/response ping-pong
/// between two vCPUs pays an inter-processor interrupt per wake-up (~60 µs
/// a round trip here) while one within a vCPU pays a context switch
/// (~11 µs), and the scheduler picks between the two from run to run. The
/// standard library cannot set an affinity mask, so the process starts
/// itself again under `taskset` on the first CPU it is allowed; without
/// `taskset` it runs unpinned and says so. Returns the pinned run's exit
/// code.
fn run_pinned(argv: &[String]) -> Option<ExitCode> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu: String = allowed
        .trim()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let exe = std::env::current_exe().ok()?;
    let status = Command::new("taskset")
        .args(["-c", &cpu])
        .arg(exe)
        .args(argv)
        .env(PINNED, &cpu)
        .status()
        .ok()?;
    Some(ExitCode::from(status.code().unwrap_or(1) as u8))
}

/// Runs one workload in this process and prints its report.
fn run_here(args: &Args) -> ExitCode {
    let workload = WORKLOADS
        .iter()
        .map(|&(n, _)| n)
        .find(|&n| n == args.workload)
        .expect("validated workload name");
    let out_dir = PathBuf::from("target").join("benchmark");
    let scratch = out_dir.join(format!("{workload}-{}", std::process::id()));
    let mut ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        sizes: if args.smoke {
            inputs::SMOKE
        } else {
            inputs::FULL
        },
        smoke: args.smoke,
        // One stream per (seed, workload): workloads do not replay each
        // other's draws.
        rng: StdRng::seed_from_u64(args.seed ^ (workload.len() as u64) << 32),
        tracer: trace::Tracer::new(workload, args.trace),
        report: report::Report::default(),
        scratch: scratch.clone(),
        reference: reference::Reference::new(),
    };
    match std::env::var(PINNED) {
        Ok(cpu) => ctx.report.note(format!("pinned to CPU {cpu}")),
        Err(_) => ctx
            .report
            .note("taskset not found: running unpinned".to_string()),
    }
    workloads::run(&mut ctx);
    let _ = std::fs::remove_dir_all(&scratch);
    if args.trace {
        let path = out_dir.join(format!("trace-{workload}.json"));
        match ctx.tracer.write(&path) {
            Ok(()) => ctx.report.note(format!(
                "{} spans written to {}",
                ctx.tracer.span_count(),
                path.display()
            )),
            Err(e) => ctx
                .report
                .tally
                .fail(|| format!("writing {}: {e}", path.display())),
        }
    }
    ctx.report.print_table(workload, args.trace);
    println!("{}", ctx.report.json_line(args.trace));
    if ctx.report.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// `all` and `--repeat N`: every selected workload in its own process,
/// repetition `i` on seed `seed + i` (as the driver varies it), then per
/// workload and metric the median, the quartiles, their distance as a
/// share of the median — the spread the driver bounds — and
/// (max − min) / median.
fn run_children(args: &Args) -> ExitCode {
    let selected: Vec<&str> = WORKLOADS
        .iter()
        .map(|&(n, _)| n)
        .filter(|&n| args.workload == "all" || args.workload == n)
        .collect();
    let mut runs: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut ok = true;
    for i in 0..args.repeat {
        for &workload in &selected {
            let child = workloads::Child {
                workload,
                seed: args.seed + i as u64,
                seconds: args.seconds,
                trace: args.trace,
                smoke: args.smoke,
            };
            match child.run() {
                Some((_, metrics)) => {
                    for (name, value) in metrics {
                        runs.entry(workload)
                            .or_default()
                            .entry(name)
                            .or_default()
                            .push(value);
                    }
                }
                None => ok = false,
            }
        }
    }
    if args.repeat > 1 {
        println!(
            "== spread over {} runs (seeds {}..) ==",
            args.repeat, args.seed
        );
        for (workload, metrics) in &runs {
            for (name, values) in metrics {
                let s = stats::sorted(values.clone());
                let (median, (q1, q3)) = (stats::median(&s), stats::quartiles(&s));
                let scale = if median == 0.0 { 1.0 } else { median.abs() };
                println!(
                    "  {workload:<14} {name:<34} median {median:>14.4}  q1 {q1:>14.4}  q3 {q3:>14.4}  iqr/median {:>7.4}  range/median {:>7.4}",
                    (q3 - q1) / scale,
                    (s[s.len() - 1] - s[0]) / scale,
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(64);
        }
    };
    if args.workload == "all" || args.repeat > 1 {
        return run_children(&args);
    }
    if std::env::var_os(PINNED).is_none() {
        if let Some(code) = run_pinned(&argv) {
            return code;
        }
    }
    run_here(&args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload serve-http --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-http", 7, 10.0, false)
        );
        let a = parse("--workload query-inex --seed 7 --seconds 10 --trace 1").unwrap();
        assert!(a.trace);
        // The short forms of the README.
        let a = parse("--workload all --trace --smoke").unwrap();
        assert!(a.trace && a.smoke && a.seconds < 1.0 && a.seed == 1);
        let a = parse("--trace --workload build-dblp --repeat 5").unwrap();
        assert!(a.trace && a.repeat == 5);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload all --seconds 0").is_err());
        assert!(parse("--workload all --seed").is_err());
        assert!(parse("--workload all --frobnicate").is_err());
    }
}
