//! Wall-clock benchmark of the blockconc workspace: transactions per second and
//! block latency per layout, with benchmark-owned per-layer spans.
//!
//! ```text
//! blockconc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1|path>
//! ```
//!
//! runs one workload and prints, as the last line of standard output, one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics otherwise.
//! Without `--workload` (or with `--workload all`) it runs every workload, each
//! in a fresh process, in both modes. See `README.md`.

#![forbid(unsafe_code)]

mod host;
mod measure;
mod metrics;
mod reference;
mod run;
mod spans;
mod stats;
mod study;
mod workload;

use metrics::{Def, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

/// Where spans go when `--trace` is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trace {
    Off,
    /// `--trace 1`: `<out-dir>/<workload>.spans.jsonl`.
    On,
    /// `--trace <path>`.
    To(PathBuf),
}

#[derive(Debug, Clone)]
pub struct Args {
    /// `None` runs every workload.
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: Trace,
    /// Scratch store directories and span files; the only place a run writes.
    pub out_dir: PathBuf,
    /// Runs per workload when running every workload; seeds count up from `seed`.
    pub repeat: usize,
}

const USAGE: &str = "usage: blockconc-benchmark [--workload <name>|all] [--seed <n>] \
[--seconds <s>] [--trace <0|1|path>] [--out-dir <dir>] [--repeat <n>]";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2020,
        seconds: 10.0,
        trace: Trace::Off,
        out_dir: PathBuf::from("benchmark/out"),
        repeat: 1,
    };
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = (value != "all").then_some(value),
            "--seed" => args.seed = value.parse().map_err(|_| number("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| number("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(number("between 0 and 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    path => Trace::To(PathBuf::from(path)),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            "--repeat" => {
                args.repeat = value.parse().map_err(|_| number("a whole number"))?;
                if args.repeat == 0 {
                    return Err(number("at least 1"));
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Formats the result line of the contract.
fn result_json(attempted: u64, failed: u64, rows: &[(Def, f64)]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|((name, unit, _), value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn run_one(workload: &Workload, args: &Args) -> Result<(), String> {
    let (outcome, table): (_, &[Def]) = match &args.trace {
        Trace::Off => (
            run::end_to_end(workload, args.seed, args.seconds, &args.out_dir)?,
            &END_TO_END,
        ),
        trace => {
            let span_file = match trace {
                Trace::To(path) => path.clone(),
                _ => args.out_dir.join(format!("{}.spans.jsonl", workload.name)),
            };
            (
                run::per_layer(workload, args.seed, args.seconds, &args.out_dir, &span_file)?,
                &PER_LAYER,
            )
        }
    };
    let rows = outcome.values.in_table_order(table);
    if let Some(((name, _, _), value)) = rows.iter().find(|(_, value)| !value.is_finite()) {
        return Err(format!("metric {name} is not a number: {value}"));
    }
    if outcome.attempted == 0 {
        return Err("no arrival was offered".to_string());
    }
    println!(
        "workload {} seed {} seconds {} threads {} cores {}\nwhy {}",
        workload.name,
        args.seed,
        args.seconds,
        host::threads(),
        host::cores(),
        workload.why
    );
    for ((name, unit, better), value) in &rows {
        println!("metric {name} {value} {unit} ({better} is better)");
    }
    println!("{}", result_json(outcome.attempted, outcome.failed, &rows));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        None => study::run_all(&args),
        Some(name) => match Workload::by_name(name) {
            Some(workload) => run_one(workload, &args),
            None => Err(format!(
                "unknown workload {name:?}; workloads: {}",
                workload::WORKLOADS.map(|w| w.name).join(", ")
            )),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_contract_command_line_parses() {
        let parsed = args(&[
            "--workload",
            "disk_commit",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("disk_commit"));
        assert_eq!((parsed.seed, parsed.seconds), (7, 10.0));
        assert_eq!(parsed.trace, Trace::On);
        assert_eq!(args(&["--trace", "0"]).unwrap().trace, Trace::Off);
        assert_eq!(
            args(&["--trace", "x/spans.jsonl"]).unwrap().trace,
            Trace::To(PathBuf::from("x/spans.jsonl"))
        );
        assert_eq!(args(&["--workload", "all"]).unwrap().workload, None);
        assert_eq!(args(&[]).unwrap().seed, 2020);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--repeat", "0"]).is_err());
        assert!(args(&["--frobnicate", "1"]).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let rows = [
            (("setup_s", "s", "lower"), 0.25),
            (("tx_per_s", "tx/s", "higher"), 1e5),
        ];
        assert_eq!(
            result_json(10, 0, &rows),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"tx_per_s\": {\"value\": 100000, \"unit\": \"tx/s\"}}}"
        );
    }
}
