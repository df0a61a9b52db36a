//! Every workload, each in a fresh process, in both modes — and, with
//! `--repeat`, the run-to-run spread of every end-to-end metric.

use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workload::WORKLOADS;
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Metric values by `(workload, metric)`, one per repeat.
type Samples = BTreeMap<(&'static str, String), Vec<f64>>;

/// Runs one workload in a child process and returns its `metric` lines.
fn run_child(
    args: &Args,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|err| format!("current_exe: {err}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|err| format!("spawn {workload}: {err}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {}) failed: {}",
            trace as u8, output.status
        ));
    }
    stdout
        .lines()
        .filter_map(|line| line.strip_prefix("metric "))
        .map(|line| {
            let mut fields = line.split_whitespace();
            let name = fields.next().ok_or("metric line without a name")?;
            let value = fields
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("metric {name} without a value"))?;
            Ok((name.to_string(), value))
        })
        .collect()
}

fn spread_table(samples: &Samples) {
    println!("\n| workload | metric | n | median | q1 | q3 | min | max | (q3-q1)/median |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for workload in &WORKLOADS {
        for (metric, unit, _) in &END_TO_END {
            let Some(values) = samples.get(&(workload.name, metric.to_string())) else {
                continue;
            };
            let [q1, median, q3] = stats::quartiles(values);
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "| {} | {metric} ({unit}) | {} | {median:.4} | {q1:.4} | {q3:.4} | {min:.4} | {max:.4} | {:.4} |",
                workload.name,
                values.len(),
                (q3 - q1) / median,
            );
        }
    }
}

fn median_table(samples: &Samples, table: &[Def]) {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    println!("\n| metric | {} |", names.join(" | "));
    println!("|---|{}", "---|".repeat(names.len()));
    for (metric, unit, _) in table {
        let cells: Vec<String> = names
            .iter()
            .map(|name| {
                samples
                    .get(&(*name, metric.to_string()))
                    .map_or("-".to_string(), |v| format!("{:.4}", stats::median(v)))
            })
            .collect();
        println!("| {metric} ({unit}) | {} |", cells.join(" | "));
    }
}

/// Runs every workload `args.repeat` times (seeds `seed`, `seed + 1`, ...), each
/// run in a fresh process, with tracing off and then on.
pub fn run_all(args: &Args) -> Result<(), String> {
    let mut samples: Samples = BTreeMap::new();
    for repeat in 0..args.repeat as u64 {
        for workload in &WORKLOADS {
            for trace in [false, true] {
                for (metric, value) in run_child(args, workload.name, args.seed + repeat, trace)? {
                    samples
                        .entry((workload.name, metric))
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    println!("\nmedians over {} run(s) per workload:", args.repeat);
    median_table(&samples, &END_TO_END);
    median_table(&samples, &PER_LAYER);
    if args.repeat > 1 {
        spread_table(&samples);
    }
    Ok(())
}
